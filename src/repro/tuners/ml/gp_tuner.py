"""Plain Bayesian-optimization tuner (GP surrogate, selectable
acquisition).

The generic "machine learning" member of the taxonomy: a black-box
model over configurations with no knowledge of system internals, no
history, and no designs — everything is learned from this session's
observations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.registry import register_tuner
from repro.mlkit.acquisition import maximize_acquisition
from repro.mlkit.gp import GaussianProcess
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["BayesOptTuner"]


@register_tuner("bayesopt")
class BayesOptTuner(SearchTuner):
    """GP-based Bayesian optimization over the full knob space.

    With a transfer prior on the session, the driver (a) evaluates the
    prior's best configurations before random init, the strategy then
    (b) shrinks random init accordingly, and (c) stacks the prior's
    scaled pseudo-observations into the GP's training data.
    """

    name = "bayesopt"
    category = "machine-learning"
    uses_prior = True

    def __init__(
        self,
        n_init: int = 5,
        acquisition: str = "ei",
        kappa: float = 2.0,
        xi: float = 0.0,
        n_candidates: int = 400,
    ):
        if acquisition not in ("ei", "pi", "lcb"):
            raise ValueError(f"unknown acquisition {acquisition!r}")
        self.n_init = n_init
        self.acquisition = acquisition
        self.kappa = kappa
        self.xi = xi
        self.n_candidates = n_candidates

    def wants_prior_seeds(self, state: SearchState) -> int:
        return min(3, self.n_init)

    def setup(self, state: SearchState) -> None:
        self._init_asked = False
        self._step = 0

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        if not self._init_asked:
            self._init_asked = True
            seeded = state.seeded_prior_runs
            n_init = max(self.n_init - seeded, 1 if seeded == 0 else 0)
            count = min(n_init, max(state.remaining_runs - 1, 0))
            if count > 0:
                return [
                    Candidate(space.sample_configuration(rng), tag=f"init-{i}")
                    for i in range(count)
                ]
        use_prior = state.prior is not None and len(state.prior) > 0
        X, y = history_to_training_data(state, include_prior=use_prior)
        if len(y) < 3:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]
        gp = GaussianProcess(optimize=True).fit(X, np.log(y))
        incumbent = state.best_config()
        candidates, Xc = candidate_pool(
            space, rng, n_random=self.n_candidates,
            anchors=[incumbent] if incumbent else None,
        )
        if not candidates:
            return []
        idx, _ = maximize_acquisition(
            gp, float(np.log(state.best_runtime())), Xc,
            kind=self.acquisition, xi=self.xi, kappa=self.kappa,
        )
        step = self._step
        self._step += 1
        return [Candidate(candidates[idx], tag=f"bo-{step}")]
