"""Adaptive sampling for experiment-driven management (Babu et al.,
HotOS'09).

The HotOS vision paper proposes planning experiments adaptively: run a
cheap bootstrap batch, fit a coarse surrogate, and repeatedly choose the
next experiment that balances *exploitation* (sample near the current
best) against *exploration* (sample where the surrogate is most
uncertain).  This implementation uses a random-forest surrogate whose
ensemble spread provides the uncertainty signal — no GP machinery, in
keeping with the paper's emphasis on simple, robust mechanisms.

The bootstrap design is one ask (the driver fans it out); the guided
phase proposes one experiment per ask, attaching the forest's estimate
as the candidate's prediction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.registry import register_tuner
from repro.mlkit.sampling import latin_hypercube
from repro.mlkit.tree import RandomForest
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["AdaptiveSamplingTuner"]


@register_tuner("adaptive-sampling")
class AdaptiveSamplingTuner(SearchTuner):
    """Bootstrap batch, then forest-guided explore/exploit sampling."""

    name = "adaptive-sampling"
    category = "experiment-driven"

    def __init__(
        self,
        n_bootstrap: int = 8,
        explore_weight: float = 1.0,
        n_candidates: int = 300,
    ):
        if n_bootstrap < 2:
            raise ValueError("n_bootstrap must be >= 2")
        self.n_bootstrap = n_bootstrap
        self.explore_weight = explore_weight
        self.n_candidates = n_candidates

    def setup(self, state: SearchState) -> None:
        self._boot_asked = False
        self._step = 0

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        if not self._boot_asked:
            self._boot_asked = True
            n_boot = min(self.n_bootstrap, max(state.remaining_runs - 2, 1))
            design = latin_hypercube(n_boot, space.dimension, rng)
            return [
                Candidate(config, tag=f"bootstrap-{i}")
                for i, config in enumerate(space.from_arrays_feasible(design, rng))
            ]
        X, y = history_to_training_data(state)
        if len(y) < 4:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]
        forest = RandomForest(n_trees=25, max_depth=6, seed=int(rng.integers(1 << 30)))
        forest.fit(X, y)
        incumbent = state.best_config()
        candidates, Xc = candidate_pool(
            space, rng, n_random=self.n_candidates,
            anchors=[incumbent] if incumbent else None,
        )
        if not candidates:
            return []
        mean, spread = forest.predict_std(Xc)
        # Lower predicted runtime and higher uncertainty both score;
        # the weight anneals toward exploitation as data accumulates.
        anneal = self.explore_weight / np.sqrt(1.0 + self._step)
        score = -mean + anneal * spread
        best = int(np.argmax(score))
        step = self._step
        self._step += 1
        return [
            Candidate(
                candidates[best],
                tag=f"adaptive-{step}",
                predicted_runtime_s=float(mean[best]),
                predict_tag="forest",
            )
        ]
