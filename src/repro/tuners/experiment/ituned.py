"""iTuned: LHS initialization + Gaussian process + expected improvement.

Duan, Thummala & Babu (PVLDB'09).  The planning loop:

1. *Initialization*: a maximin Latin hypercube of ``n_init`` experiments
   covers the space.
2. *Sequential sampling*: fit a GP to all (config, runtime) pairs; pick
   the candidate maximizing expected improvement; run it; repeat.
3. Failed runs enter the model at a penalty so EI avoids the region —
   iTuned's practical answer to crashing configurations.

The ``shrink_after`` option reproduces iTuned's space-shrinking trick:
once enough data exists, sampling concentrates around the incumbent.

``batch_size > 1`` reproduces iTuned's *parallel experiments* feature
(§5 of the paper): the LHS design and each EI proposal round commit to
a batch of configurations up front — the strategy declares its batches
*atomic*, so the driver charges them whole even under a wall-clock cap
and fans them out through the session's runner.  The default of 1 is
the classic sequential loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.parameters import Configuration
from repro.core.registry import register_tuner
from repro.mlkit.acquisition import expected_improvement
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.kernels import Matern52
from repro.mlkit.sampling import maximin_latin_hypercube
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["ITunedTuner"]


@register_tuner("ituned")
class ITunedTuner(SearchTuner):
    """LHS + GP + EI experiment-driven tuning."""

    name = "ituned"
    category = "experiment-driven"

    def __init__(
        self,
        n_init: int = 10,
        n_candidates: int = 400,
        xi: float = 0.0,
        shrink_after: int = 20,
        batch_size: int = 1,
        warm_start: bool = False,
    ):
        if n_init < 2:
            raise ValueError("n_init must be >= 2")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n_init = n_init
        self.n_candidates = n_candidates
        self.xi = xi
        self.shrink_after = shrink_after
        self.batch_size = batch_size
        #: Consume a transfer prior: seed with its best configs, shrink
        #: the LHS design, and stack its rows into the GP's data.
        self.warm_start = warm_start

    @property
    def atomic_batches(self) -> bool:
        # iTuned §5: a parallel proposal round is committed before any
        # of its results are seen, wall-clock cap or not.
        return self.batch_size > 1

    def wants_prior_seeds(self, state: SearchState) -> int:
        return 3 if self.warm_start else 0

    def setup(self, state: SearchState) -> None:
        self._init_configs: Optional[List[Configuration]] = None
        self._init_pos = 0
        self._step = 0

    def _plan_init(self, state: SearchState) -> None:
        """Build the space-filling design.  A transfer prior already
        covers the space with mapped pseudo-samples, so warm starts
        shrink the design to a small residual."""
        space, rng = state.space, state.rng
        n_init = self.n_init - 2 * state.seeded_prior_runs
        if state.prior is not None and len(state.prior) >= 3:
            n_init = min(n_init, 2)
        n_init = min(max(n_init, 2), max(state.remaining_runs - 2, 1))
        design = maximin_latin_hypercube(n_init, space.dimension, rng)
        self._init_configs = space.from_arrays_feasible(design, rng)

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        if self._init_configs is None:
            self._plan_init(state)
        # Phase 1: the DoE rows are independent by construction, so
        # batching is where parallel experiment execution pays off
        # first.
        if self._init_pos < len(self._init_configs):
            start = self._init_pos
            width = self.batch_size if self.batch_size > 1 else 1
            chunk = self._init_configs[start:start + width]
            self._init_pos += len(chunk)
            return [
                Candidate(c, tag=f"lhs-{start + j}")
                for j, c in enumerate(chunk)
            ]
        # Phase 2: adaptive sampling with EI.
        use_prior = state.prior is not None and len(state.prior) > 0
        X, y = history_to_training_data(state, include_prior=use_prior)
        if len(y) < 3:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]
        # Runtimes (and failure penalties) span decades; the GP is
        # far better behaved on log targets, and EI in log space
        # optimizes relative improvement.
        gp = GaussianProcess(kernel=Matern52(), optimize=True).fit(X, np.log(y))
        best = float(np.log(state.best_runtime()))
        anchors: List[Configuration] = []
        if self.shrink_after and len(y) >= self.shrink_after:
            incumbent = state.best_config()
            if incumbent is not None:
                anchors.append(incumbent)
        candidates, Xc = candidate_pool(
            space, rng, n_random=self.n_candidates, anchors=anchors
        )
        if not candidates:
            return []
        mean, std = gp.predict(Xc, return_std=True)
        ei = expected_improvement(mean, std, best, xi=self.xi)
        step = self._step
        self._step += 1
        if self.batch_size > 1:
            # Parallel iTuned: commit to the top-EI *distinct*
            # candidates as one atomic batch per model fit.
            order = np.argsort(-ei)
            batch: List[Candidate] = []
            seen = set()
            for j in order:
                config = candidates[int(j)]
                if config in seen:
                    continue
                seen.add(config)
                batch.append(
                    Candidate(
                        config,
                        tag=f"ei-{step}.{len(batch)}",
                        predicted_runtime_s=float(np.exp(mean[int(j)])),
                        predict_tag="gp-mean",
                    )
                )
                if len(batch) >= self.batch_size:
                    break
            return batch
        idx = int(np.argmax(ei))
        return [
            Candidate(
                candidates[idx],
                tag=f"ei-{step}",
                predicted_runtime_s=float(np.exp(mean[idx])),
                predict_tag="gp-mean",
            )
        ]
