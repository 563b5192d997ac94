"""Recursive random search (RRS).

A classic black-box algorithm used by several Hadoop tuners (e.g.,
Gunther-style searchers): alternate global random sampling with
recursive shrink-and-resample around the best point, restarting the
local phase when it stops paying off.

The global bursts are independent uniform samples, so each burst is a
single ask the driver can fan out; the local phase is inherently
sequential (every sample recenters on the incumbent) and proposes one
candidate at a time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.measurement import Observation
from repro.core.registry import register_tuner
from repro.exceptions import ValidationError
from repro.tuners.common import ResponseReplay

__all__ = ["RecursiveRandomSearchTuner"]


@register_tuner("rrs")
class RecursiveRandomSearchTuner(SearchTuner):
    """Global/local recursive random search."""

    name = "rrs"
    category = "experiment-driven"

    def __init__(
        self,
        n_global: int = 6,
        shrink: float = 0.5,
        local_fail_limit: int = 3,
        min_radius: float = 0.02,
    ):
        if not (0.0 < shrink < 1.0):
            raise ValueError("shrink must be in (0, 1)")
        self.n_global = n_global
        self.shrink = shrink
        self.local_fail_limit = local_fail_limit
        self.min_radius = min_radius

    def setup(self, state: SearchState) -> None:
        # Penalize (not the session policy): every sample must yield a
        # finite score for the incumbent comparison to stay total.
        self._replay = ResponseReplay("penalize")
        self._best_y = float("inf")
        self._best_x: Optional[np.ndarray] = None
        self._phase = "default"  # what the last proposal was
        self._radius = 0.0
        self._failures = 0

    def tell(self, state: SearchState, results: List[Observation]) -> None:
        for obs in results:
            y = self._replay.account(obs)
            x = obs.config.to_array()
            if self._phase in ("default", "global"):
                if y < self._best_y:
                    self._best_y, self._best_x = y, x
                continue
            # Local phase: track the incumbent and the failure streak
            # that drives the shrink schedule.
            if y < self._best_y:
                self._best_y, self._best_x = y, x
                self._failures = 0
            else:
                self._failures += 1
                if self._failures >= self.local_fail_limit:
                    self._radius *= self.shrink
                    self._failures = 0

    def _global_burst(self, state: SearchState) -> Sequence[Candidate]:
        self._phase = "global"
        sampled = state.space.sample_configurations(self.n_global, state.rng)
        if len(sampled) < self.n_global:
            raise ValidationError(
                "could not sample a feasible configuration for every "
                "global-burst slot"
            )
        return [Candidate(config, tag=f"global-{i}") for i, config in enumerate(sampled)]

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        if self._phase == "default":
            return self._global_burst(state)
        if self._phase == "global":
            # Global burst digested: recurse locally around the best.
            self._radius = 0.25
            self._failures = 0
            self._phase = "local"
        if self._radius <= self.min_radius:
            # Local phase exhausted; restart with a fresh global burst.
            return self._global_burst(state)
        space, rng = state.space, state.rng
        x = np.clip(
            self._best_x + rng.uniform(-self._radius, self._radius, size=space.dimension),
            0.0,
            1.0,
        )
        config = space.from_array_feasible(x, rng)
        return [Candidate(config, tag=f"local-r{self._radius:.2f}")]
