"""Baseline tuners: vendor defaults, random search, grid search.

Not one of the paper's six categories, but every evaluation needs them:
the default configuration is what "untuned" means, and random/grid
search are the naive experiment-driven floors that principled approaches
must beat.

All three are :class:`~repro.core.driver.SearchTuner` strategies — the
simplest examples of the ask/tell contract.  Random search proposes a
chunk of samples per ask and grid search proposes the whole grid at
once, so both parallelize through the driver without any code of their
own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.parameters import Configuration
from repro.core.registry import register_tuner
from repro.tuners.common import grid_configurations

__all__ = ["DefaultConfigTuner", "RandomSearchTuner", "GridSearchTuner"]


@register_tuner("default")
class DefaultConfigTuner(SearchTuner):
    """Run the vendor default once and recommend it (the null tuner)."""

    name = "default"
    category = "rule-based"

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        return []

    def recommend(self, state: SearchState) -> Optional[Configuration]:
        return state.default_config()


@register_tuner("random-search")
class RandomSearchTuner(SearchTuner):
    """Uniform random sampling of feasible configurations.

    Always evaluates the default first so the result can never be worse
    than untuned.  Samples are proposed in chunks so a parallel runner
    can spread them across workers.
    """

    name = "random-search"
    category = "experiment-driven"

    #: Samples proposed per ask; purely an execution batching choice —
    #: uniform sampling has no sequential dependence, so any chunking
    #: observes the identical sequence.
    chunk = 8

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        n = min(self.chunk, state.remaining_runs)
        return [
            Candidate(state.space.sample_configuration(state.rng), tag="random")
            for _ in range(max(n, 1))
        ]


@register_tuner("grid-search")
class GridSearchTuner(SearchTuner):
    """Coordinate grid over the most promising knobs.

    A full factorial over a ~28-knob space is hopeless, so the grid
    covers ``n_knobs`` dimensions (by default the first knobs of the
    catalog, or an explicit list) at ``levels`` levels each, holding the
    rest at defaults — how practitioners actually grid-search.  The
    entire grid is one ask: grid points are independent, so the driver
    may fan them all out at once.
    """

    name = "grid-search"
    category = "experiment-driven"

    def __init__(self, knobs: Optional[List[str]] = None, levels: int = 3, n_knobs: int = 3):
        if levels < 2:
            raise ValueError("levels must be >= 2")
        self.knobs = knobs
        self.levels = levels
        self.n_knobs = n_knobs

    def setup(self, state: SearchState) -> None:
        self._asked = False

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        if self._asked:
            return []
        self._asked = True
        names = self.knobs or state.space.names()[: self.n_knobs]
        configs = grid_configurations(state.space, names, self.levels)
        return [Candidate(c, tag="grid") for c in configs]
