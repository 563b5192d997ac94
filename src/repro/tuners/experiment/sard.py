"""SARD: Statistical Approach for Ranking Database tuning parameters.

Debnath et al. (ICDE'08): screen all knobs with a Plackett–Burman
two-level design (plus foldover to cancel even-order confounding), rank
them by main-effect magnitude, and focus subsequent tuning on the top
few.  :class:`SardRanker` exposes the ranking as a standalone,
session-driven utility; :class:`SardTuner` is the ask/tell strategy
adding the natural follow-up — a small grid over the top-ranked knobs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.measurement import Observation
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.registry import register_tuner
from repro.core.session import TuningSession
from repro.exceptions import BudgetExhausted
from repro.mlkit.doe import foldover, main_effects, plackett_burman
from repro.mlkit.linear import lasso_rank_features
from repro.tuners.common import ResponseReplay

__all__ = ["SardRanker", "SardTuner"]

_LOW_UNIT, _HIGH_UNIT = 0.2, 0.8


class SardRanker:
    """Plackett–Burman screening of a configuration space.

    The design assigns each knob its low/high level (unit coordinates
    0.15/0.85) per run; after measuring all runs, the absolute main
    effect of each knob estimates its importance.
    """

    def __init__(self, use_foldover: bool = True):
        self.use_foldover = use_foldover

    def design_for(self, space: ConfigurationSpace) -> np.ndarray:
        design = plackett_burman(space.dimension)
        if self.use_foldover:
            design = foldover(design)
        return design

    def configs_for(
        self, space: ConfigurationSpace, rng: np.random.Generator
    ) -> Tuple[np.ndarray, List[Configuration]]:
        design = self.design_for(space)
        unit = np.where(design > 0, _HIGH_UNIT, _LOW_UNIT)
        configs = space.from_arrays_feasible(unit, rng)
        return design, configs

    def rank(
        self,
        session: TuningSession,
        max_runs: Optional[int] = None,
        batch_size: int = 1,
    ) -> List[Tuple[str, float]]:
        """Execute the design on budget and return (knob, |effect|)
        sorted descending.  Rows that do not fit the budget are dropped
        symmetrically (design rows are exchangeable).

        A two-level screening design is the canonical parallel DoE: all
        rows are decided before any response is seen, so with
        ``batch_size > 1`` the rows execute as atomic batches through
        :meth:`~repro.core.session.TuningSession.evaluate_batch`.

        Failed rows follow the session's failure policy: ``penalize``
        (large finite response), ``impute`` (median of successes so
        far), or ``discard`` (row dropped from the effect estimate —
        design rows are exchangeable, so the estimate stays unbiased).
        Hung rows (successful, infinite runtime) count as failures."""
        space = session.space
        policy = getattr(session, "failure_policy", "penalize")
        design, configs = self.configs_for(space, session.rng)
        limit = len(configs)
        if max_runs is not None:
            limit = min(limit, max_runs)
        responses: List[float] = []
        used_rows: List[int] = []
        # Failure responses reference the successes seen *before* the
        # failing row; replaying that bookkeeping incrementally makes a
        # batched screen rank identically to a sequential one (a batch's
        # later successes must not lower an earlier row's penalty).
        replay = ResponseReplay(policy)
        for o in session.history.successful():
            if np.isfinite(o.runtime_s):
                replay.account(o)

        def account(row: int, measurement) -> None:
            response = replay.account(_Settled(measurement))
            if response is not None:
                responses.append(response)
                used_rows.append(row)

        if batch_size > 1:
            for start in range(0, limit, batch_size):
                chunk = configs[start:min(start + batch_size, limit)]
                try:
                    measurements = session.evaluate_batch(
                        chunk,
                        tags=[f"pb-{start + j}" for j in range(len(chunk))],
                    )
                except BudgetExhausted:
                    break
                for j, measurement in enumerate(measurements):
                    account(start + j, measurement)
        else:
            for i in range(limit):
                measurement = session.evaluate_if_budget(configs[i], tag=f"pb-{i}")
                if measurement is None:
                    break
                account(i, measurement)
        if len(used_rows) < 4:
            return [(name, 0.0) for name in space.names()]
        effects = main_effects(design[used_rows], np.array(responses))
        ranked = sorted(
            zip(space.names(), np.abs(effects)), key=lambda kv: -kv[1]
        )
        return ranked


class _Settled:
    """Adapter giving a bare Measurement the Observation shape
    :class:`~repro.tuners.common.ResponseReplay` accounts."""

    def __init__(self, measurement):
        self.measurement = measurement


@register_tuner("sard")
class SardTuner(SearchTuner):
    """PB screening, then a grid over the top-ranked knobs."""

    name = "sard"
    category = "experiment-driven"

    def __init__(
        self,
        top_k: int = 3,
        levels: int = 3,
        use_foldover: bool = True,
        batch_size: int = 1,
        warm_start: bool = False,
    ):
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.top_k = top_k
        self.levels = levels
        self.batch_size = batch_size
        #: Rank knobs from transfer-prior data instead of running the
        #: PB screen — the screen is most of SARD's experiment cost, so
        #: a usable prior converts almost the whole budget into grid
        #: refinement over the knobs that mattered on similar workloads.
        self.warm_start = warm_start
        self.ranker = SardRanker(use_foldover=use_foldover)

    @property
    def atomic_batches(self) -> bool:
        return self.batch_size > 1

    def _prior_ranking(
        self, state: SearchState
    ) -> Optional[List[Tuple[str, float]]]:
        """Knob importances from the prior's (X, y), via the lasso path
        (OtterTune's criterion).  None when the prior is too small to
        rank ``space.dimension`` features credibly."""
        X, y = state.prior_training_data()
        if len(y) < max(8, state.space.dimension // 3):
            return None
        order = lasso_rank_features(X, np.log(np.maximum(y, 1e-9)))
        names = state.space.names()
        d = len(order)
        return [(names[j], float(d - pos)) for pos, j in enumerate(order)]

    def wants_prior_seeds(self, state: SearchState) -> int:
        if not self.warm_start:
            return 0
        self._prior_ranked = self._prior_ranking(state)
        if self._prior_ranked is None:
            return 0
        state.extras["sard_ranking_source"] = "transfer-prior"
        return 2

    def setup(self, state: SearchState) -> None:
        self._replay = ResponseReplay(state.failure_policy)
        self._prior_ranked: Optional[List[Tuple[str, float]]] = None
        self._design: Optional[np.ndarray] = None
        self._configs: List[Configuration] = []
        self._limit = 0
        self._pos = 0
        self._pending_rows: List[int] = []
        self._responses: List[float] = []
        self._used_rows: List[int] = []
        self._ranked: Optional[List[Tuple[str, float]]] = None
        self._grid: Optional[List[Configuration]] = None
        self._grid_pos = 0
        self._screen_telling = False

    def tell(self, state: SearchState, results: List[Observation]) -> None:
        if not self._screen_telling:
            # Default / prior-seed / grid results still feed the success
            # pool that failure responses are computed against.
            for o in results:
                self._replay.account(o)
            return
        for row, o in zip(self._pending_rows, results):
            response = self._replay.account(o)
            if response is not None:
                self._responses.append(response)
                self._used_rows.append(row)

    def _finish_ranking(self, state: SearchState) -> None:
        if self._prior_ranked is not None:
            ranked = self._prior_ranked
        elif len(self._used_rows) < 4:
            ranked = [(name, 0.0) for name in state.space.names()]
        else:
            effects = main_effects(
                self._design[self._used_rows], np.array(self._responses)
            )
            ranked = sorted(
                zip(state.space.names(), np.abs(effects)),
                key=lambda kv: -kv[1],
            )
        self._ranked = ranked
        state.extras["sard_ranking"] = ranked

    def _build_grid(self, state: SearchState) -> List[Configuration]:
        space = state.space
        top = [name for name, _ in self._ranked[: self.top_k]]
        grids = {n: space[n].grid(self.levels) for n in top}
        configs: List[Configuration] = []

        def recurse(idx: int, overrides: dict) -> None:
            if idx == len(top):
                try:
                    configs.append(space.partial(overrides))
                except Exception:
                    pass
                return
            for value in grids[top[idx]]:
                overrides[top[idx]] = value
                recurse(idx + 1, overrides)
            del overrides[top[idx]]

        recurse(0, {})
        return configs

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        if self._ranked is None and self._prior_ranked is not None:
            self._finish_ranking(state)
        if self._ranked is None:
            if self._design is None:
                self._design, self._configs = self.ranker.configs_for(
                    state.space, state.rng
                )
                # Spend at most ~60% of the budget on screening, the
                # rest on the focused grid.
                screen_budget = max(4, int(state.budget.max_runs * 0.6))
                self._limit = min(len(self._configs), screen_budget)
            if self._pos < self._limit:
                start = self._pos
                width = self.batch_size if self.batch_size > 1 else 1
                end = min(start + width, self._limit)
                chunk = self._configs[start:end]
                self._pending_rows = list(range(start, end))
                self._pos = end
                self._screen_telling = True
                return [
                    Candidate(c, tag=f"pb-{start + j}")
                    for j, c in enumerate(chunk)
                ]
            self._finish_ranking(state)
        self._screen_telling = False
        if self._grid is None:
            self._grid = self._build_grid(state)
            self._grid_pos = 0
        if self._grid_pos >= len(self._grid):
            return []
        config = self._grid[self._grid_pos]
        self._grid_pos += 1
        return [Candidate(config, tag="sard-grid")]

    def finish(self, state: SearchState) -> None:
        # The ranking is reported even when the budget died mid-screen,
        # matching the sequential loop (which ranked whatever rows ran).
        if self._ranked is None:
            self._finish_ranking(state)
