"""SysInsight-style knob-importance analysis.

Two independent rankers vote: random-forest impurity importance (which
captures interactions and threshold effects) and OtterTune's lasso-path
entry order (which captures strong monotone main effects).  Their
normalized average is the combined score the surrogate recommender uses
to prune its candidate search to the top-k knobs — in 24–29-dimensional
spaces with a few hundred samples, optimizing all dims at once just
chases model noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.mlkit.linear import lasso_rank_features
from repro.mlkit.tree import RandomForest

__all__ = ["KnobScore", "ImportanceReport", "rank_knobs"]


@dataclass(frozen=True)
class KnobScore:
    """One knob's importance under both rankers (all scores in [0, 1])."""

    name: str
    forest: float
    lasso: float
    combined: float


@dataclass
class ImportanceReport:
    """Knob ranking for one (system kind, workload family)."""

    scores: List[KnobScore]
    n_rows: int

    def top(self, k: int) -> Tuple[str, ...]:
        """Names of the ``k`` highest-combined-score knobs."""
        return tuple(s.name for s in self.scores[: max(k, 0)])

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "n_rows": self.n_rows,
            "knobs": [
                {
                    "name": s.name,
                    "forest": round(s.forest, 6),
                    "lasso": round(s.lasso, 6),
                    "combined": round(s.combined, 6),
                }
                for s in self.scores
            ],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "ImportanceReport":
        return cls(
            scores=[
                KnobScore(
                    name=row["name"],
                    forest=float(row["forest"]),
                    lasso=float(row["lasso"]),
                    combined=float(row["combined"]),
                )
                for row in payload.get("knobs", [])
            ],
            n_rows=int(payload.get("n_rows", 0)),
        )


def rank_knobs(
    X: np.ndarray,
    y: np.ndarray,
    knob_names: Sequence[str],
    seed: int = 0,
) -> ImportanceReport:
    """Rank knobs by combined forest-impurity and lasso-path importance.

    The forest has 25 trees of depth at most 6.

    Args:
        X: unit-scaled knob vectors (fingerprint columns excluded —
            importance is about knobs, not workload identity).
        y: training targets (log runtime ratios, penalties included so
            failure cliffs register as importance).
    """
    knob_names = list(knob_names)
    d = len(knob_names)
    n = X.shape[0]
    if n < 4 or d == 0:
        uniform = 1.0 / max(d, 1)
        scores = [KnobScore(name, uniform, uniform, uniform) for name in knob_names]
        return ImportanceReport(scores=scores, n_rows=n)

    forest = RandomForest(n_trees=25, max_depth=6, seed=seed).fit(X, y)
    forest_raw = np.asarray(forest.feature_importances_, dtype=float)
    peak = float(forest_raw.max())
    forest_norm = forest_raw / peak if peak > 0 else np.full(d, 1.0 / d)

    lasso_order = lasso_rank_features(X, y)
    lasso_norm = np.empty(d)
    for position, j in enumerate(lasso_order):
        lasso_norm[j] = (d - position) / d

    combined = 0.5 * forest_norm + 0.5 * lasso_norm
    order = sorted(range(d), key=lambda j: (-combined[j], knob_names[j]))
    scores = [
        KnobScore(
            name=knob_names[j],
            forest=float(forest_norm[j]),
            lasso=float(lasso_norm[j]),
            combined=float(combined[j]),
        )
        for j in order
    ]
    return ImportanceReport(scores=scores, n_rows=n)
