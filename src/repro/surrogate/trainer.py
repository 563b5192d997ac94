"""Surrogate model training with holdout model selection.

One :class:`TrainedSurrogate` per (system kind, workload family): a
runtime-ratio regressor over ``[knob vector | scaled fingerprint]``
features, the knob-importance report that prunes its search space, and
everything a recommender needs to serve zero-probe answers — all
JSON-serializable for the versioned registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SurrogateError
from repro.kb.fingerprint import WorkloadFingerprint
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.scaler import MinMaxScaler
from repro.mlkit.state import dump_model, load_model
from repro.mlkit.tree import RandomForest
from repro.surrogate.dataset import TrainingMatrix
from repro.surrogate.importance import ImportanceReport, rank_knobs

__all__ = ["TrainedSurrogate", "train_surrogate", "DEFAULT_MODELS"]

#: Holdout candidates in preference order; earlier kinds win ties.  The
#: forest leads: across the benchmark matrix its argmin picks were the
#: most reliable, and its ensemble spread gives the confidence gate a
#: real uncertainty signal.
DEFAULT_MODELS = ("forest", "gp", "mlp")

#: Below this many successful rows a family cannot be fit usefully.
MIN_TRAIN_ROWS = 8

#: Cap on the serialized observed-support rows carried per model.
MAX_SUPPORT_ROWS = 512

#: Independent holdout splits averaged during model selection.
_SELECTION_SPLITS = 3

#: A later candidate must improve the mean argmin-pick score by this
#: much (log-ratio space, so ~5% runtime) to displace a preferred one.
_SELECTION_MARGIN = 0.05


def _make_model(kind: str, seed: int) -> Any:
    if kind == "gp":
        return GaussianProcess()
    if kind == "forest":
        return RandomForest(n_trees=30, seed=seed)
    if kind == "mlp":
        return MLPRegressor(hidden=(32, 32), epochs=300, seed=seed)
    raise SurrogateError(f"unknown surrogate model kind: {kind}")


@dataclass
class TrainedSurrogate:
    """A fitted per-family surrogate plus its serving metadata.

    ``model`` predicts ``log(runtime / probe_anchor)`` from the feature
    layout ``[unit-scaled knobs | min-max-scaled fingerprint]``.
    """

    system_kind: str
    family: str
    kb_version: Tuple[int, int]
    model_kind: str
    model: Any
    fp_scaler: MinMaxScaler
    knob_names: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    importance: ImportanceReport
    top_knobs: Tuple[str, ...]
    holdout_rmse: Dict[str, float]
    n_rows: int
    n_failed: int
    n_sessions: int
    anchors: Dict[str, float]
    #: Deduplicated unit vectors of successful training rows, minus any
    #: configuration that failed on *any* variant (the family-crash
    #: veto).  The recommender only ranks this observed support —
    #: zero-probe serving never extrapolates into regions no session
    #: has survived.
    support_units: Tuple[Tuple[float, ...], ...]

    def features(
        self, X_knobs: np.ndarray, fingerprint: WorkloadFingerprint
    ) -> np.ndarray:
        """Assemble the model's feature matrix for a query fingerprint."""
        X_knobs = np.atleast_2d(np.asarray(X_knobs, dtype=float))
        anchor = fingerprint.probe_runtime_s
        if not (math.isfinite(anchor) and anchor > 0):
            raise SurrogateError(
                "fingerprint has no finite probe anchor; surrogate cannot scale"
            )
        raw = np.append(fingerprint.vector(self.metric_names), math.log(anchor))
        scaled = self.fp_scaler.transform(raw[None, :])
        return np.hstack(
            [X_knobs, np.tile(scaled, (X_knobs.shape[0], 1))]
        )

    def predict(
        self, X_knobs: np.ndarray, fingerprint: WorkloadFingerprint
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Predicted log runtime ratios (and uncertainty if available).

        The returned std is in log-ratio space, i.e. directly a
        *relative* uncertainty — the confidence gate thresholds it
        without knowing the workload's scale.
        """
        X = self.features(X_knobs, fingerprint)
        if isinstance(self.model, GaussianProcess):
            return self.model.predict(X, return_std=True)
        if isinstance(self.model, RandomForest):
            return self.model.predict_std(X)
        return self.model.predict(X), None

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "kind": "trained_surrogate",
            "system_kind": self.system_kind,
            "family": self.family,
            "kb_version": list(self.kb_version),
            "model_kind": self.model_kind,
            "model": dump_model(self.model),
            "fp_scaler": self.fp_scaler.to_state(),
            "knob_names": list(self.knob_names),
            "metric_names": list(self.metric_names),
            "importance": self.importance.to_jsonable(),
            "top_knobs": list(self.top_knobs),
            "holdout_rmse": dict(self.holdout_rmse),
            "n_rows": self.n_rows,
            "n_failed": self.n_failed,
            "n_sessions": self.n_sessions,
            "anchors": dict(self.anchors),
            "support_units": [list(row) for row in self.support_units],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "TrainedSurrogate":
        if payload.get("kind") != "trained_surrogate":
            raise SurrogateError("payload is not a trained_surrogate document")
        return cls(
            system_kind=payload["system_kind"],
            family=payload["family"],
            kb_version=tuple(payload["kb_version"]),
            model_kind=payload["model_kind"],
            model=load_model(payload["model"]),
            fp_scaler=MinMaxScaler.from_state(payload["fp_scaler"]),
            knob_names=tuple(payload["knob_names"]),
            metric_names=tuple(payload["metric_names"]),
            importance=ImportanceReport.from_jsonable(payload["importance"]),
            top_knobs=tuple(payload["top_knobs"]),
            holdout_rmse={
                k: float(v) for k, v in payload["holdout_rmse"].items()
            },
            n_rows=int(payload["n_rows"]),
            n_failed=int(payload["n_failed"]),
            n_sessions=int(payload["n_sessions"]),
            anchors={k: float(v) for k, v in payload["anchors"].items()},
            support_units=tuple(
                tuple(float(v) for v in row)
                for row in payload["support_units"]
            ),
        )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for status endpoints and CLI listings."""
        return {
            "system_kind": self.system_kind,
            "family": self.family,
            "kb_version": list(self.kb_version),
            "model_kind": self.model_kind,
            "n_rows": self.n_rows,
            "n_failed": self.n_failed,
            "n_sessions": self.n_sessions,
            "n_support": len(self.support_units),
            "holdout_rmse": {
                k: round(v, 6) for k, v in self.holdout_rmse.items()
            },
            "top_knobs": list(self.top_knobs),
            "workloads": sorted(self.anchors),
        }


def train_surrogate(
    matrix: TrainingMatrix,
    kb_version: Tuple[int, int],
    seed: int = 0,
    top_k: int = 8,
    models: Sequence[str] = DEFAULT_MODELS,
    holdout_fraction: float = 0.25,
) -> TrainedSurrogate:
    """Fit a surrogate for one family with holdout model selection.

    Candidate model kinds are fit on deterministic train splits and
    scored by the *actual* holdout outcome of their argmin-predicted
    pick (averaged over :data:`_SELECTION_SPLITS` splits) — the metric
    serving optimizes, rather than plain RMSE; the winner is refit on
    all rows.  With fewer than ~3× :data:`MIN_TRAIN_ROWS` rows the
    holdout would be noise, so the first candidate wins by default.

    Only successful rows train the model: penalty-labeling crash rows
    distorts the regression surface near feasibility cliffs and inflates
    posterior uncertainty everywhere (measured, not hypothetical — it
    flipped winning cells to losses in the hadoop benchmarks).  Safety
    against unexplored crash regions comes from the recommender's
    confidence gate instead.

    Raises:
        SurrogateError: when the family has too few successful rows.
    """
    ok = ~matrix.failed
    if int(ok.sum()) < MIN_TRAIN_ROWS:
        raise SurrogateError(
            f"family {matrix.family!r} has {int(ok.sum())} successful rows;"
            f" need >= {MIN_TRAIN_ROWS}"
        )
    y = matrix.y[ok]
    X_knobs = matrix.X_knobs[ok]

    importance = rank_knobs(X_knobs, y, matrix.knob_names, seed=seed)
    top_knobs = importance.top(min(top_k, len(matrix.knob_names)))

    fp_scaler = MinMaxScaler().fit(matrix.F[ok])
    X = np.hstack([X_knobs, fp_scaler.transform(matrix.F[ok])])
    n = X.shape[0]

    models = tuple(models)
    holdout_rmse: Dict[str, float] = {}
    chosen = models[0]
    n_holdout = int(n * holdout_fraction)
    if n_holdout >= 3 and n - n_holdout >= MIN_TRAIN_ROWS and len(models) > 1:
        # Selection criterion: the actual outcome of each model's
        # argmin-predicted holdout pick, averaged over a few splits.
        # That matches deployment — the recommender serves the model's
        # argmin, so a slightly-worse-RMSE model with fewer tail error
        # spikes is the better server (the optimizer's-curse effect;
        # plain RMSE selection measurably chose worse-serving models).
        pick_scores: Dict[str, float] = {}
        rmse_sums: Dict[str, List[float]] = {}
        pick_sums: Dict[str, List[float]] = {}
        for split in range(_SELECTION_SPLITS):
            perm = np.random.default_rng(seed + 1000 * split).permutation(n)
            test_idx, train_idx = perm[:n_holdout], perm[n_holdout:]
            for kind in models:
                try:
                    candidate = _make_model(kind, seed).fit(
                        X[train_idx], y[train_idx]
                    )
                    pred = candidate.predict(X[test_idx])
                    if isinstance(pred, tuple):
                        pred = pred[0]
                except Exception:
                    continue
                rmse = float(np.sqrt(np.mean((pred - y[test_idx]) ** 2)))
                pick = float(y[test_idx][int(np.argmin(pred))])
                rmse_sums.setdefault(kind, []).append(rmse)
                pick_sums.setdefault(kind, []).append(pick)
        for kind, rmses in rmse_sums.items():
            if len(rmses) == _SELECTION_SPLITS:
                holdout_rmse[kind] = float(np.mean(rmses))
                pick_scores[kind] = float(np.mean(pick_sums[kind]))
        if pick_scores:
            # Earlier candidates are preferred: a later one must beat
            # the incumbent by a clear margin, not by split noise.
            chosen = next(k for k in models if k in pick_scores)
            for kind in models:
                if kind in pick_scores and (
                    pick_scores[kind] < pick_scores[chosen] - _SELECTION_MARGIN
                ):
                    chosen = kind

    model = _make_model(chosen, seed).fit(X, y)

    # Observed support: successful rows, deduplicated, minus any config
    # that failed on some variant (best ratio first, so a truncated
    # support keeps the best rows).
    vetoed = {row.tobytes() for row in matrix.X_knobs[matrix.failed]}
    support: List[Tuple[float, ...]] = []
    seen = set(vetoed)
    for idx in np.argsort(y, kind="stable"):
        key = X_knobs[idx].tobytes()
        if key in seen:
            continue
        seen.add(key)
        support.append(tuple(float(v) for v in X_knobs[idx]))
        if len(support) >= MAX_SUPPORT_ROWS:
            break

    return TrainedSurrogate(
        system_kind=matrix.system_kind,
        family=matrix.family,
        kb_version=tuple(kb_version),
        model_kind=chosen,
        model=model,
        fp_scaler=fp_scaler,
        knob_names=matrix.knob_names,
        metric_names=matrix.metric_names,
        importance=importance,
        top_knobs=top_knobs,
        holdout_rmse=holdout_rmse,
        n_rows=matrix.n_rows,
        n_failed=matrix.n_failed,
        n_sessions=matrix.n_sessions,
        anchors=dict(matrix.anchors),
        support_units=tuple(support),
    )
