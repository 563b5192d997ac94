"""Workload fingerprinting and similarity search.

A *fingerprint* is a cheap characterization of a workload on a system:
the internal metric vector plus runtime of a single probe run at the
vendor-default configuration.  Default-config runs are what every tuner
executes first anyway, so a fingerprint costs nothing extra inside a
tuning session and one deterministic simulator run outside of one.

Two similarity mechanisms live here:

* :func:`rank_similar` — nearest-neighbor search over stored session
  fingerprints (standardized metric space plus a log-runtime-ratio
  term).  This is the knowledge base's cross-workload index: it works
  for *any* system kind because it only needs the metric bag every
  :class:`~repro.core.measurement.Measurement` carries.
* :func:`map_workload` — OtterTune's per-configuration workload mapping
  (GP-predicted metric deltas at the target's observed configurations),
  generalized out of the DBMS-specific tuner so any repository-style
  dataset can use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurement import Measurement, TuningHistory
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.scaler import StandardScaler

__all__ = [
    "WorkloadFingerprint",
    "probe_fingerprint",
    "fingerprint_from_history",
    "rank_similar",
    "map_workload",
]


@dataclass(frozen=True)
class WorkloadFingerprint:
    """Probe-run characterization of (system, workload).

    Attributes:
        metrics: the probe measurement's metric bag (finite values only).
        probe_runtime_s: default-configuration runtime; the scale anchor
            used to transfer runtimes between workloads.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    probe_runtime_s: float = math.inf

    def vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array([float(self.metrics.get(n, 0.0)) for n in names],
                        dtype=float)

    def to_jsonable(self) -> Dict[str, Any]:
        runtime = self.probe_runtime_s
        return {
            "metrics": dict(self.metrics),
            "probe_runtime_s": "inf" if math.isinf(runtime) else runtime,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "WorkloadFingerprint":
        runtime = payload.get("probe_runtime_s", "inf")
        return cls(
            metrics={k: float(v) for k, v in payload.get("metrics", {}).items()},
            probe_runtime_s=math.inf if runtime == "inf" else float(runtime),
        )

    @classmethod
    def parse(cls, payload: Any) -> "WorkloadFingerprint":
        """:meth:`from_jsonable` for a document from outside (an
        ``/ingest`` payload, a ``/recommend`` request).

        Raises ``TypeError`` unless ``payload`` and its ``metrics`` are
        objects, and ``ValueError`` for a number that does not parse or
        a metric that is not finite: a ``nan`` metric makes every
        distance ``nan``, and ranking by it is arbitrary.
        """
        if not isinstance(payload, Mapping):
            raise TypeError("fingerprint must be an object")
        if not isinstance(payload.get("metrics", {}), Mapping):
            raise TypeError("fingerprint metrics must be an object")
        try:
            fingerprint = cls.from_jsonable(payload)
        except OverflowError as exc:  # a 400-digit integer
            raise ValueError(f"fingerprint number out of range: {exc}") from None
        bad = sorted(
            name for name, value in fingerprint.metrics.items()
            if not math.isfinite(value)
        )
        if bad:
            raise ValueError(f"fingerprint metrics must be finite: {bad}")
        return fingerprint


def _fingerprint_of(measurement: Measurement) -> WorkloadFingerprint:
    metrics = {
        k: float(v) for k, v in measurement.metrics.items()
        if math.isfinite(float(v))
    }
    runtime = measurement.runtime_s
    if not (measurement.ok and math.isfinite(runtime)):
        runtime = math.inf
    return WorkloadFingerprint(metrics=metrics, probe_runtime_s=runtime)


def probe_fingerprint(
    system: SystemUnderTune, workload: Workload
) -> WorkloadFingerprint:
    """Fingerprint by one default-configuration probe run.

    Simulators are deterministic, so this is exactly the measurement a
    tuner's opening ``evaluate(default)`` would produce; like OtterTune
    repository construction, probe runs model data that exists outside
    any budgeted session.
    """
    measurement = system.run(workload, system.default_configuration())
    return _fingerprint_of(measurement)


def fingerprint_from_history(history: TuningHistory) -> Optional[WorkloadFingerprint]:
    """Recover a fingerprint from a recorded session, if possible.

    Prefers the ``default``-tagged observation (the conventional opening
    probe); falls back to the first finite successful observation.
    Returns ``None`` for histories with no usable run.
    """
    candidates = history.finite_successful()
    if not candidates:
        return None
    for obs in candidates:
        if obs.tag == "default":
            return _fingerprint_of(obs.measurement)
    return _fingerprint_of(candidates[0].measurement)


def rank_similar(
    target: WorkloadFingerprint,
    candidates: Sequence[Tuple[Any, WorkloadFingerprint]],
) -> List[Tuple[Any, float]]:
    """Order candidate fingerprints by distance to the target.

    The |log runtime ratio| term weighs as much as one standardized
    metric dimension.  Runtime scale is the strongest single similarity
    signal across workloads of one system; metric *shape* breaks ties
    within a scale band.

    Args:
        target: the workload being tuned.
        candidates: (key, fingerprint) pairs — keys are opaque (session
            records, names, ids) and come back attached to distances.

    Returns:
        (key, distance) pairs sorted ascending by distance.
    """
    if not candidates:
        return []
    names = sorted(target.metrics)
    rows = [fp.vector(names) for _, fp in candidates]
    matrix = np.vstack(rows + [target.vector(names)]) if names else np.zeros(
        (len(rows) + 1, 0)
    )
    if names:
        matrix = StandardScaler().fit_transform(matrix)
    target_row = matrix[-1]
    dim = max(len(names), 1)
    scored: List[Tuple[Any, float]] = []
    for (key, fp), row in zip(candidates, matrix[:-1]):
        metric_d2 = float(np.mean((row - target_row) ** 2)) if names else 0.0
        if (
            math.isfinite(target.probe_runtime_s)
            and math.isfinite(fp.probe_runtime_s)
            and target.probe_runtime_s > 0
            and fp.probe_runtime_s > 0
        ):
            ratio = math.log(fp.probe_runtime_s / target.probe_runtime_s)
        else:
            ratio = 4.0  # unknown scale: heavily penalized, never excluded
        distance = math.sqrt(metric_d2 + ratio * ratio / dim)
        scored.append((key, distance))
    scored.sort(key=lambda kv: kv[1])
    return scored


def map_workload(
    target_X: np.ndarray,
    target_M: np.ndarray,
    pruned: Sequence[int],
    workloads: Sequence[Any],
) -> Optional[Any]:
    """OtterTune's workload mapping, system-agnostic.

    For each candidate workload (any object with ``X`` — unit-scaled
    configs — and ``metrics`` — the metric matrix), fit one GP per
    pruned metric on the candidate's data, predict the metric values at
    the *target's observed configurations*, and score the candidate by
    mean squared deviation from the target's observed metrics.  Returns
    the closest candidate, or ``None`` when nothing can be scored.
    """
    workloads = list(workloads)
    if not workloads or len(target_X) == 0 or not pruned:
        return None
    pruned = list(pruned)
    all_M = np.vstack([w.metrics for w in workloads])
    scaler = StandardScaler().fit(all_M[:, pruned])
    target_Z = scaler.transform(target_M[:, pruned])
    best_dist, best = np.inf, None
    for wdata in workloads:
        repo_Z = scaler.transform(wdata.metrics[:, pruned])
        dists = []
        for j in range(len(pruned)):
            gp = GaussianProcess(optimize=False)
            try:
                gp.fit(wdata.X, repo_Z[:, j])
            except Exception:
                continue
            pred, _ = gp.predict(target_X)
            dists.append(np.mean((pred - target_Z[:, j]) ** 2))
        if not dists:
            continue
        d = float(np.mean(dists))
        if d < best_dist:
            best_dist, best = d, wdata
    return best
