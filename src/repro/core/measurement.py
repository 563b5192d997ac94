"""Measurements, observations, and tuning histories.

A :class:`Measurement` is what a system run produces: a primary runtime
plus a bag of internal metrics (the "DBMS metrics" OtterTune-style
pipelines consume).  An :class:`Observation` ties a configuration to its
measurement and records provenance (real run vs. model prediction).  A
:class:`TuningHistory` accumulates observations and exposes the
incumbent trajectory used by convergence analyses.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import Configuration

__all__ = ["Measurement", "Observation", "TuningHistory", "history_digest"]

REAL = "real"
MODEL = "model"


@dataclass(frozen=True)
class Measurement:
    """The outcome of executing a workload under one configuration.

    Attributes:
        runtime_s: primary objective — wall-clock seconds (lower is
            better).  ``math.inf`` for failed runs.
        metrics: internal counters sampled during the run (buffer hit
            ratios, spill bytes, GC seconds, ...).  Keys are stable per
            system so learning pipelines can vectorize them.
        failed: True when the run crashed or violated a hard limit
            (e.g., out-of-memory); runtime_s is inf in that case.
        cost_units: abstract resource cost of the run (e.g., node-hours),
            used by cloud-cost analyses.
    """

    runtime_s: float
    metrics: Mapping[str, float] = field(default_factory=dict)
    failed: bool = False
    cost_units: float = 0.0

    def __post_init__(self) -> None:
        if self.failed and not math.isinf(self.runtime_s):
            object.__setattr__(self, "runtime_s", math.inf)
        if not self.failed and (self.runtime_s < 0 or math.isnan(self.runtime_s)):
            raise ValueError(f"invalid runtime: {self.runtime_s}")

    @property
    def ok(self) -> bool:
        return not self.failed

    def metric(self, name: str, default: float = 0.0) -> float:
        return float(self.metrics.get(name, default))

    def metric_vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.metric(n) for n in names], dtype=float)

    @staticmethod
    def failure(cost_units: float = 0.0) -> "Measurement":
        return Measurement(runtime_s=math.inf, failed=True, cost_units=cost_units)


@dataclass(frozen=True)
class Observation:
    """A (configuration, measurement) pair with provenance.

    Attributes:
        source: ``"real"`` for actual system runs, ``"model"`` for
            predictions; budget accounting only charges real runs.
        tag: free-form label tuners may attach (e.g., "lhs-init",
            "ei-step-3") for post-hoc analysis of search behaviour.
        workload: name of the workload executed; distinguishes probe
            runs on sampled/alternate workloads from the session's own.
        fidelity: fraction of the real workload this run measured
            (1.0 = a full run).  Sub-fidelity screening observations
            carry their fraction so budget replays charge them
            correctly; they are excluded from incumbent selection and
            training data (:meth:`TuningHistory.successful`).
    """

    config: Configuration
    measurement: Measurement
    source: str = REAL
    tag: str = ""
    workload: str = ""
    fidelity: float = 1.0

    @property
    def runtime_s(self) -> float:
        return self.measurement.runtime_s

    @property
    def ok(self) -> bool:
        return self.measurement.ok

    @property
    def full_fidelity(self) -> bool:
        return self.fidelity >= 1.0


class TuningHistory:
    """Ordered record of everything a tuning session observed."""

    def __init__(self) -> None:
        self._observations: List[Observation] = []

    def record(self, observation: Observation) -> None:
        self._observations.append(observation)

    def extend(self, observations: Sequence[Observation]) -> None:
        """Record several observations in order (KB replay, merges)."""
        self._observations.extend(observations)

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __getitem__(self, idx: int) -> Observation:
        return self._observations[idx]

    @property
    def observations(self) -> List[Observation]:
        return list(self._observations)

    def real_observations(self) -> List[Observation]:
        return [o for o in self._observations if o.source == REAL]

    def successful(self) -> List[Observation]:
        """Successful *full-fidelity* real observations.

        Low-fidelity screening runs measure a scaled approximation of
        the workload; their runtimes live on a different scale and must
        never become incumbents or training data.  Raw access
        (including screens) stays available via
        :meth:`real_observations`.
        """
        return [
            o for o in self._observations
            if o.source == REAL and o.ok and o.full_fidelity
        ]

    def finite_successful(self) -> List[Observation]:
        """Successful real observations with *finite* runtimes.

        A hung run reports success with unbounded runtime; it must never
        become the incumbent or enter model training data.
        """
        return [o for o in self.successful() if math.isfinite(o.runtime_s)]

    def best(self) -> Optional[Observation]:
        """The best successful real observation (minimum finite runtime)."""
        candidates = self.finite_successful()
        if not candidates:
            return None
        return min(candidates, key=lambda o: o.runtime_s)

    def best_runtime(self) -> float:
        best = self.best()
        return best.runtime_s if best else math.inf

    def incumbent_trajectory(self) -> List[Tuple[int, float]]:
        """(real-run index, best-runtime-so-far) pairs, 1-based index.

        Failed runs advance the index without improving the incumbent;
        this is the curve convergence plots use.
        """
        trajectory: List[Tuple[int, float]] = []
        best = math.inf
        idx = 0
        for obs in self._observations:
            if obs.source != REAL:
                continue
            idx += 1
            if obs.ok and obs.full_fidelity and obs.runtime_s < best:
                best = obs.runtime_s
            trajectory.append((idx, best))
        return trajectory

    def charged_trajectory(self) -> List[Tuple[float, float]]:
        """(charged-budget-so-far, best-runtime-so-far) pairs.

        The fidelity-aware sibling of :meth:`incumbent_trajectory`:
        every real observation advances the charge axis by its fidelity
        (a 25% screen costs 0.25 runs), while only full-fidelity
        successes can improve the incumbent.  This is the curve
        multi-fidelity benches score — evals-to-threshold measured in
        *charged* budget, not run count.
        """
        trajectory: List[Tuple[float, float]] = []
        best = math.inf
        charged = 0.0
        for obs in self._observations:
            if obs.source != REAL:
                continue
            charged += obs.fidelity
            if obs.ok and obs.full_fidelity and obs.runtime_s < best:
                best = obs.runtime_s
            trajectory.append((charged, best))
        return trajectory

    def total_runtime_s(self) -> float:
        """Wall-clock spent executing real experiments (failed runs are
        charged their cost as recorded metrics, not inf)."""
        total = 0.0
        for o in self.real_observations():
            if o.ok:
                total += o.runtime_s
            else:
                total += o.measurement.metric("elapsed_before_failure_s", 0.0)
        return total

    def to_arrays(self, metric_names: Sequence[str] = ()) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorize successful real observations.

        Returns:
            (X, y, M): unit-scaled configs, runtimes, metric matrix
            (one row per observation, columns following metric_names).
        """
        obs = self.finite_successful()
        if not obs:
            dim = 0
            return (np.zeros((0, dim)), np.zeros(0), np.zeros((0, len(metric_names))))
        X = np.stack([o.config.to_array() for o in obs])
        y = np.array([o.runtime_s for o in obs], dtype=float)
        M = np.stack([o.measurement.metric_vector(metric_names) for o in obs]) if metric_names else np.zeros((len(obs), 0))
        return X, y, M

    def summary(self) -> Dict[str, Any]:
        real = self.real_observations()
        return {
            "n_observations": len(self._observations),
            "n_real_runs": len(real),
            "n_failures": sum(1 for o in real if not o.ok),
            "best_runtime_s": self.best_runtime(),
            "total_experiment_time_s": self.total_runtime_s(),
        }

    def digest(self) -> str:
        """Execution-order fingerprint of this history; see
        :func:`history_digest`."""
        return history_digest(self)


def history_digest(history: "TuningHistory") -> str:
    """Deterministic fingerprint of a tuning history.

    Hashes every observation in recorded order — provenance, tag,
    workload, the exact configuration array bytes, the runtime repr,
    the failure flag, and all metrics (sorted by name).  Two histories
    share a digest iff the search observed the same things in the same
    order, which is the equivalence the parallel/caching layers promise:
    serial, batched, and cached execution of one tuner must all land on
    the same digest.
    """
    h = hashlib.sha256()
    for obs in history:
        h.update(obs.source.encode())
        h.update(b"\x00")
        h.update(obs.tag.encode())
        h.update(b"\x00")
        h.update(obs.workload.encode())
        h.update(b"\x00")
        if obs.fidelity != 1.0:
            # Hashed only for sub-fidelity rows so every pre-fidelity
            # digest (and the fidelity=1.0 path today) stays unchanged.
            h.update(b"f")
            h.update(repr(float(obs.fidelity)).encode())
            h.update(b"\x00")
        h.update(np.asarray(obs.config.to_array(), dtype=float).tobytes())
        h.update(repr(obs.measurement.runtime_s).encode())
        h.update(b"\x01" if obs.measurement.failed else b"\x00")
        for name in sorted(obs.measurement.metrics):
            h.update(name.encode())
            h.update(b"=")
            h.update(repr(float(obs.measurement.metrics[name])).encode())
            h.update(b";")
        h.update(b"\x02")
    return h.hexdigest()[:16]
