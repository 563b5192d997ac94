"""The fidelity axis: cheap approximate evaluations of a system.

Multi-fidelity tuning (MFTune-style) screens most candidates on a cheap
approximation of the workload — a scaled-down dataset, a coarser
simulator resolution, a truncated run — and only pays full price for
the survivors.  This module makes "cheap approximation" a first-class
value:

* :class:`Fidelity` — a validated fraction in ``(0, 1]``; ``1.0`` is
  the real thing.
* :func:`with_fidelity` — wrap any :class:`~repro.core.system
  .SystemUnderTune` into a fidelity-pinned view whose every run
  measures the approximation.  Fidelity ``1.0`` returns the system
  itself, so the full-fidelity path is *literally* today's code path
  (byte-identical histories, pinned by digest parity tests).

The simulators are closed-form cost surfaces, so the approximation is
modelled rather than executed: a fidelity-``f`` run costs ``f`` times
the real runtime and lands within a deterministic relative error band
whose width grows as fidelity drops (``DISTORTION_AMPLITUDE * (1-f)``).
The error direction is a hash of the (workload, configuration) pair —
stable across processes, never drawn from an RNG — so low-fidelity
screens preserve the *rough* ranking of candidates while occasionally
misranking near-ties, exactly the trade successive halving is built to
survive.  Scaling is a per-measurement scalar multiply, so the
vectorized batch path (:meth:`run_batch_vectorized`) is bit-identical
to the scalar loop by construction, preserving the PR-6 parity
discipline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.core.system import SystemUnderTune, SystemWrapper
from repro.core.workload import Workload

__all__ = [
    "DISTORTION_AMPLITUDE",
    "Fidelity",
    "FidelitySystem",
    "fidelity_value",
    "scale_measurement",
    "with_fidelity",
]

#: Maximum relative error of a fidelity->0 measurement vs. ``f * true``.
#: At fidelity ``f`` the band is ``DISTORTION_AMPLITUDE * (1 - f)`` wide:
#: a 50% run lands within ~9%, a 25% run within ~13.5% of the scaled
#: truth.  Wide enough that screening is genuinely approximate, narrow
#: enough that successive halving promotes the right survivors.
DISTORTION_AMPLITUDE = 0.18


@dataclass(frozen=True)
class Fidelity:
    """A cheap-approximation level for one evaluation.

    ``value`` is the fraction of the real workload the run measures
    (scale factor / resolution / truncated-run fraction); it is also the
    fraction of a full run the evaluation charges to the budget.
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        v = float(self.value)
        if not math.isfinite(v) or not (0.0 < v <= 1.0):
            raise ValueError(f"fidelity must be in (0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def full(self) -> bool:
        return self.value >= 1.0


#: What fidelity-accepting APIs take: a bare float or a Fidelity.
FidelityLike = Union[float, Fidelity]


def fidelity_value(fidelity: FidelityLike) -> float:
    """Normalize and validate a fidelity into a float in ``(0, 1]``."""
    if isinstance(fidelity, Fidelity):
        return fidelity.value
    return Fidelity(float(fidelity)).value


def _distortion(workload_name: str, config: Configuration) -> float:
    """Deterministic approximation-error direction in ``[-1, 1]``.

    Hash-derived (sha256, never Python's salted ``hash()``) from the
    (workload, configuration) pair, so every process — serial, pooled,
    vectorized — agrees on how a given point misreads at low fidelity.
    """
    identity = config.identity()
    payload = f"{workload_name}\x1f{identity}" if identity else workload_name
    digest = hashlib.sha256(payload.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(2**64 - 1)
    return 2.0 * unit - 1.0


def scale_measurement(
    measurement: Measurement,
    fidelity: FidelityLike,
    workload: Workload,
    config: Configuration,
    amplitude: float = DISTORTION_AMPLITUDE,
) -> Measurement:
    """A fidelity-``f`` view of a full measurement.

    Successful runs: runtime becomes ``true * f * (1 + err)`` with
    ``err = amplitude * (1 - f) * u`` and ``u`` the deterministic
    per-point distortion — cheaper *and* blurrier as ``f`` drops.
    Failures stay failures (a config that crashes, crashes early too)
    with the partial elapsed time scaled.  Cost units scale by ``f`` in
    both cases.  Fidelity ``1.0`` returns the measurement unchanged —
    the same object, not a copy.

    Internal metric counters are passed through unscaled: they model
    sampled rates (hit ratios, spill fractions), and sub-fidelity
    observations never enter training data anyway.
    """
    f = fidelity_value(fidelity)
    if f >= 1.0:
        return measurement
    if measurement.failed:
        metrics = dict(measurement.metrics)
        elapsed = measurement.metric("elapsed_before_failure_s", 0.0)
        if math.isfinite(elapsed) and elapsed > 0:
            metrics["elapsed_before_failure_s"] = elapsed * f
        return Measurement(
            runtime_s=math.inf,
            metrics=metrics,
            failed=True,
            cost_units=measurement.cost_units * f,
        )
    if not math.isfinite(measurement.runtime_s):
        # A hung success: still hung at any fidelity.
        return Measurement(
            runtime_s=measurement.runtime_s,
            metrics=measurement.metrics,
            failed=False,
            cost_units=measurement.cost_units * f,
        )
    err = amplitude * (1.0 - f) * _distortion(workload.name, config)
    runtime = measurement.runtime_s * f * max(0.0, 1.0 + err)
    return Measurement(
        runtime_s=runtime,
        metrics=measurement.metrics,
        failed=False,
        cost_units=measurement.cost_units * f,
    )


class FidelitySystem(SystemWrapper):
    """A fidelity-pinned view over another system.

    Every run executes the inner system (keeping its caches, counters,
    noise pipeline, and vectorized kernels intact) and returns the
    fidelity-scaled measurement.  The wrapper is a *view*: it holds no
    mutable state of its own, so many fidelity views can share one
    instrumented system without disturbing each other.
    """

    def __init__(
        self,
        inner: SystemUnderTune,
        fidelity: FidelityLike,
        amplitude: float = DISTORTION_AMPLITUDE,
    ):
        f = fidelity_value(fidelity)
        if f >= 1.0:
            raise ValueError(
                "FidelitySystem models sub-fidelity views; "
                "use with_fidelity() which returns the system itself at 1.0"
            )
        super().__init__(inner, name=f"{inner.name}@f{f:g}")
        self.fidelity = f
        self.amplitude = float(amplitude)

    def execution_context(self) -> Tuple[str, ...]:
        return (f"fidelity={self.fidelity!r}",) + self.inner.execution_context()

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        return scale_measurement(
            self.inner.run(workload, config),
            self.fidelity, workload, config, self.amplitude,
        )

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        # Delegate to the inner batch path (vectorized kernel / pool /
        # noise replay), then scale elementwise — a scalar multiply per
        # measurement, so vectorized and serial inner paths stay
        # bit-identical after scaling too.
        return [
            scale_measurement(m, self.fidelity, workload, c, self.amplitude)
            for m, c in zip(self.inner.run_batch(workload, configs), configs)
        ]

    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        return [
            scale_measurement(m, self.fidelity, workload, c, self.amplitude)
            for m, c in zip(
                self.inner.run_batch_vectorized(workload, configs), configs
            )
        ]


def with_fidelity(
    system: SystemUnderTune,
    fidelity: FidelityLike,
    amplitude: float = DISTORTION_AMPLITUDE,
) -> SystemUnderTune:
    """A fidelity-``f`` view of ``system``.

    Fidelity ``1.0`` returns ``system`` itself — not a wrapper — so the
    full-fidelity path cannot diverge from current behaviour even in
    principle.  Fidelity is absolute, not relative: re-pinning an
    existing :class:`FidelitySystem` re-wraps its *inner* system at the
    requested level rather than compounding.
    """
    f = fidelity_value(fidelity)
    if isinstance(system, FidelitySystem):
        system = system.inner
    if f >= 1.0:
        return system
    return FidelitySystem(system, f, amplitude=amplitude)
