"""Resilient execution policies: deadlines, retries, circuit breaking.

Production tuning survives on failure handling, not model quality:
OnlineTune-style systems devote most of their engineering to safe
execution.  This module is the harness's version of that layer — a
declarative :class:`ExecutionPolicy` the
:class:`~repro.core.session.TuningSession` enforces on every real run:

* **per-run deadline** — a run that exceeds ``deadline_s`` (stragglers
  gone pathological, outright hangs) is killed: converted to a failure
  charged exactly ``deadline_s`` of wall-clock;
* **retry with exponential backoff** — failures marked as
  *environmental* (the ``injected_fault`` metric) are retried up to
  ``max_retries`` times, with a backoff that doubles per retry up to
  :data:`MAX_BACKOFF_S`; every attempt and its backoff is charged to
  the budget, because real clusters bill you for crashed runs too;
* **circuit breaker** — after ``breaker_threshold`` consecutive
  *config-correlated* failures inside one quantized region of the knob
  space, the region is quarantined: further proposals there are skipped
  without burning wall-clock — the OOM-cliff mitigation;
* **failure policy** — how failed/NaN measurements enter surrogate
  models: ``penalize`` (large finite penalty, the historical default),
  ``discard`` (train on successes only), or ``impute`` (median of the
  successes).

Everything is off by default; a session without an explicit policy
behaves exactly as before this layer existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.measurement import Measurement
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event

__all__ = [
    "FAILURE_POLICIES",
    "PENALIZE",
    "DISCARD",
    "IMPUTE",
    "BACKOFF_FACTOR",
    "BREAKER_RESOLUTION",
    "MAX_BACKOFF_S",
    "ExecutionPolicy",
    "CircuitBreaker",
    "enforce_deadline",
]

PENALIZE = "penalize"
DISCARD = "discard"
IMPUTE = "impute"

#: Valid strategies for feeding failed runs to surrogate models.
FAILURE_POLICIES = (PENALIZE, DISCARD, IMPUTE)

#: Each retry's backoff is this many times the previous one's ...
BACKOFF_FACTOR = 2.0
#: ... up to this cap, in seconds.
MAX_BACKOFF_S = 60.0
#: Grid cells per knob dimension of a circuit breaker's regions.
BREAKER_RESOLUTION = 4


@dataclass(frozen=True)
class ExecutionPolicy:
    """Declarative resilience settings for a tuning session.

    Attributes:
        deadline_s: kill any run whose reported runtime exceeds this
            (``None`` disables; hangs report infinite runtime, so any
            finite deadline catches them).
        max_retries: how many times an *environmental* failure of one
            configuration is retried.  0 disables.
        backoff_base_s: backoff charged before the first retry; each
            later retry's is :data:`BACKOFF_FACTOR` times the previous
            one's, capped at :data:`MAX_BACKOFF_S`.
        failure_policy: one of :data:`FAILURE_POLICIES` — how failures
            enter model training data (see
            :func:`repro.tuners.common.history_to_training_data`).
        breaker_threshold: consecutive config-correlated failures in one
            region before it is quarantined (``None`` disables).  A
            proposal into a quarantined region is skipped: it records a
            synthetic failure, charging a run but no wall-clock.
    """

    deadline_s: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 1.0
    failure_policy: str = PENALIZE
    breaker_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * BACKOFF_FACTOR ** attempt, MAX_BACKOFF_S
        )


def enforce_deadline(
    measurement: Measurement, deadline_s: Optional[float]
) -> Measurement:
    """The per-run deadline rule, for session runs and fleet monitors.

    A successful run whose runtime exceeds ``deadline_s`` is killed:
    it becomes a failure with ``elapsed_before_failure_s`` set to the
    deadline and ``deadline_exceeded`` set.  The kill keeps the run's
    ``cost_units`` unless they are non-finite or negative; then it is
    charged ``deadline_s / 3600``.  Any other measurement, and every
    measurement when ``deadline_s`` is ``None``, is returned as it is.
    """
    if (
        deadline_s is None
        or not measurement.ok
        or measurement.runtime_s <= deadline_s
    ):
        return measurement
    metrics = dict(measurement.metrics)
    metrics["elapsed_before_failure_s"] = deadline_s
    metrics["deadline_exceeded"] = 1.0
    cost = measurement.cost_units
    if not math.isfinite(cost) or cost < 0:
        cost = deadline_s / 3600.0
    return Measurement(
        runtime_s=math.inf, metrics=metrics, failed=True, cost_units=cost,
    )


class CircuitBreaker:
    """Quarantine knob-space regions that keep failing.

    Configurations are quantized to a coarse grid cell over every knob
    (:data:`BREAKER_RESOLUTION` cells per dimension); ``threshold``
    consecutive config-correlated failures in one cell open the circuit
    for that cell.  Environmental failures (marked
    ``injected_fault``) never trip the breaker — a transient fault says
    nothing about the region.

    By default an open circuit stays open forever.  Long-running loops
    (the fleet controller) can opt into a *half-open* recovery mode with
    ``cooldown_runs``: once that many further runs have been recorded
    since the region opened, the next ``is_open`` check grants exactly
    one probe — it reports the circuit closed for that single proposal.
    A successful probe closes the circuit; a config-correlated probe
    failure re-opens it and re-arms the cooldown; an environmental probe
    failure is inconclusive and simply releases the probe slot.

    Args:
        threshold: consecutive failures that open a cell's circuit.
        cooldown_runs: recorded runs after which an open region admits
            one probe config (``None``, the default, keeps regions
            quarantined forever — the historical behavior).
    """

    def __init__(
        self,
        threshold: int,
        cooldown_runs: Optional[int] = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_runs is not None and cooldown_runs < 1:
            raise ValueError("cooldown_runs must be >= 1")
        self.threshold = threshold
        self.cooldown_runs = cooldown_runs
        self._consecutive: Dict[Tuple[int, ...], int] = {}
        self._open: set = set()
        self._runs = 0
        self._opened_at: Dict[Tuple[int, ...], int] = {}
        self._probing: set = set()
        self.trips = 0

    def region(self, config) -> Tuple[int, ...]:
        """The quantized grid cell a configuration falls in."""
        res = BREAKER_RESOLUTION
        return tuple(
            min(int(float(u) * res), res - 1) for u in config.to_array()
        )

    def is_open(self, config) -> bool:
        """Whether ``config``'s region is quarantined right now.

        In half-open mode this call has a side effect: once the cooldown
        has elapsed it grants a single probe (returns ``False`` exactly
        once; further checks report open until the probe's outcome is
        recorded).  Use :meth:`would_block` for a side-effect-free view.
        """
        region = self.region(config)
        if region not in self._open:
            return False
        if not self._cooldown_elapsed(region):
            return True
        # Half-open: admit one probe config into the region.
        self._probing.add(region)
        global_metrics().inc("resilience.breaker_probes")
        obs_event("breaker.half_open", region=str(region))
        return False

    def would_block(self, config) -> bool:
        """Side-effect-free version of :meth:`is_open`.

        Guardrail layers use this to pre-vet proposals without consuming
        the half-open probe slot the executing session will claim.
        """
        region = self.region(config)
        return region in self._open and not self._cooldown_elapsed(region)

    def _cooldown_elapsed(self, region: Tuple[int, ...]) -> bool:
        if self.cooldown_runs is None or region in self._probing:
            return False
        opened_at = self._opened_at.get(region, self._runs)
        return self._runs - opened_at >= self.cooldown_runs

    def record(self, config, measurement) -> None:
        """Account one real execution's outcome for ``config``'s region.

        Successes reset the region's failure streak (and, for a granted
        half-open probe, close the circuit; without ``cooldown_runs`` an
        open circuit never closes — a quarantined cliff stays
        quarantined).  Failures marked as environmental are ignored,
        except that they release a pending probe slot (inconclusive).
        """
        self._runs += 1
        region = self.region(config)
        if measurement.ok:
            self._consecutive[region] = 0
            if region in self._probing:
                self._probing.discard(region)
                self._open.discard(region)
                self._opened_at.pop(region, None)
                global_metrics().inc("resilience.breaker_closes")
                obs_event("breaker.close", region=str(region))
            return
        if measurement.metric("injected_fault", 0.0) > 0:
            # Environmental: says nothing about the region, but a probe
            # burned on it is inconclusive — release the slot.
            self._probing.discard(region)
            return
        if region in self._probing:
            # Probe failed for config-correlated reasons: re-open and
            # re-arm the cooldown clock.
            self._probing.discard(region)
            self._opened_at[region] = self._runs
            self._consecutive[region] = self.threshold
            global_metrics().inc("resilience.breaker_reopens")
            obs_event("breaker.reopen", region=str(region))
            return
        count = self._consecutive.get(region, 0) + 1
        self._consecutive[region] = count
        if count >= self.threshold and region not in self._open:
            self._open.add(region)
            self._opened_at[region] = self._runs
            self.trips += 1
            global_metrics().inc("resilience.breaker_trips")
            obs_event("breaker.open", region=str(region),
                      consecutive_failures=count)

    @property
    def open_regions(self) -> List[Tuple[int, ...]]:
        return sorted(self._open)

    def reset(self) -> None:
        self._consecutive.clear()
        self._open.clear()
        self._opened_at.clear()
        self._probing.clear()
        self._runs = 0
        self.trips = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "resolution": BREAKER_RESOLUTION,
            "open_regions": len(self._open),
            "trips": self.trips,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Snapshot the breaker's mutable state (checkpoint support)."""
        return {
            "kind": "circuit_breaker",
            "threshold": self.threshold,
            "cooldown_runs": self.cooldown_runs,
            "runs": self._runs,
            "trips": self.trips,
            "consecutive": [
                [list(region), count]
                for region, count in sorted(self._consecutive.items())
            ],
            "open": [list(region) for region in sorted(self._open)],
            "opened_at": [
                [list(region), at]
                for region, at in sorted(self._opened_at.items())
            ],
            "probing": [list(region) for region in sorted(self._probing)],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "CircuitBreaker":
        """Restore a snapshot.  Older snapshots also carry ``resolution``
        and ``knobs``, which were always 4 and every knob; they load
        with those keys ignored."""
        if payload.get("kind") != "circuit_breaker":
            raise ValueError(
                f"not a circuit_breaker payload: {payload.get('kind')!r}"
            )
        breaker = cls(
            threshold=payload["threshold"],
            cooldown_runs=payload["cooldown_runs"],
        )
        breaker._runs = int(payload["runs"])
        breaker.trips = int(payload["trips"])
        breaker._consecutive = {
            tuple(region): int(count) for region, count in payload["consecutive"]
        }
        breaker._open = {tuple(region) for region in payload["open"]}
        breaker._opened_at = {
            tuple(region): int(at) for region, at in payload["opened_at"]
        }
        breaker._probing = {tuple(region) for region in payload["probing"]}
        return breaker

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CircuitBreaker(threshold={self.threshold}, "
            f"open={len(self._open)})"
        )
