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
  ``max_retries`` times; every attempt and its backoff is charged to
  the budget, because real clusters bill you for crashed runs too;
* **circuit breaker** — after ``breaker_threshold`` consecutive
  *config-correlated* failures inside one quantized region of the knob
  space, the region is quarantined: further proposals there are skipped
  (or raise :class:`~repro.exceptions.CircuitOpen`) without burning
  wall-clock — the OOM-cliff mitigation;
* **failure policy** — how failed/NaN measurements enter surrogate
  models: ``penalize`` (large finite penalty, the historical default),
  ``discard`` (train on successes only), or ``impute`` (median of the
  successes).

Everything is off by default; a session without an explicit policy
behaves exactly as before this layer existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event

__all__ = [
    "FAILURE_POLICIES",
    "PENALIZE",
    "DISCARD",
    "IMPUTE",
    "ExecutionPolicy",
    "CircuitBreaker",
]

PENALIZE = "penalize"
DISCARD = "discard"
IMPUTE = "impute"

#: Valid strategies for feeding failed runs to surrogate models.
FAILURE_POLICIES = (PENALIZE, DISCARD, IMPUTE)

_QUARANTINE_MODES = ("skip", "raise")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Declarative resilience settings for a tuning session.

    Attributes:
        deadline_s: kill any run whose reported runtime exceeds this
            (``None`` disables; hangs report infinite runtime, so any
            finite deadline catches them).
        max_retries: how many times an *environmental* failure of one
            configuration is retried.  0 disables.
        backoff_base_s: backoff charged before the first retry.
        backoff_factor: multiplier per subsequent retry.
        max_backoff_s: backoff cap.
        failure_policy: one of :data:`FAILURE_POLICIES` — how failures
            enter model training data (see
            :func:`repro.tuners.common.history_to_training_data`).
        breaker_threshold: consecutive config-correlated failures in one
            region before it is quarantined (``None`` disables).
        breaker_resolution: quantization grid per knob dimension for
            region bookkeeping.
        breaker_knobs: knob names spanning the breaker's subspace
            (default: every knob).
        on_quarantine: ``"skip"`` records a synthetic failure for
            quarantined proposals (charging a run but no wall-clock);
            ``"raise"`` surfaces :class:`~repro.exceptions.CircuitOpen`.
    """

    deadline_s: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 60.0
    failure_policy: str = PENALIZE
    breaker_threshold: Optional[int] = None
    breaker_resolution: int = 4
    breaker_knobs: Optional[Tuple[str, ...]] = None
    on_quarantine: str = "skip"

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff_base_s >= 0 and backoff_factor >= 1")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_resolution < 1:
            raise ValueError("breaker_resolution must be >= 1")
        if self.on_quarantine not in _QUARANTINE_MODES:
            raise ValueError(
                f"on_quarantine must be one of {_QUARANTINE_MODES}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Backoff charged before retry number ``attempt`` (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.max_backoff_s,
        )


class CircuitBreaker:
    """Quarantine knob-space regions that keep failing.

    Configurations are quantized to a coarse grid cell per tracked knob;
    ``threshold`` consecutive config-correlated failures in one cell
    open the circuit for that cell.  Environmental failures (marked
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
        resolution: grid cells per knob dimension.
        knobs: knob names to track (default: all knobs of whatever
            configurations are recorded).
        cooldown_runs: recorded runs after which an open region admits
            one probe config (``None``, the default, keeps regions
            quarantined forever — the historical behavior).
    """

    def __init__(
        self,
        threshold: int,
        resolution: int = 4,
        knobs: Optional[Sequence[str]] = None,
        cooldown_runs: Optional[int] = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        if cooldown_runs is not None and cooldown_runs < 1:
            raise ValueError("cooldown_runs must be >= 1")
        self.threshold = threshold
        self.resolution = resolution
        self.knobs = tuple(knobs) if knobs else None
        self.cooldown_runs = cooldown_runs
        self._consecutive: Dict[Tuple[int, ...], int] = {}
        self._open: set = set()
        self._runs = 0
        self._opened_at: Dict[Tuple[int, ...], int] = {}
        self._probing: set = set()
        self.trips = 0

    def region(self, config) -> Tuple[int, ...]:
        """The quantized grid cell a configuration falls in."""
        arr = config.to_array()
        if self.knobs is None:
            indices: List[int] = list(range(len(arr)))
        else:
            names = config.space.names()
            indices = [names.index(k) for k in self.knobs if k in names]
        res = self.resolution
        return tuple(
            min(int(float(arr[j]) * res), res - 1) for j in indices
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
            "resolution": self.resolution,
            "open_regions": len(self._open),
            "trips": self.trips,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Snapshot the breaker's mutable state (checkpoint support)."""
        return {
            "kind": "circuit_breaker",
            "threshold": self.threshold,
            "resolution": self.resolution,
            "knobs": list(self.knobs) if self.knobs is not None else None,
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
        if payload.get("kind") != "circuit_breaker":
            raise ValueError(
                f"not a circuit_breaker payload: {payload.get('kind')!r}"
            )
        breaker = cls(
            threshold=payload["threshold"],
            resolution=payload["resolution"],
            knobs=payload["knobs"],
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
