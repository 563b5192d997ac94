"""Composable fault-injection policies.

Real clusters fail in richer ways than a per-run coin flip: failures
arrive in *bursts* (a bad rack stays bad for a while), runs *straggle*
(heavy-tailed slowdowns from contention), runs *hang* (only a deadline
recovers them), metric pipelines *drop or corrupt* samples, and whole
regions of the knob space fail deterministically (OOM cliffs).  Each of
those is one :class:`FaultPolicy`; a
:class:`~repro.chaos.system.ChaosSystem` applies an ordered list of
them to every measurement.

Determinism is the load-bearing property: every random decision for run
``index`` is drawn from a generator derived purely from
``(seed, index, policy-slot)``, never from a shared sequential stream.
Serial and batched execution therefore inject *identical* fault
sequences (one shared sequential RNG could not: a batched path that
computes inner measurements concurrently would not replay injection
identically — see ``tests/test_chaos_policies.py``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.core.workload import Workload

__all__ = [
    "FaultContext",
    "FaultPolicy",
    "TransientFaults",
    "BurstyFaults",
    "Stragglers",
    "Hangs",
    "MetricCorruption",
    "ConfigBlackout",
    "standard_policies",
]

#: Metric key marking a failure as environmental (retryable): the
#: configuration did nothing wrong, the environment killed the run.
INJECTED_FAULT_KEY = "injected_fault"

#: Metric key marking a failure as config-correlated (an OOM-cliff-style
#: region failure): retrying the same configuration fails again, so the
#: circuit breaker — not retry — is the right mitigation.
CONFIG_FAULT_KEY = "config_fault"

#: Wall-clock seconds a transient or bursty failure wastes before dying.
FAULT_ELAPSED_S = 10.0
#: Wall-clock seconds a blacked-out run wastes.
BLACKOUT_ELAPSED_S = 5.0
#: Mean number of consecutive failures per burst.
BURST_LENGTH = 3.0
#: Pareto tail index of the straggler slowdown (smaller = heavier tail).
STRAGGLER_SHAPE = 1.6
#: Cap on the straggler slowdown multiple.
STRAGGLER_CAP = 20.0
#: Per-metric probabilities, given a corrupted run, that a metric comes
#: back NaN and that it is dropped entirely.
CORRUPT_NAN_SHARE = 0.3
CORRUPT_DROP_SHARE = 0.3


def _policy_rng(seed: int, index: int, slot: int) -> np.random.Generator:
    """Generator for one (run index, policy slot): order-independent.

    ``SeedSequence`` reads each non-negative int below 2**32 of a list
    as one 32-bit word, so a ``uint32`` array of the three gives the
    same generator and builds it faster; other values keep the list.
    """
    # the OR of ints is in [0, 2**32) exactly when each of them is
    if 0 <= seed | index | slot < 2**32:
        words = np.array([seed, index, slot], np.uint32)
        return np.random.default_rng(np.random.SeedSequence(words))
    return np.random.default_rng(np.random.SeedSequence([seed, index, slot]))


@dataclass
class FaultContext:
    """Everything a policy may consult when deciding about one run.

    Attributes:
        index: global injection slot — the how-many-th run this system
            has executed (batched execution assigns indices in batch
            order before running anything).
        config: the configuration being executed.
        workload: the workload being executed.
        seed: the owning chaos system's seed.
        slot: the applying policy's position in the policy list.
        state: mutable per-(system, policy) scratch space, for policies
            with cross-run structure (burst chains).
        events: injection events this run; the chaos system logs them.
    """

    index: int
    config: Configuration
    workload: Workload
    seed: int
    slot: int
    state: Dict[str, object]
    events: List[str] = field(default_factory=list)

    def rng(self, index: Optional[int] = None) -> np.random.Generator:
        """Deterministic generator for (seed, index, this policy)."""
        return _policy_rng(self.seed, self.index if index is None else index,
                           self.slot)


def injected_failure(
    partial_elapsed_s: float, cost_units: Optional[float] = None, **extra
) -> Measurement:
    """A failed measurement attributable to the environment."""
    metrics = {
        "elapsed_before_failure_s": partial_elapsed_s,
        INJECTED_FAULT_KEY: 1.0,
    }
    metrics.update(extra)
    return Measurement(
        runtime_s=math.inf,
        metrics=metrics,
        failed=True,
        cost_units=partial_elapsed_s / 3600.0 if cost_units is None else cost_units,
    )


class FaultPolicy(ABC):
    """One kind of environmental misbehaviour.

    Policies are stateless with respect to the systems applying them:
    any cross-run state lives in ``ctx.state`` (owned by the chaos
    system), so one policy instance can safely serve several wrapped
    systems.
    """

    name: str = "fault"

    @abstractmethod
    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        """Possibly transform ``measurement`` for run ``ctx.index``.

        Implementations must derive all randomness from ``ctx.rng()``
        and append a short event string to ``ctx.events`` whenever they
        fire.  Already-failed measurements should pass through.
        """

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


def _rate_checked(rate: float) -> float:
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    return rate


class TransientFaults(FaultPolicy):
    """Independent (Bernoulli) environmental failures.

    Args:
        rate: probability any one run fails, independent of all others.

    A failed run wastes :data:`FAULT_ELAPSED_S` before dying.
    """

    name = "transient"

    def __init__(self, rate: float):
        self.rate = _rate_checked(rate)

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if measurement.failed or self.rate <= 0.0:
            return measurement
        if float(ctx.rng().random()) < self.rate:
            ctx.events.append(self.name)
            return injected_failure(FAULT_ELAPSED_S)
        return measurement


class BurstyFaults(FaultPolicy):
    """Markov-correlated failure bursts (a bad rack stays bad a while).

    A two-state chain with stationary failure probability ``rate`` and
    mean burst length :data:`BURST_LENGTH`: once a run fails, the next
    run fails with probability ``1 - 1/BURST_LENGTH``.  The chain state
    for run ``i`` is a pure function of the per-index uniforms
    ``u_0..u_i``, so batched execution sees exactly the serial burst
    structure.  A failed run wastes :data:`FAULT_ELAPSED_S`.

    Args:
        rate: stationary (long-run) failure fraction.
    """

    name = "bursty"
    p_stay = 1.0 - 1.0 / BURST_LENGTH

    def __init__(self, rate: float):
        self.rate = _rate_checked(rate)
        # Stationary probability p = p_enter / (p_enter + 1 - p_stay).
        self.p_enter = min(
            self.rate * (1.0 - self.p_stay) / max(1.0 - self.rate, 1e-12), 1.0
        )

    def _failing_at(self, ctx: FaultContext) -> bool:
        states: List[bool] = ctx.state.setdefault("states", [])  # type: ignore[assignment]
        while len(states) <= ctx.index:
            i = len(states)
            u = float(ctx.rng(index=i).random())
            prev = states[i - 1] if i else False
            states.append(u < (self.p_stay if prev else self.p_enter))
        return states[ctx.index]

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if measurement.failed or self.rate <= 0.0:
            return measurement
        if self._failing_at(ctx):
            ctx.events.append(self.name)
            return injected_failure(FAULT_ELAPSED_S)
        return measurement


class Stragglers(FaultPolicy):
    """Heavy-tailed slowdowns: the run completes, just much later.

    The slowdown factor is ``1 + Pareto(STRAGGLER_SHAPE)``, capped at
    :data:`STRAGGLER_CAP`.

    Args:
        rate: probability a run straggles.
    """

    name = "straggler"

    def __init__(self, rate: float):
        self.rate = _rate_checked(rate)

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if (
            measurement.failed
            or self.rate <= 0.0
            or not math.isfinite(measurement.runtime_s)
        ):
            return measurement
        rng = ctx.rng()
        if float(rng.random()) >= self.rate:
            return measurement
        factor = min(1.0 + float(rng.pareto(STRAGGLER_SHAPE)), STRAGGLER_CAP)
        ctx.events.append(f"{self.name} x{factor:.2f}")
        metrics = dict(measurement.metrics)
        metrics["straggler_factor"] = factor
        return Measurement(
            runtime_s=measurement.runtime_s * factor,
            metrics=metrics,
            failed=False,
            cost_units=measurement.cost_units * factor,
        )


class Hangs(FaultPolicy):
    """Runs that never finish on their own.

    The measurement comes back *successful* but with an unbounded
    runtime (``math.inf``) — only a per-run deadline (see
    :class:`~repro.exec.resilience.ExecutionPolicy`) converts a hang
    into a bounded, charged failure.  This is the fault the per-run
    deadline exists for.

    Args:
        rate: probability a run hangs.
    """

    name = "hang"

    def __init__(self, rate: float):
        self.rate = _rate_checked(rate)

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if measurement.failed or self.rate <= 0.0:
            return measurement
        if float(ctx.rng().random()) >= self.rate:
            return measurement
        ctx.events.append(self.name)
        metrics = dict(measurement.metrics)
        metrics["hung"] = 1.0
        return Measurement(
            runtime_s=math.inf,
            metrics=metrics,
            failed=False,
            cost_units=measurement.cost_units,
        )


class MetricCorruption(FaultPolicy):
    """Partial metric loss: some counters come back NaN or missing.

    Runtime is untouched — the run succeeded — but learning pipelines
    consuming metric vectors (OtterTune's workload mapping) must not
    crash or train on the garbage.

    In a corrupted run each metric comes back NaN with probability
    :data:`CORRUPT_NAN_SHARE` and is dropped with probability
    :data:`CORRUPT_DROP_SHARE`.

    Args:
        rate: probability a run's metric bag is corrupted at all.
    """

    name = "metric-corruption"

    def __init__(self, rate: float):
        self.rate = _rate_checked(rate)

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if measurement.failed or self.rate <= 0.0 or not measurement.metrics:
            return measurement
        rng = ctx.rng()
        if float(rng.random()) >= self.rate:
            return measurement
        metrics = {}
        corrupted = 0
        for key in measurement.metrics:
            u = float(rng.random())
            if u < CORRUPT_NAN_SHARE:
                metrics[key] = math.nan
                corrupted += 1
            elif u < CORRUPT_NAN_SHARE + CORRUPT_DROP_SHARE:
                corrupted += 1
            else:
                metrics[key] = measurement.metrics[key]
        if not corrupted:
            return measurement
        ctx.events.append(f"{self.name} ({corrupted} metrics)")
        return Measurement(
            runtime_s=measurement.runtime_s,
            metrics=metrics,
            failed=False,
            cost_units=measurement.cost_units,
        )


class ConfigBlackout(FaultPolicy):
    """Deterministic failure region in a knob subspace (an OOM cliff).

    Runs whose unit-scaled values for the selected knobs all exceed
    ``threshold`` fail, every time — mimicking memory-pressure cliffs
    where aggressive settings are individually fine but jointly fatal.
    These failures are *config-correlated*: retries are useless, and
    they are marked so the circuit breaker (not the retry loop) handles
    them.

    A blacked-out run wastes :data:`BLACKOUT_ELAPSED_S`.

    Args:
        knobs: knob names spanning the blackout subspace (default: the
            space's first two knobs).
        threshold: unit-space coordinate above which each selected knob
            contributes to the blackout.
    """

    name = "blackout"

    def __init__(
        self,
        knobs: Optional[Sequence[str]] = None,
        threshold: float = 0.85,
    ):
        if not (0.0 < threshold < 1.0):
            raise ValueError("threshold must be in (0, 1)")
        self.knobs = tuple(knobs) if knobs else None
        self.threshold = threshold

    def _indices(self, config: Configuration) -> List[int]:
        names = config.space.names()
        if self.knobs is None:
            return list(range(min(2, len(names))))
        return [names.index(k) for k in self.knobs if k in names]

    def blacked_out(self, config: Configuration) -> bool:
        idx = self._indices(config)
        if not idx:
            return False
        arr = config.to_array()
        return bool(all(arr[j] > self.threshold for j in idx))

    def apply(self, ctx: FaultContext, measurement: Measurement) -> Measurement:
        if measurement.failed or not self.blacked_out(ctx.config):
            return measurement
        ctx.events.append(self.name)
        return Measurement(
            runtime_s=math.inf,
            metrics={
                "elapsed_before_failure_s": BLACKOUT_ELAPSED_S,
                CONFIG_FAULT_KEY: 1.0,
            },
            failed=True,
            cost_units=BLACKOUT_ELAPSED_S / 3600.0,
        )


def standard_policies(intensity: float) -> List[FaultPolicy]:
    """The benchmark fault mix at a given intensity dial.

    ``intensity`` scales every stochastic policy's rate; the
    config-blackout region is present whenever intensity is nonzero
    (cliffs do not shrink with better weather).  ``intensity=0`` means
    no policies at all — a :class:`ChaosSystem` with an empty policy
    list is an exact pass-through.
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    if intensity == 0:
        return []
    return [
        TransientFaults(0.4 * intensity),
        BurstyFaults(0.25 * intensity),
        Stragglers(min(0.99, intensity)),
        Hangs(0.15 * intensity),
        MetricCorruption(0.5 * intensity),
        ConfigBlackout(),
    ]
