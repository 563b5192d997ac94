"""The chaos wrapper: apply fault policies to a system under tune.

:class:`ChaosSystem` threads every run through an ordered list of
:class:`~repro.chaos.policies.FaultPolicy` objects.  Injection is
keyed by a monotonically assigned *run index* and the system's seed, so
the fault sequence is a pure function of the call sequence — batched
execution (even through a parallel runner) injects exactly what a
serial replay would.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.policies import FaultContext, FaultPolicy
from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.core.system import SystemUnderTune, SystemWrapper
from repro.core.workload import Workload
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event

__all__ = ["ChaosSystem"]


class ChaosSystem(SystemWrapper):
    """Inject environmental and config-correlated faults into runs.

    Chaos systems are *unfingerprintable* (see
    :func:`repro.exec.cache.fingerprint`): injection depends on the
    advancing run index, so two calls with equal arguments legitimately
    return different measurements and must never be served from an
    evaluation cache.

    Args:
        inner: the wrapped system.
        policies: fault policies, applied in order per run.  A policy
            that fails the measurement short-circuits the rest (later
            policies pass failed measurements through).
        rng: seed source — one integer is drawn at construction and all
            injection randomness derives from ``(that seed, run index,
            policy slot)``.  Mutually exclusive with ``seed``.
        seed: explicit injection seed (overrides ``rng``).

    Injected failures come back as failed measurements marked
    ``injected_fault``, never as exceptions: a batch is atomic, and one
    fault must not discard its siblings' results.

    Attributes:
        fault_log: ``(run index, event)`` pairs for every injection —
            the ground truth benchmarks compare across execution modes.
        fault_counts: event-name → count summary.
        injected_failures: number of runs a policy turned into failures.
    """

    #: Evaluation caches must not memoize runs through this wrapper.
    unfingerprintable = True

    def __init__(
        self,
        inner: SystemUnderTune,
        policies: Sequence[FaultPolicy],
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        policies = list(policies)
        super().__init__(
            inner, name=f"{inner.name}+chaos({len(policies)} policies)"
        )
        self.policies = policies
        if seed is None:
            source = rng if rng is not None else np.random.default_rng(0)
            seed = int(source.integers(0, 2**32))
        self.seed = int(seed)
        self.fault_log: List[Tuple[int, str]] = []
        self.fault_counts: Dict[str, int] = {}
        self.injected_failures = 0
        self._next_index = 0
        self._policy_state: List[Dict[str, object]] = [
            {} for _ in self.policies
        ]

    # -- injection ---------------------------------------------------------
    def _inject(
        self, index: int, workload: Workload, config: Configuration,
        measurement: Measurement,
    ) -> Measurement:
        was_ok = measurement.ok
        events: List[str] = []
        for slot, policy in enumerate(self.policies):
            ctx = FaultContext(
                index=index, config=config, workload=workload,
                seed=self.seed, slot=slot,
                state=self._policy_state[slot], events=events,
            )
            measurement = policy.apply(ctx, measurement)
        for event in events:
            self.fault_log.append((index, event))
            key = event.split(" ")[0]
            self.fault_counts[key] = self.fault_counts.get(key, 0) + 1
            global_metrics().inc("chaos.faults")
            global_metrics().inc(f"chaos.fault.{key}")
            obs_event("fault", kind=key, index=index)
        if was_ok and measurement.failed:
            self.injected_failures += 1
            global_metrics().inc("chaos.injected_failures")
        return measurement

    def run(self, workload: Workload, config: Configuration) -> Measurement:
        return self.run_batch(workload, [config])[0]

    def run_batch(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Batched execution with serial-identical injection.

        Run indices are assigned in ``configs`` order *before* anything
        executes; the inner system computes the batch (possibly
        concurrently, via an :class:`~repro.core.system
        .InstrumentedSystem` runner), and injection then replays
        per-index in order — so the injected fault sequence is
        byte-identical to calling :meth:`run` in a loop.
        """
        self.check_workload(workload)
        configs = list(configs)
        start = self._next_index
        self._next_index += len(configs)
        inner_measurements = self.inner.run_batch(workload, configs)
        return [
            self._inject(start + i, workload, config, measurement)
            for i, (config, measurement) in enumerate(
                zip(configs, inner_measurements)
            )
        ]

    # -- introspection -----------------------------------------------------
    def fault_digest(self) -> str:
        """Stable digest of the injected fault sequence.

        Two runs of the same (seeded) scenario — serial or batched,
        whatever the worker count — must produce equal digests; the
        chaos benchmark asserts exactly that.
        """
        payload = repr(self.fault_log).encode()
        return hashlib.sha1(payload).hexdigest()[:16]

    def reset_faults(self) -> None:
        """Forget injection history and restart the index sequence."""
        self.fault_log.clear()
        self.fault_counts.clear()
        self.injected_failures = 0
        self._next_index = 0
        self._policy_state = [{} for _ in self.policies]

    def injection_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the injection cursor + policy state.

        Restoring this on a freshly constructed ``ChaosSystem`` with the
        same seed and policies makes future injections byte-identical to
        continuing the original instance — the fleet checkpoint relies
        on it.  (The fault log is bookkeeping, not injection state, and
        is not part of the snapshot.)
        """
        return {
            "kind": "chaos_injection_state",
            "seed": self.seed,
            "next_index": self._next_index,
            "policy_state": [dict(s) for s in self._policy_state],
        }

    def restore_injection_state(self, payload: Dict[str, object]) -> None:
        if payload.get("kind") != "chaos_injection_state":
            raise ValueError(
                f"not a chaos_injection_state payload: {payload.get('kind')!r}"
            )
        if int(payload["seed"]) != self.seed:
            raise ValueError(
                f"chaos seed mismatch: checkpoint has {payload['seed']}, "
                f"system has {self.seed}"
            )
        state = payload["policy_state"]
        if len(state) != len(self.policies):
            raise ValueError(
                f"policy count mismatch: checkpoint has {len(state)}, "
                f"system has {len(self.policies)}"
            )
        self._next_index = int(payload["next_index"])
        self._policy_state = [dict(s) for s in state]

    def __repr__(self) -> str:  # pragma: no cover
        names = ", ".join(p.name for p in self.policies)
        return f"ChaosSystem({self.inner.name}, [{names}], seed={self.seed})"
