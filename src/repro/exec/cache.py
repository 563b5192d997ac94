"""Memoization of deterministic system evaluations.

The benchmark suite re-simulates the same (system, workload,
configuration) point thousands of times: every experiment re-measures
vendor defaults, repository builds replay the same seeded LHS designs,
and ablations tune the same systems repeatedly.  Simulators are
deterministic by contract (noise lives in ``InstrumentedSystem``), so
those repeats are pure waste — :class:`EvaluationCache` eliminates them.

Correctness model: the cache sits *below* noise injection and stores
the deterministic inner measurement.  A cache hit feeds the exact value
a fresh simulation would have produced into the unchanged noise /
counting / budget pipeline, so cached and cold executions are
byte-identical; the cache can only ever change wall-clock.

Keys are value-based **fingerprints**, not object identities, so two
experiments that construct equal simulators share entries.
Fingerprinting is conservative: any object whose state cannot be
deterministically serialized (live RNGs, file handles, ...) makes its
owner uncacheable — the evaluation simply runs.  Fault-injecting
wrappers (:class:`~repro.chaos.ChaosSystem` declares itself
``unfingerprintable``) are therefore never cached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.obs.metrics import MetricsRegistry, global_metrics

__all__ = [
    "EvaluationCache",
    "Unfingerprintable",
    "fingerprint",
    "global_cache",
    "reset_global_cache",
]

#: Bump when measurement semantics change so stale processes never mix.
_KEY_VERSION = "v1"

_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes)

_MAX_DEPTH = 12


class Unfingerprintable(TypeError):
    """The object's behaviour cannot be captured as a stable value."""


def _walk(obj: Any, parts: list, seen: set, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise Unfingerprintable(f"nesting too deep at {type(obj).__name__}")
    if isinstance(obj, _PRIMITIVES):
        parts.append(repr(obj))
        return
    if isinstance(obj, np.ndarray):
        parts.append(f"ndarray{obj.shape}{obj.dtype}")
        parts.append(obj.tobytes().hex() if obj.size < 4096 else
                     hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest())
        return
    if isinstance(obj, np.generic):
        parts.append(repr(obj.item()))
        return
    oid = id(obj)
    if oid in seen:
        parts.append("<cycle>")
        return
    seen.add(oid)
    try:
        if isinstance(obj, (list, tuple)):
            parts.append("[" if isinstance(obj, list) else "(")
            for item in obj:
                _walk(item, parts, seen, depth + 1)
            return
        if isinstance(obj, (set, frozenset)):
            parts.append("{")
            for item in sorted(obj, key=repr):
                _walk(item, parts, seen, depth + 1)
            return
        if isinstance(obj, dict):
            parts.append("{}")
            for key in sorted(obj, key=repr):
                _walk(key, parts, seen, depth + 1)
                _walk(obj[key], parts, seen, depth + 1)
            return
        if isinstance(obj, Configuration):
            parts.append("Configuration")
            _walk(obj.to_dict(), parts, seen, depth + 1)
            return
        if isinstance(obj, np.random.Generator) or isinstance(
            obj, np.random.BitGenerator
        ):
            raise Unfingerprintable("live RNG state is not a stable value")
        if getattr(type(obj), "unfingerprintable", False):
            # Objects whose run behaviour depends on mutable cross-call
            # state (e.g. ChaosSystem's advancing run index) opt out:
            # equal-valued snapshots would NOT produce equal runs.
            raise Unfingerprintable(
                f"{type(obj).__name__} declares itself unfingerprintable"
            )
        if callable(obj) and hasattr(obj, "__qualname__"):
            # Named code (functions, lambdas, methods): identified by
            # where it is defined, which is stable across processes.
            parts.append(f"{getattr(obj, '__module__', '?')}.{obj.__qualname__}")
            return
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            parts.append(type(obj).__qualname__)
            for f in dataclasses.fields(obj):
                parts.append(f.name)
                _walk(getattr(obj, f.name), parts, seen, depth + 1)
            return
        # Generic object: walk its attribute dict (and slots).  Default
        # object reprs embed memory addresses, which could collide after
        # address reuse — never fall back to repr() for these.
        state: Dict[str, Any] = {}
        if hasattr(obj, "__dict__"):
            state.update(obj.__dict__)
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                    state.setdefault(slot, getattr(obj, slot))
        if not state:
            raise Unfingerprintable(
                f"{type(obj).__name__} exposes no inspectable state"
            )
        parts.append(type(obj).__qualname__)
        for key in sorted(state):
            if key.startswith("_repro_"):
                continue
            parts.append(key)
            _walk(state[key], parts, seen, depth + 1)
    finally:
        seen.discard(oid)


def fingerprint(obj: Any) -> str:
    """A deterministic value-based digest of an object's state.

    Equal-valued objects — across instances and across processes — get
    equal fingerprints.  Raises :class:`Unfingerprintable` when the
    object holds state with no stable value representation (e.g. a live
    RNG), in which case callers must not cache results involving it.
    """
    parts: list = []
    _walk(obj, parts, set(), 0)
    return hashlib.sha1("\x1f".join(parts).encode()).hexdigest()


def _memoized_fingerprint(obj: Any) -> str:
    """Fingerprint an object, memoizing on the instance.

    Systems and workloads are immutable after construction in practice;
    the memo attribute is skipped by the walk so it never feeds back
    into keys.
    """
    memo = getattr(obj, "_repro_fingerprint", None)
    if memo is None:
        memo = fingerprint(obj)
        try:
            obj._repro_fingerprint = memo
        except AttributeError:  # __slots__ without room for the memo
            pass
    return memo


class EvaluationCache:
    """LRU memoization of deterministic ``system.run`` measurements.

    Args:
        max_entries: LRU capacity; the benchmark suite's working set is
            a few tens of thousands of points.
        metrics: hit/miss/eviction accounting registry (default: a
            private :class:`~repro.obs.MetricsRegistry`, so each cache's
            stats stand alone).  Every event is *also* counted into the
            process-wide :func:`~repro.obs.global_metrics` under
            ``exec.cache.*`` for the ``GET /metrics`` endpoint.

    Measurements are frozen dataclasses, so sharing one instance across
    lookups is safe.  ``stats()`` reports hits/misses/evictions plus the
    running hit rate for the perf trajectory.
    """

    def __init__(
        self,
        max_entries: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, ...], Measurement]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- accounting --------------------------------------------------------
    # The counters live in a MetricsRegistry (thread-safe, snapshot-able)
    # instead of ad-hoc ints; the int-valued properties keep the
    # historical stats() surface.
    @property
    def hits(self) -> int:
        return int(self.metrics.value("cache.hits"))

    @property
    def misses(self) -> int:
        return int(self.metrics.value("cache.misses"))

    @property
    def evictions(self) -> int:
        return int(self.metrics.value("cache.evictions"))

    # -- keys --------------------------------------------------------------
    def key_for(
        self,
        system: Any,
        workload: Any,
        config: Configuration,
        seed: Optional[int] = None,
    ) -> Tuple[str, ...]:
        """Build the (system, workload, config, seed) cache key.

        Systems that execute under an *execution context* — any wrapper
        state that changes what a run measures without changing the
        system's fingerprintable attributes, e.g., a fidelity view
        scaling the cost surface — append that context to the key, so
        two contexts of the same (system, workload, config) point can
        never collide.  Context-free systems (the overwhelmingly common
        case) produce exactly the historical key shape, so warm caches
        stay valid across this change.

        Raises:
            Unfingerprintable: the system or workload holds unstable
                state; the caller must execute for real.
        """
        config_key = hashlib.sha1(
            "\x1f".join(
                f"{k}={v!r}" for k, v in sorted(config.to_dict().items())
            ).encode()
        ).hexdigest()
        key = (
            _KEY_VERSION,
            _memoized_fingerprint(system),
            _memoized_fingerprint(workload),
            config_key,
            repr(seed),
        )
        context = getattr(system, "execution_context", None)
        if callable(context):
            key = key + tuple(str(part) for part in context())
        return key

    # -- storage -----------------------------------------------------------
    def lookup(self, key: Tuple[str, ...]) -> Optional[Measurement]:
        """The *accounted* read path: counts a hit or miss and
        refreshes the entry's LRU recency.  Every consumer that acts on
        the cached value must come through here."""
        entry = self._entries.get(key)
        if entry is None:
            self.metrics.inc("cache.misses")
            global_metrics().inc("exec.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.metrics.inc("cache.hits")
        global_metrics().inc("exec.cache.hits")
        return entry

    def peek(self, key: Tuple[str, ...]) -> Optional[Measurement]:
        """Side-effect-free probe: no hit/miss accounting, no LRU
        reordering.  For introspection only — callers that will *use*
        the value must call :meth:`lookup` instead, otherwise stats and
        eviction order drift from real access patterns."""
        return self._entries.get(key)

    def store(self, key: Tuple[str, ...], measurement: Measurement) -> None:
        self._entries[key] = measurement
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.metrics.inc("cache.evictions")
            global_metrics().inc("exec.cache.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[str, ...]) -> bool:
        """Membership probe; like :meth:`peek`, deliberately
        side-effect-free on stats and LRU order."""
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.metrics.reset()

    # -- convenience ---------------------------------------------------------
    def run(self, system: Any, workload: Any, config: Configuration) -> Measurement:
        """``system.run`` through the cache; falls back to a real run
        whenever the pair cannot be fingerprinted."""
        if getattr(system, "_repro_uncacheable", False):
            return system.run(workload, config)
        try:
            key = self.key_for(system, workload, config)
        except Unfingerprintable:
            try:
                system._repro_uncacheable = True
            except AttributeError:
                pass
            return system.run(workload, config)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        measurement = system.run(workload, config)
        self.store(key, measurement)
        return measurement

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


_GLOBAL: Optional[EvaluationCache] = None


def global_cache() -> Optional[EvaluationCache]:
    """The process-wide cache the benchmark harness shares across
    experiments, or ``None`` when disabled via ``REPRO_EVAL_CACHE=0``."""
    if os.environ.get("REPRO_EVAL_CACHE", "1").strip().lower() in ("0", "off", "no"):
        return None
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = EvaluationCache()
    return _GLOBAL


def reset_global_cache() -> None:
    """Drop the process-wide cache (tests and cold benchmark runs)."""
    global _GLOBAL
    _GLOBAL = None
