"""Process-wide metrics: counters, gauges, histograms.

Tuning budgets are spent on retries, cache probes, fault recoveries and
stragglers that never show up in a final result table.  The
:class:`MetricsRegistry` makes that spend visible: cheap enough to
leave on in every hot path, structured enough for the knowledge-base
service to publish over ``GET /metrics``.

Concurrency model — *one lock*: counters, histograms and gauges are
three dicts, and every write and every read takes the registry lock.
A write is one short dict update under that lock, so concurrent
writers never lose an increment, and a snapshot is exact at the moment
it is taken.  The registry holds nothing per thread, so a service that
runs each connection on a new thread does not grow with its traffic.

Cross-process merge: pool workers accumulate into their own registry
and ship :meth:`export_state` back with the task result; the parent
folds it in with :meth:`merge_state` (see
:class:`~repro.exec.runner.ParallelRunner`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "MetricsRegistry",
    "global_metrics",
    "reset_global_metrics",
    "set_global_metrics",
]

#: Histogram bucket upper bounds (seconds-ish scale): a 1-2.5-5 decade
#: ladder from 1µs to 50k, wide enough for both HTTP latencies and
#: simulated runtimes.  Values above the last bound land in a final
#: overflow bucket.
_BOUNDS: List[float] = [
    m * 10.0 ** e for e in range(-6, 5) for m in (1.0, 2.5, 5.0)
]


class _Hist:
    """The accumulation for one histogram."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # the first bound at or above the value; past the last, overflow
        self.buckets[bisect_left(_BOUNDS, value)] += 1


def _quantile(buckets: List[int], count: int, q: float) -> float:
    """Bucket-upper-bound estimate of the ``q``-quantile."""
    target = q * count
    cumulative = 0
    for i, n in enumerate(buckets):
        cumulative += n
        if cumulative >= target:
            return _BOUNDS[i] if i < len(_BOUNDS) else _BOUNDS[-1]
    return _BOUNDS[-1]


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._hists: Dict[str, _Hist] = {}
        self._gauges: Dict[str, float] = {}

    # -- write path --------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = _Hist()
            hist.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    # -- read path ---------------------------------------------------------
    def value(self, name: str, default: float = 0.0) -> float:
        """The value of counter ``name``."""
        with self._lock:
            return self._counters.get(name, default)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view of every metric.

        Histogram summaries report exact count/sum/min/max/mean and
        bucket-estimated p50/p95/p99.  All values are finite (strict
        RFC 8259 JSON), so the payload can go straight onto the wire.
        """
        with self._lock:
            histograms: Dict[str, Any] = {}
            for name in sorted(self._hists):
                hist = self._hists[name]
                if hist.count == 0:
                    continue
                histograms[name] = {
                    "count": hist.count,
                    "sum": round(hist.total, 9),
                    "min": round(hist.min, 9),
                    "max": round(hist.max, 9),
                    "mean": round(hist.total / hist.count, 9),
                    "p50": _quantile(hist.buckets, hist.count, 0.50),
                    "p95": _quantile(hist.buckets, hist.count, 0.95),
                    "p99": _quantile(hist.buckets, hist.count, 0.99),
                }
            counters, gauges = self._counters, self._gauges
            return {
                "counters": {k: counters[k] for k in sorted(counters)},
                "gauges": {
                    k: gauges[k] for k in sorted(gauges)
                    if math.isfinite(gauges[k])
                },
                "histograms": histograms,
            }

    # -- cross-process merge -----------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Raw mergeable state (counters + histogram buckets)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                        "buckets": list(h.buckets),
                    }
                    for name, h in self._hists.items()
                },
            }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Fold a foreign :meth:`export_state` (e.g. from a pool
        worker) into this registry."""
        with self._lock:
            for name, value in state.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, payload in state.get("histograms", {}).items():
                hist = self._hists.get(name)
                if hist is None:
                    hist = self._hists[name] = _Hist()
                hist.count += payload["count"]
                hist.total += payload["total"]
                if payload["min"] is not None and (
                    hist.min is None or payload["min"] < hist.min
                ):
                    hist.min = payload["min"]
                if payload["max"] is not None and (
                    hist.max is None or payload["max"] > hist.max
                ):
                    hist.max = payload["max"]
                hist.buckets = [
                    a + b for a, b in zip(hist.buckets, payload["buckets"])
                ]

    def reset(self) -> None:
        """Zero every metric (tests, benchmark passes)."""
        with self._lock:
            self._counters.clear()
            self._hists.clear()
            self._gauges.clear()


_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-wide registry all instrumentation points write to."""
    return _GLOBAL


def set_global_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Pool workers use this to capture metrics emitted during one task so
    they can be shipped back and merged into the parent process.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def reset_global_metrics() -> None:
    """Zero the process-wide registry (tests, benchmark passes)."""
    _GLOBAL.reset()
