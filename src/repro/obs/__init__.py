"""Observability: structured tracing and process-wide metrics.

Experiment-driven and adaptive tuning live or die on how budget is
actually spent — retries, cache hits, injected faults and stragglers
are invisible in a final result table.  ``repro.obs`` makes that spend
first-class, the way OtterTune's service and Starfish's profiler treat
runtime observability as a subsystem of its own:

* :class:`MetricsRegistry` — counters, gauges and histograms with
  lock-free per-thread accumulation, merged on read and mergeable
  across process boundaries (:func:`global_metrics` is the process-wide
  instance; the knowledge-base service publishes it at
  ``GET /metrics``);
* :class:`Tracer` — hierarchical spans (session → batch → evaluation,
  plus retry/fault/quarantine events) in a bounded ring buffer with
  JSONL export; activated per-run via :func:`set_tracer` /
  :func:`tracing`, no-ops otherwise.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    global_metrics,
    reset_global_metrics,
    set_global_metrics,
)
from repro.obs.trace import (
    Span,
    Tracer,
    event,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "event",
    "get_tracer",
    "global_metrics",
    "reset_global_metrics",
    "set_global_metrics",
    "set_tracer",
    "span",
    "tracing",
]

