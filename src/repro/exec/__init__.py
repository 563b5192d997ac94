"""Execution engine: parallel experiment fan-out and evaluation caching.

The paper's organizing axis is that *experiments are expensive*; this
package is where the harness fights back.  Every benchmark and tuner
routes real executions through:

* :class:`ParallelRunner` — order-preserving concurrent map over a
  process pool (the default) or a thread pool, serial with one worker;
  worker count from ``--jobs`` or ``REPRO_JOBS``;
* :class:`EvaluationCache` — value-keyed memoization of deterministic
  simulator runs, shared process-wide via :func:`global_cache`;
* :class:`ExecutionPolicy` / :class:`CircuitBreaker` — resilient
  execution under faults: per-run deadlines, budget-charged retries
  with exponential backoff, failure policies (penalize / discard /
  impute), and quarantine of config subspaces that keep crashing.
"""

from repro.exec.cache import (
    EvaluationCache,
    Unfingerprintable,
    fingerprint,
    global_cache,
    reset_global_cache,
)
from repro.exec.resilience import (
    FAILURE_POLICIES,
    CircuitBreaker,
    ExecutionPolicy,
)
from repro.exec.runner import ParallelRunner, resolve_jobs

__all__ = [
    "CircuitBreaker",
    "EvaluationCache",
    "ExecutionPolicy",
    "FAILURE_POLICIES",
    "ParallelRunner",
    "Unfingerprintable",
    "fingerprint",
    "global_cache",
    "reset_global_cache",
    "resolve_jobs",
]
