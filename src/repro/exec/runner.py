"""Parallel fan-out for independent evaluations.

Experiment-driven tuning's cost model is "real runs are expensive";
iTuned's answer (PVLDB'09 §5) is to execute independent experiments in
*parallel*.  :class:`ParallelRunner` is that layer for the whole
harness: a thin, order-preserving map over a process pool (the
default) or a thread pool.

Worker count resolution, in priority order:

1. an explicit ``jobs=`` argument,
2. the ``REPRO_JOBS`` environment variable,
3. serial execution (``jobs=1``).

``jobs=0`` (or ``REPRO_JOBS=auto``) means "all CPUs".  A runner with
one worker never builds a pool, so the serial path is exactly a list
comprehension — no executor overhead, byte-identical results.

Failure semantics: process mode checks that the task and its first
argument pickle *before* anything is submitted, and raises if they do
not; from then on an exception raised by the task itself propagates to
the caller unchanged.  Tasks are never re-executed: re-running
side-effecting work (chaos injection, budget charging) because its
first execution *raised* would multiply those side effects.

Observability: every ``map`` records per-mode job accounting into
:func:`repro.obs.global_metrics`, and when a tracer is active
(:func:`repro.obs.get_tracer`) each task runs inside a ``runner.task``
span.  Process-pool workers cannot write to the parent's tracer, so
the task is wrapped to capture spans (and worker-side metrics) in the
worker and merge them back with the result — see
:meth:`~repro.obs.Tracer.adopt`.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    global_metrics,
    set_global_metrics,
)
from repro.obs.trace import Tracer, get_tracer, set_tracer

__all__ = ["ParallelRunner", "resolve_jobs"]

_MODES = ("process", "thread")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count from the argument or ``REPRO_JOBS``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip().lower()
        if not env:
            return 1
        jobs = 0 if env == "auto" else int(env)
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class ParallelRunner:
    """Ordered concurrent map over a process or thread pool.

    Args:
        jobs: worker count (``None`` → ``REPRO_JOBS`` → 1; 0 → all CPUs).
            With one worker, or one task, every mode runs serially.
        mode: ``"process"`` (the default; the task and its arguments
            must pickle) or ``"thread"`` (for tasks that do not pickle,
            or that mostly wait, e.g. in ``time.sleep``).

    Results always come back in submission order regardless of
    completion order, so parallel execution can never reorder a
    benchmark table.
    """

    def __init__(self, jobs: Optional[int] = None, mode: str = "process"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.jobs = resolve_jobs(jobs)
        self.mode = mode
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None

    # -- pools -------------------------------------------------------------
    def _processes(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._process_pool

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(max_workers=self.jobs)
        return self._thread_pool

    def close(self) -> None:
        if self._process_pool is not None:
            self._process_pool.shutdown()
            self._process_pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown()
            self._thread_pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mapping -----------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results in submission order.

        Any exception ``fn`` raises propagates to the caller; each task
        is executed at most once.
        """
        tasks = list(items)
        if not tasks:
            return []
        metrics = global_metrics()
        metrics.inc("exec.runner.maps")
        metrics.set_gauge("exec.runner.jobs", self.jobs)
        if self.jobs <= 1 or len(tasks) == 1:
            return self._map_serial(fn, tasks, metrics)
        if self.mode == "process":
            # Probe picklability before submitting anything: a pool
            # worker that dies mid-deserialization breaks every
            # in-flight future.
            pickle.dumps(fn)
            pickle.dumps(tasks[0])
            return self._map_process(fn, tasks, metrics)
        return self._map_thread(fn, tasks, metrics)

    def _map_serial(
        self, fn: Callable[[Any], Any], tasks: List[Any],
        metrics: MetricsRegistry,
    ) -> List[Any]:
        metrics.inc("exec.runner.tasks.serial", len(tasks))
        tracer = get_tracer()
        if tracer is None:
            return [fn(item) for item in tasks]
        results = []
        for item in tasks:
            with tracer.span("runner.task", mode="serial"):
                results.append(fn(item))
        return results

    def _map_thread(
        self, fn: Callable[[Any], Any], tasks: List[Any],
        metrics: MetricsRegistry,
    ) -> List[Any]:
        metrics.inc("exec.runner.tasks.thread", len(tasks))
        tracer = get_tracer()
        if tracer is not None:
            # Worker threads share the tracer but have their own span
            # stacks; parent the task spans under the submitting
            # thread's current span explicitly.
            parent = tracer.current()

            def traced(item: Any) -> Any:
                with tracer.span("runner.task", parent=parent, mode="thread"):
                    return fn(item)

            return list(self._threads().map(traced, tasks))
        return list(self._threads().map(fn, tasks))

    def _map_process(
        self, fn: Callable[[Any], Any], tasks: List[Any],
        metrics: MetricsRegistry,
    ) -> List[Any]:
        metrics.inc("exec.runner.tasks.process", len(tasks))
        tracer = get_tracer()
        if tracer is None:
            return list(self._processes().map(fn, tasks))
        payloads = list(self._processes().map(_CapturingTask(fn), tasks))
        results = []
        for result, spans, worker_metrics in payloads:
            tracer.adopt(spans)
            metrics.merge_state(worker_metrics)
            results.append(result)
        return results

    def starmap(
        self, fn: Callable[..., Any], items: Iterable[Sequence[Any]]
    ) -> List[Any]:
        """``map`` for tasks that are argument tuples."""
        return self.map(_Star(fn), items)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ParallelRunner(jobs={self.jobs}, mode={self.mode!r})"


class _Star:
    """Picklable adapter turning f(*args) into f(args) for pool.map."""

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)


class _CapturingTask:
    """Worker-side observability capture for process pools.

    Runs the task under a fresh tracer and metrics registry inside the
    worker and ships ``(result, spans, metrics_state)`` back, so the
    parent can merge worker-side instrumentation across the process
    boundary.  Exceptions propagate unchanged (that task's capture is
    discarded with the worker's stack).
    """

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(
        self, item: Any
    ) -> Tuple[Any, List[dict], dict]:
        tracer = Tracer()
        registry = MetricsRegistry()
        prev_tracer = set_tracer(tracer)
        prev_metrics = set_global_metrics(registry)
        try:
            with tracer.span("runner.task", mode="process"):
                result = self.fn(item)
        finally:
            set_tracer(prev_tracer)
            set_global_metrics(prev_metrics)
        return result, tracer.export_state(), registry.export_state()
