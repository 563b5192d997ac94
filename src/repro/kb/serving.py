"""Bounded-concurrency serving primitives for the recommendation service.

``http.server``'s threading model gives every connection its own
thread, which means *computation* concurrency equals *connection*
concurrency — at 1000 clients that is 1000 threads all contending for
the index, the surrogate registry, and SQLite at once.  This module
separates the two:

* :class:`RequestExecutor` — an explicit bounded request queue drained
  by a fixed worker pool.  Connection threads enqueue a thunk and block
  on its completion; only ``workers`` thunks ever execute at a time.
  Admission control sheds load *before* queueing (:class:`Overloaded`,
  mapped to HTTP 429 with ``Retry-After``) when the queue is full or
  the predicted wait passes a limit, and concurrent requests with the
  same coalescing key share one computation.
* :class:`IngestWriter` — a write-behind queue for ``POST /ingest``:
  requests enqueue their payload and wait for an :class:`IngestAck`;
  a single writer thread drains the queue in batches and commits each
  batch in **one** SQLite transaction (group commit).  The ack is
  released only *after* its batch commits, so a client that saw HTTP
  200 can never have had its session lost — kill the writer at any
  point and unacked payloads are simply never confirmed.  Index
  warming and surrogate invalidation happen after the commit, off the
  request path.

Both components publish their health through the process-wide
:func:`~repro.obs.metrics.global_metrics` registry and through
:meth:`stats` snapshots (the ``GET /healthz`` body).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import global_metrics

__all__ = [
    "ServingConfig",
    "Overloaded",
    "RequestExecutor",
    "IngestWriter",
    "IngestAck",
]

#: Baseline ``Retry-After`` hint, in seconds, on shed responses.
RETRY_AFTER_S = 1.0
#: How long a connection thread waits for its queued request before
#: abandoning it (shed with ``wait-timeout``).
QUEUE_WAIT_TIMEOUT_S = 30.0
#: Maximum pending write-behind ingest payloads.
INGEST_QUEUE_LIMIT = 512
#: Maximum payloads committed per group-commit batch.
INGEST_BATCH_MAX = 64
#: How long an ingest request waits for its commit ack.
INGEST_ACK_TIMEOUT_S = 30.0


class Overloaded(RuntimeError):
    """Request shed by admission control (maps to HTTP 429).

    Attributes:
        reason: machine-readable shed reason (``queue-full``,
            ``predicted-wait``, ``wait-timeout``, ``ingest-queue-full``,
            ``ingest-slow``, ``shutdown``).
        retry_after_s: suggested client backoff (``Retry-After``).
    """

    def __init__(self, reason: str, retry_after_s: float = RETRY_AFTER_S) -> None:
        super().__init__(f"overloaded: {reason}")
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving stack (queueing, shedding, limits).

    The defaults are sized for a small-footprint service; tests shrink
    them to force the shedding paths deterministically.
    """

    #: Worker threads draining the request queue (computation bound).
    workers: int = 8
    #: Maximum queued (admitted, not yet executing) requests; beyond
    #: this, admission sheds with ``queue-full``.
    queue_limit: int = 256
    #: Shed when ``(queued + busy) * avg_service_time / workers``
    #: exceeds this — the in-flight latency limit.
    max_predicted_wait_s: float = 10.0
    #: Coalesce concurrent requests with identical coalescing keys
    #: (same fingerprint/workload, system_kind, mode, k) into one
    #: computation.
    coalesce: bool = True
    #: Request bodies above this many bytes are refused with HTTP 413.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Negative-cache TTL for unknown/failed system kinds in
    #: :meth:`RecommendationService._space_for`.
    space_negative_ttl_s: float = 30.0
    #: Minimum seconds between surrogate retrains per (kind, family);
    #: within the window a stale cached model keeps serving.  ``0``
    #: retrains on every KB version bump (the offline default).
    surrogate_retrain_debounce_s: float = 0.0


class _Job:
    """One queued unit of work plus everyone waiting on it."""

    __slots__ = (
        "thunk", "key", "event", "result", "error", "waiters", "done",
        "enqueued_at",
    )

    def __init__(self, thunk: Callable[[], Any], key: Optional[str]) -> None:
        self.thunk = thunk
        self.key = key
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.waiters = 1
        self.done = False
        self.enqueued_at = time.monotonic()


class RequestExecutor:
    """Bounded request queue drained by a fixed worker pool.

    ``submit`` blocks the calling (connection) thread until its job
    completes, re-raising whatever the thunk raised.  Admission control
    runs at submit time: a full queue or an excessive predicted wait
    sheds immediately with :class:`Overloaded` instead of letting the
    backlog grow without bound.
    """

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._pending: "deque[_Job]" = deque()
        self._inflight: Dict[str, _Job] = {}
        self._busy = 0
        self._closed = False
        #: EWMA of recent job service time, the predicted-wait input.
        self._avg_service_s: Optional[float] = None
        self.shed_counts: Dict[str, int] = {}
        self.coalesced = 0
        self.executed = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"kb-serve-{i}", daemon=True
            )
            for i in range(max(1, config.workers))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ---------------------------------------------------------
    def _shed(self, reason: str, predicted_wait_s: float = 0.0) -> None:
        with self._lock:
            self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        global_metrics().inc(f"kb.serve.shed.{reason}")
        retry = max(RETRY_AFTER_S, min(predicted_wait_s, 30.0))
        raise Overloaded(reason, retry_after_s=retry)

    def submit(
        self, thunk: Callable[[], Any], key: Optional[str] = None
    ) -> Any:
        """Run ``thunk`` through the pool; block until it completes.

        ``key`` (optional) coalesces: if an identical-key job is queued
        or executing, this call waits on *that* job's result instead of
        enqueueing a duplicate computation.
        """
        metrics = global_metrics()
        job: Optional[_Job] = None
        shed_reason, predicted = None, 0.0
        with self._lock:
            if self._closed:
                raise Overloaded("shutdown")
            if key is not None and self.config.coalesce:
                existing = self._inflight.get(key)
                if existing is not None and not existing.done:
                    existing.waiters += 1
                    self.coalesced += 1
                    metrics.inc("kb.serve.coalesced")
                    job = existing
            if job is None:
                depth = len(self._pending)
                avg = self._avg_service_s
                if avg is not None:
                    predicted = (depth + self._busy) * avg / len(self._threads)
                if depth >= self.config.queue_limit:
                    shed_reason = "queue-full"
                elif predicted > self.config.max_predicted_wait_s:
                    shed_reason = "predicted-wait"
                else:
                    job = _Job(thunk, key)
                    self._pending.append(job)
                    if key is not None and self.config.coalesce:
                        self._inflight[key] = job
                    self._work.notify()
        if shed_reason is not None:
            self._shed(shed_reason, predicted)
        if not job.event.wait(QUEUE_WAIT_TIMEOUT_S):
            with self._lock:
                job.waiters -= 1
            self._shed("wait-timeout")
        metrics.observe(
            "kb.serve.queue.wait_s", time.monotonic() - job.enqueued_at
        )
        if job.error is not None:
            raise job.error
        return job.result

    # -- workers ------------------------------------------------------------
    def _worker_loop(self) -> None:
        metrics = global_metrics()
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._work.wait()
                if not self._pending and self._closed:
                    return
                job = self._pending.popleft()
                if job.waiters <= 0:
                    # every waiter timed out and went away; skip the work
                    if job.key is not None:
                        self._inflight.pop(job.key, None)
                    self.shed_counts["abandoned"] = (
                        self.shed_counts.get("abandoned", 0) + 1
                    )
                    continue
                self._busy += 1
            start = time.perf_counter()
            try:
                job.result = job.thunk()
            except BaseException as exc:  # noqa: BLE001 — ferried to waiters
                job.error = exc
            elapsed = time.perf_counter() - start
            with self._lock:
                self._busy -= 1
                self.executed += 1
                if self._avg_service_s is None:
                    self._avg_service_s = elapsed
                else:
                    self._avg_service_s = (
                        0.8 * self._avg_service_s + 0.2 * elapsed
                    )
                if job.key is not None:
                    self._inflight.pop(job.key, None)
                job.done = True
            metrics.observe("kb.serve.exec_s", elapsed)
            job.event.set()

    # -- lifecycle / introspection ------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, finish the backlog, join the workers."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def stats(self) -> Dict[str, Any]:
        """JSON-safe queue health snapshot (the ``/healthz`` body)."""
        with self._lock:
            avg = self._avg_service_s
            return {
                "workers": len(self._threads),
                "queued": len(self._pending),
                "busy": self._busy,
                "queue_limit": self.config.queue_limit,
                "avg_service_ms": (
                    None if avg is None else round(avg * 1000.0, 3)
                ),
                "executed": self.executed,
                "coalesced": self.coalesced,
                "shed": dict(self.shed_counts),
                "closed": self._closed,
            }


#: Extra time a timed-out ingest waits when the writer has already
#: claimed its payload — the commit is in flight, and shedding a
#: session that is about to become durable would hand the client a 429
#: for a payload that gets stored anyway (duplicate on retry).
_COMMIT_GRACE_S = 1.0


class IngestAck:
    """Commit acknowledgement for one write-behind ingest payload.

    The ack doubles as a cancellation token: a client that gives up
    waiting *cancels* the payload, and the writer skips cancelled
    payloads when it builds a batch.  The claim/cancel handshake is
    atomic, so every payload ends in exactly one of two states —
    committed (ack released) or never written (429, safe to retry
    without creating a duplicate session).
    """

    __slots__ = (
        "event",
        "session_id",
        "error",
        "enqueued_at",
        "_state_lock",
        "_claimed",
        "_cancelled",
    )

    def __init__(self) -> None:
        self.event = threading.Event()
        self.session_id: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.enqueued_at = time.monotonic()
        self._state_lock = threading.Lock()
        self._claimed = False
        self._cancelled = False

    def claim(self) -> bool:
        """Writer side: take ownership before committing the payload.

        Returns ``False`` when the client already cancelled — the
        writer must then drop the payload without writing it.
        """
        with self._state_lock:
            if self._cancelled:
                return False
            self._claimed = True
            return True

    def cancel(self) -> bool:
        """Client side: withdraw the payload after an ack timeout.

        Returns ``True`` when the writer had not claimed it yet — the
        payload will never be committed, so the client may safely
        retry.  ``False`` means the commit is already in flight.
        """
        with self._state_lock:
            if self._claimed:
                return False
            self._cancelled = True
            return True

    def wait(self, timeout: float) -> int:
        """Block until the payload's batch committed; return its id.

        Raises the payload's validation error, or :class:`Overloaded`
        (``ingest-slow``) if the commit did not land within ``timeout``.
        On timeout the payload is cancelled so the writer skips it — a
        shed ingest is not silently committed behind the client's back.
        If the writer already claimed it, a short grace wait lets the
        in-flight commit land; only if that also elapses does the 429
        escape (the one narrow window with at-least-once semantics).
        """
        if not self.event.wait(timeout):
            if self.cancel() or not self.event.wait(_COMMIT_GRACE_S):
                global_metrics().inc("kb.serve.shed.ingest-slow")
                raise Overloaded("ingest-slow")
        if self.error is not None:
            raise self.error
        assert self.session_id is not None
        return self.session_id


class IngestWriter:
    """Write-behind ingest queue with group commit.

    One writer thread drains pending payloads in batches of up to
    :data:`INGEST_BATCH_MAX` and hands each batch to
    :meth:`KnowledgeBase.ingest_many`, which commits the whole batch in
    a single transaction.  Acks are released strictly *after* the
    commit returns: a session is either durably stored or never
    acknowledged, regardless of where the process dies.  ``on_commit``
    (the service's index warmer) runs after each batch, off the
    request path.
    """

    def __init__(
        self, kb: Any, on_commit: Optional[Callable[[], None]] = None
    ) -> None:
        self.kb = kb
        self.on_commit = on_commit
        self._queue: "queue.Queue[Optional[Tuple[Any, IngestAck]]]" = (
            queue.Queue(maxsize=INGEST_QUEUE_LIMIT)
        )
        self._closed = False
        self._lock = threading.Lock()
        self.committed = 0
        self.failed = 0
        self.cancelled = 0
        self.batches = 0
        self.max_batch = 0
        self.last_commit_lag_s = 0.0
        self._thread = threading.Thread(
            target=self._writer_loop, name="kb-ingest-writer", daemon=True
        )
        self._thread.start()

    # -- submission ---------------------------------------------------------
    def submit(self, payload: Any) -> IngestAck:
        """Enqueue one ``kb_session`` payload; returns its ack handle.

        Raises :class:`Overloaded` (``ingest-queue-full``) when the
        write-behind queue is at capacity — backpressure instead of
        unbounded memory growth.
        """
        ack = IngestAck()
        with self._lock:
            if self._closed:
                global_metrics().inc("kb.serve.shed.shutdown")
                raise Overloaded("shutdown")
        try:
            self._queue.put_nowait((payload, ack))
        except queue.Full:
            global_metrics().inc("kb.serve.shed.ingest-queue-full")
            raise Overloaded("ingest-queue-full") from None
        global_metrics().inc("kb.serve.ingest.queued")
        return ack

    # -- writer -------------------------------------------------------------
    def _writer_loop(self) -> None:
        metrics = global_metrics()
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            pending: List[Tuple[Any, IngestAck]] = [item]
            while len(pending) < INGEST_BATCH_MAX:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    # re-post the shutdown sentinel for the next pass
                    self._queue.task_done()
                    self._queue.put(None)
                    break
                pending.append(extra)
            # claim each payload before writing: a client that timed out
            # has cancelled its ack, and committing it anyway would store
            # a session the client was told to retry (duplicate on retry)
            batch: List[Tuple[Any, IngestAck]] = []
            for pair in pending:
                if pair[1].claim():
                    batch.append(pair)
                else:
                    with self._lock:
                        self.cancelled += 1
                    metrics.inc("kb.serve.ingest.cancelled")
                    self._queue.task_done()
            if not batch:
                continue
            payloads = [payload for payload, _ in batch]
            try:
                results = self.kb.ingest_many(payloads)
            except BaseException as exc:  # noqa: BLE001 — ferried to acks
                # last-resort safety net only: ingest_many isolates
                # per-payload errors (validation *and* sqlite) itself
                # and rolls back on commit failure, so reaching here
                # means the whole batch is genuinely unwritten and the
                # shared outcome is accurate for every batchmate
                results = [exc] * len(batch)
            now = time.monotonic()
            with self._lock:
                self.batches += 1
                self.max_batch = max(self.max_batch, len(batch))
                self.last_commit_lag_s = max(
                    now - ack.enqueued_at for _, ack in batch
                )
            metrics.observe("kb.serve.ingest.batch_size", len(batch))
            for (_, ack), outcome in zip(batch, results):
                metrics.observe(
                    "kb.serve.ingest.lag_s", now - ack.enqueued_at
                )
                if isinstance(outcome, BaseException):
                    ack.error = outcome
                    with self._lock:
                        self.failed += 1
                    metrics.inc("kb.serve.ingest.failed")
                else:
                    ack.session_id = int(outcome)
                    with self._lock:
                        self.committed += 1
                    metrics.inc("kb.serve.ingest.committed")
                # the ack is released only after the batch transaction
                # returned — a 200 always refers to a durable session
                ack.event.set()
            if self.on_commit is not None:
                try:
                    self.on_commit()
                except Exception:
                    metrics.inc("kb.serve.ingest.warm_failed")
            for _ in batch:
                self._queue.task_done()

    # -- lifecycle / introspection ------------------------------------------
    def flush(self) -> None:
        """Block until every enqueued payload has been committed."""
        self._queue.join()

    def close(self, timeout: float = 10.0) -> None:
        """Flush-on-shutdown: drain the queue, commit, stop the writer."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    def stats(self) -> Dict[str, Any]:
        """JSON-safe ingest-lag snapshot (the ``/healthz`` body)."""
        with self._lock:
            return {
                "queued": self._queue.qsize(),
                "queue_limit": INGEST_QUEUE_LIMIT,
                "committed": self.committed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "batches": self.batches,
                "max_batch": self.max_batch,
                "last_commit_lag_ms": round(
                    self.last_commit_lag_s * 1000.0, 3
                ),
                "closed": self._closed,
            }
