"""Serving primitives for the recommendation service.

``http.server``'s threading model gives every connection its own
thread.  Requests run on that thread, the one that parsed them, so an
answer never waits for a hand-off between threads.  This module bounds
what those threads may do at once:

* :class:`RequestExecutor` — an admission gate.  At most
  ``max_inflight`` requests run at once; one over the limit, or one
  after shutdown began, sheds at once (:class:`Overloaded`, mapped to
  HTTP 429 with ``Retry-After``) instead of piling onto the CPU.
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

#: ``Retry-After`` hint, in seconds, on shed responses.
RETRY_AFTER_S = 1.0
#: Maximum pending write-behind ingest payloads.
INGEST_QUEUE_LIMIT = 512
#: Maximum payloads committed per group-commit batch.
INGEST_BATCH_MAX = 64
#: How long an ingest request waits for its commit ack.
INGEST_ACK_TIMEOUT_S = 30.0


class Overloaded(RuntimeError):
    """Request shed by admission control (maps to HTTP 429).

    Attributes:
        reason: machine-readable shed reason (``inflight-full``,
            ``ingest-queue-full``, ``ingest-slow``, ``shutdown``).
        retry_after_s: suggested client backoff (``Retry-After``).
    """

    def __init__(self, reason: str, retry_after_s: float = RETRY_AFTER_S) -> None:
        super().__init__(f"overloaded: {reason}")
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving stack (admission, limits, retraining).

    The defaults are sized for a small-footprint service; tests shrink
    them to force the shedding paths deterministically.  A size below 1
    raises ``ValueError``.
    """

    #: Requests that may run at once; beyond this, admission sheds
    #: with ``inflight-full``.
    max_inflight: int = 256
    #: Request bodies above this many bytes are refused with HTTP 413.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Minimum seconds between surrogate retrains per (kind, family);
    #: within the window a stale cached model keeps serving.  ``0``
    #: retrains on every KB version bump (the offline default).
    surrogate_retrain_debounce_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("max_inflight", "max_body_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"ServingConfig.{name} must be at least 1, got {value!r}"
                )


class RequestExecutor:
    """Admission gate: at most ``max_inflight`` requests run at once.

    ``submit`` runs the thunk on the calling (connection) thread and
    returns its result, or raises what it raised.  A request over the
    limit, or one after :meth:`close`, sheds at once with
    :class:`Overloaded`; nothing is ever queued.
    """

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._closed = False
        self.shed_counts: Dict[str, int] = {}
        self.executed = 0

    def submit(self, thunk: Callable[[], Any]) -> Any:
        """Run ``thunk`` here if a slot is free; shed otherwise."""
        with self._lock:
            if self._closed:
                reason: Optional[str] = "shutdown"
            elif self._inflight >= self.config.max_inflight:
                reason = "inflight-full"
            else:
                reason = None
                self._inflight += 1
            if reason is not None:
                self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        if reason is not None:
            global_metrics().inc(f"kb.serve.shed.{reason}")
            raise Overloaded(reason)
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            # a thunk that raised (a 400 or a 500) gives its slot back too
            elapsed = time.perf_counter() - start
            with self._lock:
                self._inflight -= 1
                self.executed += 1
                if not self._inflight:
                    self._idle.notify_all()
            global_metrics().observe("kb.serve.exec_s", elapsed)

    def close(self, timeout: float = 5.0) -> None:
        """Refuse new requests; wait up to ``timeout`` seconds for the
        running ones to finish."""
        with self._idle:
            self._closed = True
            self._idle.wait_for(lambda: not self._inflight, timeout)

    def stats(self) -> Dict[str, Any]:
        """JSON-safe admission snapshot (the ``/healthz`` body)."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "executed": self.executed,
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
