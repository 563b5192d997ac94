"""Hierarchical span tracing with a bounded ring buffer.

A :class:`Tracer` records *spans* — named, timed, attributed intervals
nested session → batch → evaluation — plus zero-duration *events*
(retry, fault, quarantine, deadline kill) attached to the active span.
Spans land in an in-memory ring buffer (oldest dropped past capacity)
and export as JSONL for offline analysis (``python -m repro tune
--trace out.jsonl``).

Tracing is opt-in and process-global: instrumentation points call the
module-level :func:`span` / :func:`event` helpers, which record nothing
unless a tracer has been installed with :func:`set_tracer` (or the
:func:`tracing` context manager).  An off-path :func:`event` is a
single global read.  An off-path :func:`span` is still a generator to
enter and leave (about 1.3 µs, against 0.4 µs for a ``nullcontext``,
on a 2-vCPU x86 VM), so per-member call sites such as a batch's
evaluation spans check :func:`get_tracer` first.

Cross-process capture: a pool worker cannot share the parent's ring
buffer, so the :class:`~repro.exec.runner.ParallelRunner` installs a
fresh tracer inside the worker, ships its :meth:`Tracer.export_state`
back with the result, and the parent grafts it in with
:meth:`Tracer.adopt` — worker spans appear under the parent's active
span with freshly assigned ids, exactly as if the work had run
locally.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "event",
    "get_tracer",
    "set_tracer",
    "span",
    "tracing",
]


def _json_attr(value: Any) -> Any:
    """Attribute values must survive strict JSON export."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (type(None), bool, int, str)):
        return value
    return repr(value)


class Span:
    """One traced interval (or instantaneous event).

    Attributes:
        span_id: unique (per tracer) integer id.
        parent_id: enclosing span's id, ``None`` for roots.
        name: span name, e.g. ``"evaluation"``.
        kind: ``"span"`` (timed) or ``"event"`` (instantaneous).
        start_s: wall-clock start (``time.time``).
        duration_s: seconds, ``None`` while the span is open.
        status: ``"ok"`` or ``"error"`` (an exception escaped the block).
        attrs: free-form attributes; values are JSON-sanitized on export.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "kind", "start_s",
        "duration_s", "status", "attrs", "_t0",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str = "span",
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start_s = time.time()
        self.duration_s: Optional[float] = 0.0 if kind == "event" else None
        self.status = "ok"
        self.attrs: Dict[str, Any] = attrs or {}
        self._t0 = time.perf_counter()

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_s": round(self.start_s, 6),
            "duration_s": (
                round(self.duration_s, 9)
                if self.duration_s is not None else None
            ),
            "status": self.status,
            "attrs": {k: _json_attr(v) for k, v in self.attrs.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, kind={self.kind})"
        )


class Tracer:
    """Span recorder with per-thread nesting and a bounded buffer.

    Args:
        capacity: ring-buffer size; once full, the *oldest* spans are
            dropped and counted in :attr:`dropped`.

    The active-span stack is thread-local, so concurrent threads nest
    their own spans correctly; the buffer itself is shared (appends
    take a short lock).
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self.dropped = 0

    # -- span lifecycle ----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = self._local.__dict__.get("stack")
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _emit(
        self,
        name: str,
        kind: str,
        parent: Optional[Span],
        attrs: Dict[str, Any],
    ) -> Span:
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id
        else:
            current = self.current()
            if current is not None:
                parent_id = current.span_id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            record = Span(span_id, parent_id, name, kind, attrs)
            if len(self._buffer) == self.capacity:
                self.dropped += 1
            self._buffer.append(record)
        return record

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Iterator[Span]:
        """Open a span for the enclosed block; nests under the calling
        thread's current span unless ``parent`` overrides it."""
        record = self._emit(name, "span", parent, attrs)
        stack = self._stack()
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            record.duration_s = time.perf_counter() - record._t0
            if stack and stack[-1] is record:
                stack.pop()
            elif record in stack:  # pragma: no cover - defensive
                stack.remove(record)

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous event under the current span."""
        return self._emit(name, "event", None, attrs)

    # -- merge across processes -------------------------------------------
    def export_state(self) -> List[Dict[str, Any]]:
        """Every buffered span as JSON-safe dicts (buffer order)."""
        with self._lock:
            return [record.to_jsonable() for record in self._buffer]

    def adopt(
        self,
        payloads: Sequence[Dict[str, Any]],
        parent: Optional[Span] = None,
    ) -> None:
        """Graft foreign spans (a worker's :meth:`export_state`) in.

        Ids are re-assigned to stay unique in this tracer; internal
        parent links are preserved, and foreign *roots* are re-parented
        under ``parent`` (default: the calling thread's current span).
        """
        if not payloads:
            return
        if parent is None:
            parent = self.current()
        with self._lock:
            id_map: Dict[int, int] = {}
            for payload in payloads:
                id_map[payload["span_id"]] = self._next_id
                self._next_id += 1
            for payload in payloads:
                old_parent = payload.get("parent_id")
                if old_parent in id_map:
                    parent_id = id_map[old_parent]
                else:
                    parent_id = parent.span_id if parent is not None else None
                record = Span(
                    id_map[payload["span_id"]],
                    parent_id,
                    payload["name"],
                    payload.get("kind", "span"),
                    dict(payload.get("attrs", {})),
                )
                record.start_s = payload.get("start_s", record.start_s)
                record.duration_s = payload.get("duration_s")
                record.status = payload.get("status", "ok")
                if len(self._buffer) == self.capacity:
                    self.dropped += 1
                self._buffer.append(record)

    # -- introspection / export --------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._buffer)

    def span_counts(self, exclude_prefixes: Sequence[str] = ()) -> Dict[str, int]:
        """name → occurrence count over the buffer.

        ``exclude_prefixes`` filters out execution-strategy-specific
        spans (e.g. ``"runner."``) when comparing logical traces across
        serial and parallel runs.
        """
        counts: Dict[str, int] = {}
        for record in self.spans():
            if any(record.name.startswith(p) for p in exclude_prefixes):
                continue
            counts[record.name] = counts.get(record.name, 0) + 1
        return dict(sorted(counts.items()))

    def export_jsonl(self, path: str) -> int:
        """Write one strict-JSON line per span; returns the line count."""
        records = self.export_state()
        with open(path, "w") as fh:
            for payload in records:
                fh.write(json.dumps(payload, allow_nan=False))
                fh.write("\n")
        return len(records)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()
            self.dropped = 0


# -- process-global activation ---------------------------------------------

_ACTIVE: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, remove) the process-global tracer;
    returns the previously installed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is off."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate ``tracer`` (default: a fresh one) for the block."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Instrumentation-point span: records when a tracer is active,
    yields ``None`` otherwise.  Off the path it records nothing but is
    still a generator-based context manager (about 1.3 µs); a
    per-member call site checks :func:`get_tracer` first."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as record:
        yield record


def event(name: str, **attrs: Any) -> None:
    """Instrumentation-point event; dropped when tracing is off."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, **attrs)
