"""Outside-in layer tracer: timing wrappers installed on ``repro`` classes.

The tracer replaces methods that a class already defines in its own
``__dict__`` with a wrapper that times the call.  It wraps classes, never
instances: ``repro.exec.cache`` fingerprints walk instance ``__dict__``s,
so an instance attribute would change cache keys.  It never adds a method
a class lacks: ``supports_vectorized()`` checks structure, so giving
``ChaosSystem`` a ``run_batch_vectorized`` would change its path.

Each thread keeps its own call stack.  A key is credited with its *self*
time: time inside its wrapped calls minus time inside wrapped calls
nested in them on the same thread.  Self times of all keys therefore sum
to the time spent inside outermost wrapped calls, with nothing counted
twice.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``observe(tracer, args, kwargs, result, exc)`` — called after each
#: wrapped call to bump counters; ``exc`` is the exception it raised.
Observer = Callable[["Tracer", tuple, dict, Any, Optional[BaseException]], None]
#: ``adapt(tracer, args, kwargs) -> (args, kwargs)`` — rewrites the
#: arguments before the call (e.g. to time a thunk run on another thread).
Adapter = Callable[["Tracer", tuple, dict], Tuple[tuple, dict]]


class Tracer:
    """Per-key self time and counters from wrapped calls.

    Args:
        clock: seconds-valued monotonic clock (tests pass a fake one).

    ``active`` gates recording: a wrapped call made while it is False
    runs untimed, so work outside the measured units (building inputs,
    output checks) never lands in a layer.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        # one accumulator set per thread, merged on read, so the hot
        # path takes no lock
        self._shards: List[Tuple[Dict[str, float], ...]] = []
        self._counters: Dict[str, float] = defaultdict(float)
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _thread_state(self) -> tuple:
        state = getattr(self._local, "state", None)
        if state is None:
            shard = (defaultdict(float), defaultdict(float), defaultdict(float))
            state = self._local.state = ([],) + shard
            with self._lock:
                self._shards.append(shard)
        return state

    def call(
        self,
        key: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        observe: Optional[Observer] = None,
        adapt: Optional[Adapter] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` and credit ``key`` with its self time."""
        if not self.active:
            return fn(*args, **kwargs)
        if adapt is not None:
            args, kwargs = adapt(self, args, kwargs)
        state = self._thread_state()
        nested = [0.0]
        state[0].append(nested)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(key, start, nested, state)
            if observe is not None:
                observe(self, args, kwargs, None, exc)
            raise
        self._close(key, start, nested, state)
        if observe is not None:
            observe(self, args, kwargs, result, None)
        return result

    def _close(self, key: str, start: float, nested: list, state: tuple) -> None:
        elapsed = self.clock() - start
        stack, self_s, wall_s, calls = state
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        self_s[key] += elapsed - nested[0]
        wall_s[key] += elapsed
        calls[key] += 1

    def add(self, name: str, value: float = 1.0) -> None:
        """Bump a named counter (thread-safe)."""
        with self._lock:
            self._counters[name] += value

    # -- reading -----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Merged view: ``self_s`` and ``wall_s`` (inclusive) seconds and
        ``calls`` per key, plus the named ``counters``."""
        merged: Tuple[Dict[str, float], ...] = tuple(
            defaultdict(float) for _ in range(3)
        )
        with self._lock:
            shards = list(self._shards)
            counters = dict(self._counters)
        for shard in shards:
            for into, part in zip(merged, shard):
                for key, value in list(part.items()):
                    into[key] += value
        self_s, wall_s, calls = (dict(m) for m in merged)
        return {"self_s": self_s, "wall_s": wall_s, "calls": calls,
                "counters": counters}

    # -- installation --------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        key: str,
        observe: Optional[Observer] = None,
        adapt: Optional[Adapter] = None,
    ) -> None:
        """Time ``owner.name`` (a class or module) under ``key``.

        Raises:
            TypeError: ``owner`` does not itself define ``name`` as a
                plain function.
        """
        original = vars(owner).get(name)
        if not callable(original) or isinstance(
            original, (staticmethod, classmethod, property)
        ):
            raise TypeError(f"{owner!r} does not define {name!r} itself")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(key, original, args, kwargs, observe, adapt)

        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse install order)."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
