"""Self-time arithmetic of the outside-in tracer."""

import threading

import pytest

from tracer import Tracer


class FakeClock:
    """Per-thread fake time, advanced explicitly by the traced code."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds):
        self._local.now = self() + seconds


def _layers(clock):
    class Inner:
        def work(self, seconds, fail=False):
            clock.advance(seconds)
            if fail:
                raise ValueError("inner failed")
            return seconds

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def work(self, before, inner_s, after, fail=False):
            clock.advance(before)
            try:
                self.inner.work(inner_s, fail=fail)
            except ValueError:
                pass
            clock.advance(after)

    return Outer, Inner


def _traced(clock, outer_key="outer", inner_key="inner", observe=None):
    tracer = Tracer(clock=clock)
    Outer, Inner = _layers(clock)
    tracer.wrap(Outer, "work", outer_key)
    tracer.wrap(Inner, "work", inner_key, observe)
    return tracer, Outer


def test_nested_calls_credit_self_time():
    clock = FakeClock()
    tracer, Outer = _traced(clock)
    Outer().work(1.0, 5.0, 2.0)
    totals = tracer.totals()
    assert totals["self_s"] == {"outer": 3.0, "inner": 5.0}
    assert totals["wall_s"] == {"outer": 8.0, "inner": 5.0}
    assert totals["calls"] == {"outer": 1, "inner": 1}


def test_same_key_nesting_is_not_counted_twice():
    clock = FakeClock()
    tracer, Outer = _traced(clock, outer_key="layer", inner_key="layer")
    Outer().work(1.0, 5.0, 2.0)
    assert tracer.totals()["self_s"] == {"layer": 8.0}


def test_exception_inside_wrapped_call_keeps_accounting():
    clock = FakeClock()
    raised = []
    tracer, Outer = _traced(
        clock, observe=lambda t, a, k, result, exc: raised.append(exc))
    Outer().work(1.0, 4.0, 2.0, fail=True)
    Outer().work(1.0, 1.0, 1.0)
    totals = tracer.totals()
    # the failed inner call is still credited to inner, not to outer
    assert totals["self_s"] == {"outer": 5.0, "inner": 5.0}
    assert isinstance(raised[0], ValueError) and raised[1] is None
    # and the stack unwound: a fresh top-level call is not nested
    tracer.call("solo", clock.advance, (3.0,), {})
    assert tracer.totals()["self_s"]["solo"] == 3.0


def test_threads_keep_separate_stacks():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    both_inside = threading.Barrier(2, timeout=5)
    Outer, Inner = _layers(clock)

    class Waiting(Outer):
        def work(self, before, inner_s, after, fail=False):
            clock.advance(before)
            both_inside.wait()
            self.inner.work(inner_s)
            both_inside.wait()
            clock.advance(after)

    class Lone:
        def work(self, seconds):
            both_inside.wait()
            clock.advance(seconds)
            both_inside.wait()

    tracer.wrap(Waiting, "work", "outer")
    tracer.wrap(Inner, "work", "inner")
    tracer.wrap(Lone, "work", "inner")
    threads = [
        threading.Thread(target=Waiting().work, args=(1.0, 2.0, 3.0)),
        threading.Thread(target=Lone().work, args=(10.0,)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    # the other thread's 10 s inside "inner" is not nested in "outer"
    assert tracer.totals()["self_s"] == {"outer": 4.0, "inner": 12.0}


def test_inactive_tracer_records_nothing():
    clock = FakeClock()
    tracer, Outer = _traced(clock)
    tracer.active = False
    Outer().work(1.0, 1.0, 1.0)
    assert tracer.totals()["calls"] == {}


def test_wrap_only_what_the_class_defines_and_uninstall():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.wrap(Child, "run", "layer")
    original = Base.__dict__["run"]
    tracer.wrap(Base, "run", "layer")
    assert Child().run() == "base"
    assert "run" not in vars(Child)
    tracer.uninstall()
    assert Base.__dict__["run"] is original
