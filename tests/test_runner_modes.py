"""Regression tests: ParallelRunner failure semantics per mode.

The auto-mode dispatcher used to probe picklability by *executing* the
first task and treating any exception — including ordinary task
failures — as "does not pickle", silently re-running the whole batch
on a thread pool and then serially.  A failing task could therefore
execute up to three times (tripled side effects) and its exception
could surface as a confusing serial-path error.  Now picklability is
decided by ``pickle.dumps`` probes before anything is submitted, and
execution exceptions propagate unchanged from every mode, with each
task executed at most once.
"""

import os

import pytest

from repro.exceptions import CircuitOpen
from repro.exec.runner import ParallelRunner
from repro.obs.metrics import MetricsRegistry, set_global_metrics

MODES = ["serial", "thread", "process", "auto"]


def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x


def _record_then_maybe_fail(item):
    """Append one line per execution, then fail for index 2."""
    path, x = item
    with open(path, "a") as fh:
        fh.write(f"{x}\n")
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x


def _raise_fault(x):
    raise CircuitOpen(region=("buffer_pool_mb", x))


@pytest.fixture(autouse=True)
def _isolated_metrics():
    previous = set_global_metrics(MetricsRegistry())
    yield
    set_global_metrics(previous)


class TestExceptionPropagation:
    @pytest.mark.parametrize("mode", MODES)
    def test_task_exception_propagates(self, mode):
        with ParallelRunner(jobs=2, mode=mode) as runner:
            with pytest.raises(ValueError, match="task 2 failed"):
                runner.map(_fail_on_two, [0, 1, 2, 3])

    @pytest.mark.parametrize("mode", MODES)
    def test_chaos_fault_propagates_from_pool(self, mode):
        """A typed ``ReproError`` with a custom ``__init__`` (the one a
        session raises under ``on_quarantine="raise"``) keeps its type
        and message when raised inside a pooled task."""
        with ParallelRunner(jobs=2, mode=mode) as runner:
            with pytest.raises(CircuitOpen, match="region quarantined"):
                runner.map(_raise_fault, [3, 4])

    def test_unpicklable_fn_exception_not_masked(self):
        """Auto mode falls back to threads for closures — and a failing
        closure's own exception must surface, not a pickling error."""
        captured = []

        def fail(x):
            captured.append(x)
            raise KeyError(f"closure task {x}")

        with ParallelRunner(jobs=2, mode="auto") as runner:
            with pytest.raises(KeyError, match="closure task"):
                runner.map(fail, [5, 6])
        # Fallback probing must not have re-executed completed work:
        # each submitted task ran at most once.
        assert len(captured) == len(set(captured)) <= 2

    def test_process_mode_rejects_unpicklable(self):
        with ParallelRunner(jobs=2, mode="process") as runner:
            with pytest.raises(Exception):
                runner.map(lambda x: x, [1, 2])


class TestSideEffectCounts:
    @pytest.mark.parametrize("mode", MODES)
    def test_failing_batch_runs_each_task_at_most_once(self, mode, tmp_path):
        path = str(tmp_path / f"effects-{mode}.log")
        items = [(path, i) for i in range(4)]
        with ParallelRunner(jobs=2, mode=mode) as runner:
            with pytest.raises(ValueError):
                runner.map(_record_then_maybe_fail, items)
        executed = []
        if os.path.exists(path):
            executed = [
                int(line) for line in open(path).read().splitlines()
            ]
        # The old auto-mode fallback re-ran tasks on a thread pool and
        # then serially, tripling entries here.
        assert len(executed) == len(set(executed)), (
            f"tasks re-executed in mode={mode}: {sorted(executed)}"
        )
        assert len(executed) <= len(items)

    @pytest.mark.parametrize("mode", MODES)
    def test_successful_batch_runs_each_task_exactly_once(
        self, mode, tmp_path
    ):
        path = str(tmp_path / f"ok-{mode}.log")
        items = [(path, i) for i in (0, 1, 3, 4)]
        fn = _record_then_maybe_fail  # picklable, no failing index here
        with ParallelRunner(jobs=2, mode=mode) as runner:
            result = runner.map(fn, items)
        assert result == [0, 1, 3, 4]
        executed = sorted(int(line) for line in open(path))
        assert executed == [0, 1, 3, 4]


def _slow_square(x):
    import time

    time.sleep(0.02)
    return x * x


class TestCheapTaskGuard:
    """Auto mode must not fan sub-millisecond tasks out to a pool.

    BENCH_exec E1 regression: cost-model calls (~100us) ran ~4x slower
    through a process pool than serially because fork+pickle dominates.
    Auto mode now times the first task and keeps the batch serial when
    it comes in under ``cheap_task_s``.
    """

    def test_cheap_batch_stays_serial(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(jobs=2, mode="auto", cheap_task_s=10.0) as r:
                assert r.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.cheap_fallbacks") == 1
        assert registry.value("exec.runner.tasks.serial") == 4
        assert registry.value("exec.runner.tasks.process") == 0

    def test_expensive_batch_uses_pool(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(
                jobs=2, mode="auto", cheap_task_s=0.001
            ) as r:
                assert r.map(_slow_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.cheap_fallbacks") == 0
        # The probed first task runs serially; the rest fan out.
        assert registry.value("exec.runner.tasks.serial") == 1
        assert registry.value("exec.runner.tasks.process") == 2

    def test_zero_threshold_disables_probe(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(jobs=2, mode="auto", cheap_task_s=0.0) as r:
                assert r.map(_square, [1, 2, 3]) == [1, 4, 9]
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.cheap_fallbacks") == 0
        assert registry.value("exec.runner.tasks.process") == 3

    def test_explicit_process_mode_never_second_guessed(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(
                jobs=2, mode="process", cheap_task_s=10.0
            ) as r:
                assert r.map(_square, [1, 2]) == [1, 4]
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.cheap_fallbacks") == 0
        assert registry.value("exec.runner.tasks.process") == 2

    def test_env_threshold_is_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHEAP_TASK_S", "1.25")
        assert ParallelRunner(jobs=2, mode="auto").cheap_task_s == 1.25
        monkeypatch.delenv("REPRO_CHEAP_TASK_S")
        assert ParallelRunner(jobs=2, mode="auto").cheap_task_s == 0.005


class TestModeAccounting:
    def test_serial_and_pool_task_counters(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(jobs=2, mode="thread") as runner:
                runner.map(_square, [1, 2, 3])
            with ParallelRunner(jobs=1, mode="serial") as runner:
                runner.map(_square, [1, 2])
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.tasks.thread") == 3
        assert registry.value("exec.runner.tasks.serial") == 2
        assert registry.value("exec.runner.maps") == 2

    def test_auto_pickle_reject_counted_once(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(jobs=2, mode="auto") as runner:
                assert runner.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.pickle_rejects") == 1
        assert registry.value("exec.runner.tasks.thread") == 3
