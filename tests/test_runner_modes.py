"""Regression tests: ParallelRunner failure semantics per mode.

A dispatcher once probed picklability by *executing* the first task and
treating any exception — including ordinary task failures — as "does
not pickle", silently re-running the whole batch on a thread pool and
then serially.  A failing task could therefore execute up to three
times (tripled side effects).  Execution exceptions must propagate
unchanged from the serial path (one worker), the thread pool and the
process pool, with each task executed at most once.
"""

import os

import pytest

from repro.exceptions import ConstraintViolation
from repro.exec.runner import ParallelRunner
from repro.obs.metrics import (
    MetricsRegistry,
    global_metrics,
    set_global_metrics,
)

#: (jobs, mode) per execution path; one worker runs serially.
MODES = [
    pytest.param((1, "process"), id="serial"),
    pytest.param((2, "thread"), id="thread"),
    pytest.param((2, "process"), id="process"),
]


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
    raise ConstraintViolation("buffer_fits_ram")


@pytest.fixture(autouse=True)
def _isolated_metrics():
    previous = set_global_metrics(MetricsRegistry())
    yield
    set_global_metrics(previous)


class TestExceptionPropagation:
    @pytest.mark.parametrize("jobs_mode", MODES)
    def test_task_exception_propagates(self, jobs_mode):
        with ParallelRunner(*jobs_mode) as runner:
            with pytest.raises(ValueError, match="task 2 failed"):
                runner.map(_fail_on_two, [0, 1, 2, 3])

    @pytest.mark.parametrize("jobs_mode", MODES)
    def test_chaos_fault_propagates_from_pool(self, jobs_mode):
        """A typed ``ReproError`` with a custom ``__init__`` keeps its
        type, message and attributes when raised inside a pooled task:
        a process pool pickles it on the way back."""
        with ParallelRunner(*jobs_mode) as runner:
            with pytest.raises(ConstraintViolation) as info:
                runner.map(_raise_fault, [3, 4])
        assert str(info.value) == "constraint violated: buffer_fits_ram"
        assert info.value.constraint == "buffer_fits_ram"

    def test_process_mode_rejects_unpicklable(self):
        """A task that does not pickle raises before anything is
        submitted: no pool is built and no task runs."""
        with ParallelRunner(jobs=2, mode="process") as runner:
            with pytest.raises(Exception):
                runner.map(lambda x: x, [1, 2])
            assert runner._process_pool is None
        assert global_metrics().value("exec.runner.tasks.process") == 0


class TestSideEffectCounts:
    @pytest.mark.parametrize("jobs_mode", MODES)
    def test_failing_batch_runs_each_task_at_most_once(
        self, jobs_mode, tmp_path
    ):
        path = str(tmp_path / "effects.log")
        items = [(path, i) for i in range(4)]
        with ParallelRunner(*jobs_mode) as runner:
            with pytest.raises(ValueError):
                runner.map(_record_then_maybe_fail, items)
        executed = []
        if os.path.exists(path):
            executed = [
                int(line) for line in open(path).read().splitlines()
            ]
        # The old fallback re-ran tasks on a thread pool and then
        # serially, tripling entries here.
        assert len(executed) == len(set(executed)), (
            f"tasks re-executed with {jobs_mode}: {sorted(executed)}"
        )
        assert len(executed) <= len(items)

    @pytest.mark.parametrize("jobs_mode", MODES)
    def test_successful_batch_runs_each_task_exactly_once(
        self, jobs_mode, tmp_path
    ):
        path = str(tmp_path / "ok.log")
        items = [(path, i) for i in (0, 1, 3, 4)]
        fn = _record_then_maybe_fail  # picklable, no failing index here
        with ParallelRunner(*jobs_mode) as runner:
            result = runner.map(fn, items)
        assert result == [0, 1, 3, 4]
        executed = sorted(int(line) for line in open(path))
        assert executed == [0, 1, 3, 4]


class TestModeAccounting:
    def test_serial_and_pool_task_counters(self):
        registry = MetricsRegistry()
        previous = set_global_metrics(registry)
        try:
            with ParallelRunner(jobs=2, mode="thread") as runner:
                runner.map(_square, [1, 2, 3])
            with ParallelRunner(jobs=1) as runner:
                runner.map(_square, [1, 2])
        finally:
            set_global_metrics(previous)
        assert registry.value("exec.runner.tasks.thread") == 3
        assert registry.value("exec.runner.tasks.serial") == 2
        assert registry.value("exec.runner.maps") == 2
