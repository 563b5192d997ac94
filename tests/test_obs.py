"""Unit tests for the observability layer (repro.obs)."""

import gc
import json
import math
import sys
import threading
import tracemalloc

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    global_metrics,
    reset_global_metrics,
    set_global_metrics,
)
from repro.obs.trace import (
    Tracer,
    event,
    get_tracer,
    set_tracer,
    span,
    tracing,
)


def _strict(payload):
    """json round-trip that rejects Infinity/NaN literals."""
    def reject(name):
        raise ValueError(name)
    return json.loads(
        json.dumps(payload, allow_nan=False), parse_constant=reject
    )


class TestMetricsRegistry:
    def test_counter_basics(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.5)
        assert m.value("a") == pytest.approx(3.5)
        assert m.value("missing") == 0.0

    def test_gauge_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("g", 1)
        m.set_gauge("g", 7)
        assert m.snapshot()["gauges"]["g"] == 7.0

    def test_histogram_summary(self):
        m = MetricsRegistry()
        for v in (0.001, 0.002, 0.003, 0.004, 1.0):
            m.observe("h", v)
        h = m.snapshot()["histograms"]["h"]
        assert h["count"] == 5
        assert h["min"] == pytest.approx(0.001)
        assert h["max"] == pytest.approx(1.0)
        assert h["mean"] == pytest.approx(0.202)
        assert h["p50"] <= h["p95"] <= h["p99"]
        # p50 lands in the bucket holding the 3rd of 5 samples
        # (0.003 and 0.004 share the <=0.005 decade-ladder bucket).
        assert h["p50"] == pytest.approx(0.005)

    def test_concurrent_increments_merge_exactly(self):
        m = MetricsRegistry()
        n, per = 8, 5000

        def work():
            for _ in range(per):
                m.inc("c")
                m.observe("h", 0.01)

        threads = [threading.Thread(target=work) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.value("c") == n * per
        assert m.snapshot()["histograms"]["h"]["count"] == n * per

    def test_no_write_is_lost_under_fast_thread_switching(self):
        # a thread switch between a read and the write built from it
        # (a merge rebuilds the bucket list) would drop a write; a 1 µs
        # switch interval makes one likely
        m = MetricsRegistry()
        n, per = 8, 2000
        sample = MetricsRegistry()
        sample.inc("c")
        sample.observe("h", 0.01)
        worker = sample.export_state()

        def work():
            for _ in range(per):
                m.inc("c")
                m.observe("h", 0.01)
                m.merge_state(worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert m.value("c") == 2 * n * per
        hist = m.export_state()["histograms"]["h"]
        assert hist["count"] == sum(hist["buckets"]) == 2 * n * per

    def test_exited_threads_leave_nothing_behind(self):
        # repro serve runs each connection on a new thread: the registry
        # must not keep anything for a thread once it has exited
        m = MetricsRegistry()
        m.inc("c")
        m.observe("h", 0.01)

        def write_once():
            m.inc("c")
            m.observe("h", 0.01)

        tracemalloc.start()
        try:
            for _ in range(500):
                thread = threading.Thread(target=write_once)
                thread.start()
                thread.join()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024
        assert m.value("c") == 501
        assert m.snapshot()["histograms"]["h"]["count"] == 501

    def test_snapshot_is_strict_json(self):
        m = MetricsRegistry()
        m.inc("c", 2)
        m.observe("h", 0.5)
        m.set_gauge("g", 3.0)
        m.set_gauge("bad", math.inf)  # non-finite gauges are dropped
        back = _strict(m.snapshot())
        assert back["counters"]["c"] == 2
        assert "bad" not in back["gauges"]

    def test_export_merge_state_round_trip(self):
        worker = MetricsRegistry()
        worker.inc("tasks", 3)
        worker.observe("lat", 0.2)
        worker.observe("lat", 0.4)
        parent = MetricsRegistry()
        parent.inc("tasks", 1)
        parent.merge_state(worker.export_state())
        assert parent.value("tasks") == 4
        merged = parent.snapshot()["histograms"]["lat"]
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(0.6)

    def test_reset_zeroes_everything(self):
        m = MetricsRegistry()
        m.inc("c")
        m.observe("h", 1.0)
        m.set_gauge("g", 1.0)
        m.reset()
        snap = m.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_global_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_global_metrics(fresh)
        try:
            global_metrics().inc("x")
            assert fresh.value("x") == 1
        finally:
            set_global_metrics(previous)
        assert global_metrics() is previous


class TestTracer:
    def test_nesting_parent_links(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                t.event("tick", k=1)
        spans = t.spans()
        assert [s.name for s in spans] == ["outer", "inner", "tick"]
        assert spans[0].parent_id is None
        assert inner.parent_id == outer.span_id
        assert spans[2].parent_id == inner.span_id
        assert all(
            s.duration_s is not None and s.duration_s >= 0 for s in spans
        )

    def test_error_status_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("broken"):
                raise RuntimeError("boom")
        record = t.spans()[0]
        assert record.status == "error"
        assert record.attrs["error"] == "RuntimeError"

    def test_ring_buffer_drops_oldest(self):
        t = Tracer(capacity=3)
        for i in range(5):
            t.event(f"e{i}")
        assert len(t) == 3
        assert t.dropped == 2
        assert [s.name for s in t.spans()] == ["e2", "e3", "e4"]

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with worker.span("task"):
            worker.event("step")
        payloads = worker.export_state()

        parent = Tracer()
        with parent.span("batch") as batch:
            parent.adopt(payloads)
        spans = {s.name: s for s in parent.spans()}
        assert spans["task"].parent_id == batch.span_id
        assert spans["step"].parent_id == spans["task"].span_id
        ids = [s.span_id for s in parent.spans()]
        assert len(ids) == len(set(ids))

    def test_span_counts_and_exclusion(self):
        t = Tracer()
        with t.span("evaluation"):
            pass
        with t.span("runner.task"):
            pass
        assert t.span_counts() == {"evaluation": 1, "runner.task": 1}
        assert t.span_counts(exclude_prefixes=("runner.",)) == {
            "evaluation": 1
        }

    def test_export_jsonl_strict(self, tmp_path):
        t = Tracer()
        with t.span("s", bad=math.inf, nan=math.nan, obj=object()):
            pass
        path = tmp_path / "trace.jsonl"
        n = t.export_jsonl(str(path))
        assert n == 1
        lines = path.read_text().splitlines()

        def reject(name):
            raise ValueError(name)

        record = json.loads(lines[0], parse_constant=reject)
        assert record["attrs"]["bad"] == "inf"
        assert record["attrs"]["nan"] == "nan"
        assert isinstance(record["attrs"]["obj"], str)

    def test_thread_local_stacks(self):
        t = Tracer()
        seen = {}

        def worker():
            # A fresh thread has no inherited active span.
            seen["parent"] = t.current()
            with t.span("child") as c:
                seen["child_parent"] = c.parent_id

        with t.span("main"):
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        assert seen["parent"] is None
        assert seen["child_parent"] is None


class TestModuleHelpers:
    def test_noop_when_inactive(self):
        assert get_tracer() is None
        with span("anything", k=1) as record:
            assert record is None
        event("nothing")  # must not raise

    def test_active_records(self):
        with tracing() as t:
            with span("outer") as record:
                assert record is not None
                event("mark", v=2)
        assert get_tracer() is None
        assert t.span_counts() == {"mark": 1, "outer": 1}

    def test_set_tracer_returns_previous(self):
        first = Tracer()
        assert set_tracer(first) is None
        second = Tracer()
        assert set_tracer(second) is first
        assert set_tracer(None) is second


@pytest.fixture(autouse=True)
def _clean_global_state():
    yield
    set_tracer(None)
    reset_global_metrics()
