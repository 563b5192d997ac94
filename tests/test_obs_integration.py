"""Integration tests: tracing through sessions, cache accounting
parity across execution modes, and strict JSON on the service wire."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Budget, make_system
from repro.core.measurement import Measurement
from repro.core.system import InstrumentedSystem
from repro.core.measurement import Observation, TuningHistory
from repro.exec.cache import EvaluationCache
from repro.exec.runner import ParallelRunner
from repro.kb.store import KnowledgeBase, dumps_strict, json_safe
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.obs.trace import Tracer, get_tracer, set_tracer, tracing
from repro.tuners import ITunedTuner
from repro.workloads import htap_mixed, olap_analytics


def _reject(name):
    raise ValueError(f"non-strict JSON literal: {name}")


def _parse_strict(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data, parse_constant=_reject)


def _tuned_session(jobs, tracer, chaos=False, runs=14):
    """One deterministic ituned session; jobs>1 fans batches out.

    Vectorized batching is disabled so jobs>1 exercises the *runner*
    path these tests pin down; vectorized-path parity has its own
    suite.  The runner is a thread pool; a process-mode runner over a
    simulator is checked in ``tests/test_exec_engine.py``.
    """
    sim = make_system("dbms")
    runner = ParallelRunner(jobs=jobs, mode="thread") if jobs > 1 else None
    cache = EvaluationCache()
    system = InstrumentedSystem(
        sim, noise=0.05, rng=np.random.default_rng(1),
        eval_cache=cache, runner=runner, vectorize=False,
    )
    execution = None
    if chaos:
        from repro.chaos.policies import standard_policies
        from repro.chaos.system import ChaosSystem
        from repro.exec.resilience import ExecutionPolicy

        system = ChaosSystem(system, standard_policies(0.25), seed=5)
        execution = ExecutionPolicy(
            deadline_s=120.0, max_retries=1, backoff_base_s=0.1,
            breaker_threshold=3,
        )
    tuner = ITunedTuner(n_init=5, batch_size=3)
    with tracing(tracer):
        result = tuner.tune(
            system, htap_mixed(), Budget(max_runs=runs),
            rng=np.random.default_rng(9), execution=execution,
        )
    return result, cache, system


def _traced_square(x):
    """A pool task that opens a span and counts into the worker's
    registry."""
    with get_tracer().span("square"):
        global_metrics().inc("test.squares")
    return x * x


@pytest.fixture(autouse=True)
def _clean_observability():
    yield
    set_tracer(None)
    reset_global_metrics()


class TestSpanParity:
    def test_serial_and_parallel_trace_identically(self):
        serial_tracer, parallel_tracer = Tracer(), Tracer()
        serial_result, _, _ = _tuned_session(1, serial_tracer)
        parallel_result, _, _ = _tuned_session(3, parallel_tracer)

        assert serial_result.best_runtime_s == parallel_result.best_runtime_s
        exclude = ("runner.",)
        assert serial_tracer.span_counts(exclude) == (
            parallel_tracer.span_counts(exclude)
        )
        counts = serial_tracer.span_counts(exclude)
        assert counts["evaluation"] == serial_result.n_real_runs
        assert counts["batch"] >= 1

    def test_chaotic_sessions_trace_identically(self):
        serial_tracer, parallel_tracer = Tracer(), Tracer()
        _, _, serial_chaos = _tuned_session(1, serial_tracer, chaos=True)
        _, _, parallel_chaos = _tuned_session(3, parallel_tracer, chaos=True)

        assert serial_chaos.fault_digest() == parallel_chaos.fault_digest()
        exclude = ("runner.",)
        assert serial_tracer.span_counts(exclude) == (
            parallel_tracer.span_counts(exclude)
        )

    def test_parallel_trace_contains_adopted_worker_spans(self):
        """A process pool's worker-side spans and metrics cross the
        process boundary: spans re-parented under this process's
        current span, counters merged into its registry."""
        reset_global_metrics()
        tracer = Tracer()
        with tracing(tracer), tracer.span("parent"):
            with ParallelRunner(jobs=2, mode="process") as runner:
                assert runner.map(_traced_square, [1, 2, 3]) == [1, 4, 9]
        assert tracer.span_counts() == {
            "parent": 1, "runner.task": 3, "square": 3,
        }
        by_id = {s.span_id: s for s in tracer.spans()}
        parents = {"runner.task": "parent", "square": "runner.task"}
        for record in tracer.spans():
            if record.name in parents:
                assert by_id[record.parent_id].name == parents[record.name]
        metrics = global_metrics()
        assert metrics.value("exec.runner.tasks.process") == 3
        assert metrics.value("test.squares") == 3


class TestCacheAccountingParity:
    def test_hit_miss_stats_identical_across_modes(self):
        _, serial_cache, _ = _tuned_session(1, None)
        _, parallel_cache, _ = _tuned_session(3, None)
        serial_stats = serial_cache.stats()
        parallel_stats = parallel_cache.stats()
        for field in ("entries", "hits", "misses", "evictions"):
            assert serial_stats[field] == parallel_stats[field], (
                f"{field}: {serial_stats} != {parallel_stats}"
            )

    def test_lookup_counts_and_refreshes_lru(self):
        cache = EvaluationCache(max_entries=2)
        m = Measurement.failure()
        cache.store(("a",), m)
        cache.store(("b",), m)

        assert cache.lookup(("a",)) is m   # hit; refreshes "a"
        assert cache.lookup(("x",)) is None  # miss
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

        cache.store(("c",), m)  # now "b" is the oldest
        assert cache.lookup(("a",)) is m
        assert cache.lookup(("b",)) is None
        assert cache.stats()["evictions"] == 1


class TestStrictServiceJson:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.kb.service import make_server

        kb = KnowledgeBase(str(tmp_path / "svc.kb"))
        system = make_system("dbms")
        good = TuningHistory()
        good.record(Observation(
            system.default_configuration(),
            system.run(htap_mixed(), system.default_configuration()),
            tag="default",
        ))
        kb.ingest_history(system, htap_mixed(), good)

        failed = TuningHistory()
        failed.record(Observation(
            system.default_configuration(), Measurement.failure(),
            tag="all-failed",
        ))
        kb.ingest_history(system, olap_analytics(), failed)

        srv = make_server(kb)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        host, port = srv.server_address[:2]
        yield f"http://{host}:{port}"
        srv.shutdown()
        thread.join(timeout=5)
        srv.server_close()
        kb.close()

    def test_metrics_endpoint_strict_json_under_concurrency(self, server):
        def fetch(_):
            with urllib.request.urlopen(f"{server}/metrics", timeout=10) as r:
                assert r.status == 200
                return _parse_strict(r.read())

        with ThreadPoolExecutor(max_workers=12) as pool:
            payloads = list(pool.map(fetch, range(12)))
        assert len(payloads) == 12
        for payload in payloads:
            assert payload["kb"]["n_sessions"] == 2
            assert "counters" in payload["metrics"]
        # Request accounting from earlier requests is visible.
        last = payloads[-1]["metrics"]
        assert any(
            k.startswith("kb.http.metrics.") for k in last["counters"]
        )

    def test_recommend_with_inf_best_session_is_strict(self, server):
        body = json.dumps(
            {"workload": htap_mixed().name, "k": 5}
        ).encode()
        req = urllib.request.Request(
            f"{server}/recommend", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as r:
            payload = _parse_strict(r.read())
        runtimes = {
            m["workload"]: m["best_runtime_s"] for m in payload["matches"]
        }
        # The all-failed session's inf best rides the wire as "inf".
        assert runtimes[olap_analytics().name] == "inf"

    def test_client_error_is_strict_json_400(self, server):
        req = urllib.request.Request(
            f"{server}/recommend", data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        payload = _parse_strict(excinfo.value.read())
        assert "error" in payload


class TestBenchObsService:
    def test_counts_every_metrics_request(self):
        # the count is read from the process's registry, not from one
        # client's reply, so thread timing cannot change it
        from repro.bench.obs import _service_check

        first = _service_check(n_clients=4)
        second = _service_check(n_clients=4)
        assert first["metrics_requests"] == second["metrics_requests"] == 4


class TestStrictEncoding:
    def test_json_safe_rewrites_nonfinite(self):
        payload = {
            "a": float("inf"),
            "b": [float("-inf"), {"c": float("nan")}],
            "d": (1.5, 2),
        }
        safe = json_safe(payload)
        assert safe["a"] == "inf"
        assert safe["b"][0] == "-inf"
        assert safe["b"][1]["c"] == "nan"
        assert safe["d"] == [1.5, 2]

    def test_dumps_strict_round_trips(self):
        data = dumps_strict({"x": float("inf"), "y": 3.0})
        back = _parse_strict(data)
        assert back == {"x": "inf", "y": 3.0}

    def test_plain_dumps_would_have_leaked(self):
        # The regression this layer fixes: stdlib default emits a
        # non-RFC-8259 literal that strict parsers reject.
        leaky = json.dumps({"x": float("inf")})
        assert "Infinity" in leaky
        with pytest.raises(ValueError):
            _parse_strict(leaky)


class TestCliTrace:
    def test_tune_trace_writes_parseable_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        rc = main([
            "tune", "--system", "dbms", "--workload", "htap",
            "--runs", "8", "--trace", str(path),
        ])
        assert rc == 0
        lines = path.read_text().splitlines()
        records = [_parse_strict(line) for line in lines]
        names = [r["name"] for r in records]
        assert "session" in names
        assert names.count("evaluation") == 8
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "session"
        out = capsys.readouterr().out
        assert "trace:" in out and str(path) in out
