"""Observability smoke benchmark: span parity, overhead, strict JSON.

``python -m repro bench obs --json BENCH_obs.json`` runs the same
seeded tuning session four ways — untraced serial (the baseline),
traced serial, traced parallel, and a traced chaos variant — and
asserts the three guarantees the observability layer makes:

1. **Span parity** — serial and parallel execution of one scenario
   produce *identical* logical span counts (``session``, ``batch``,
   ``evaluation``, plus retry/fault/quarantine events).  Only
   ``runner.*`` spans, which describe the execution strategy rather
   than the tuning logic, may differ and are excluded from the
   comparison.
2. **Overhead budget** — leaving tracing on costs < 5% wall-clock
   against the untraced baseline, in the best of three interleaved
   timing pairs (the report's cells) to shave scheduler noise.
3. **Strict wire format** — ``GET /metrics`` (and ``POST /recommend``
   against a knowledge base containing an all-failed, ``inf``-best
   session) returns valid RFC 8259 JSON under 12 concurrent clients;
   every response is parsed with a parser that rejects the
   ``Infinity``/``NaN`` literals outright.

Any violated guarantee raises ``AssertionError``, so the CI bench job
fails loudly rather than archiving a bad report.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.matrix import bench_jobs, make_report
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.obs.trace import Tracer, tracing

__all__ = ["run"]

#: Span names that describe *how* work was executed (pool tasks), not
#: *what* the tuner did; excluded from serial-vs-parallel comparison.
_STRATEGY_PREFIXES = ("runner.",)

_OVERHEAD_BUDGET = 0.05

#: Interleaved (untraced, traced) timing pairs behind the overhead gate.
_REPS = 3

COLUMNS = ("rep", "baseline_s", "traced_s", "ratio")


def _reject_constant(_name: str) -> None:
    raise ValueError(f"non-RFC-8259 literal on the wire: {_name}")


def _parse_strict(data: bytes) -> Any:
    """JSON parse that hard-fails on ``Infinity``/``-Infinity``/``NaN``."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _run_cell(
    quick: bool,
    jobs: int,
    chaos: bool,
    tracer: Optional[Tracer],
) -> Dict[str, Any]:
    """One fully seeded tuning session; everything derives from args.

    ``jobs<=1`` runs serially (no runner at all); ``jobs>1`` fans inner
    batch execution over a :class:`~repro.exec.runner.ParallelRunner`.
    Measurements are byte-identical either way (noise and chaos
    injection are applied parent-side in batch order), so span parity
    is a meaningful invariant, not a coincidence.
    """
    from repro import Budget, make_system
    from repro.chaos.policies import standard_policies
    from repro.chaos.system import ChaosSystem
    from repro.core.system import InstrumentedSystem
    from repro.exec.cache import EvaluationCache
    from repro.exec.resilience import ExecutionPolicy
    from repro.exec.runner import ParallelRunner
    from repro.tuners import ITunedTuner
    from repro.workloads import htap_mixed

    sim = make_system("dbms")
    workload = htap_mixed()
    baseline_s = sim.run(workload, sim.default_configuration()).runtime_s

    runner = ParallelRunner(jobs=jobs) if jobs > 1 else None
    cache = EvaluationCache()
    system: Any = InstrumentedSystem(
        sim, noise=0.05, rng=np.random.default_rng(1),
        eval_cache=cache, runner=runner,
    )
    execution = None
    chaos_system = None
    if chaos:
        chaos_system = ChaosSystem(
            system, standard_policies(0.2), seed=17,
        )
        system = chaos_system
        execution = ExecutionPolicy(
            deadline_s=3.0 * baseline_s,
            max_retries=1,
            backoff_base_s=0.1,
            breaker_threshold=3,
            failure_policy="penalize",
        )

    tuner = ITunedTuner(n_init=6, batch_size=4)
    budget = Budget(max_runs=40 if quick else 80)

    start = time.perf_counter()
    with tracing(tracer) if tracer is not None else nullcontext():
        result = tuner.tune(
            system, workload, budget,
            rng=np.random.default_rng(7), execution=execution,
        )
    wall_s = time.perf_counter() - start

    cell: Dict[str, Any] = {
        "jobs": jobs,
        "chaos": chaos,
        "wall_s": wall_s,
        "best_runtime_s": result.best_runtime_s,
        "n_real_runs": result.n_real_runs,
        "cache": cache.stats(),
    }
    if chaos_system is not None:
        cell["fault_digest"] = chaos_system.fault_digest()
        cell["fault_counts"] = dict(chaos_system.fault_counts)
    if tracer is not None:
        cell["span_counts"] = tracer.span_counts(
            exclude_prefixes=_STRATEGY_PREFIXES
        )
        cell["n_spans"] = len(tracer)
        cell["dropped_spans"] = tracer.dropped
    return cell


def _overhead_pair(
    reps: int, quick: bool
) -> "tuple[Dict[str, Any], Dict[str, Any]]":
    """Interleaved (untraced, traced) serial timing cells.

    Each rep runs the untraced and traced configuration back to back,
    so slow drift in machine load hits both sides of a pair equally.
    The per-pair wall-clock ratios land in ``traced["ratios"]``.  The
    overhead gate uses their *minimum*: genuine instrumentation cost is
    deterministic and inflates every pair, while scheduler noise is
    one-sided per pair — so the best pair bounds the systemic overhead
    from above and the gate cannot be tripped by a single load spike.
    The last rep's cells are returned (identical seeds make every
    rep's results equal) with ``wall_s`` replaced by the per-side
    minimum.
    """
    base_walls: List[float] = []
    traced_walls: List[float] = []
    base_cell: Dict[str, Any] = {}
    traced_cell: Dict[str, Any] = {}
    for _ in range(reps):
        base_cell = _run_cell(quick, 1, False, None)
        base_walls.append(base_cell["wall_s"])
        traced_cell = _run_cell(quick, 1, False, Tracer())
        traced_walls.append(traced_cell["wall_s"])
    base_cell["wall_s"] = min(base_walls)
    base_cell["wall_reps_s"] = [round(w, 4) for w in base_walls]
    traced_cell["wall_s"] = min(traced_walls)
    traced_cell["wall_reps_s"] = [round(w, 4) for w in traced_walls]
    ratios = sorted(t / b for t, b in zip(traced_walls, base_walls))
    traced_cell["ratios"] = [round(r, 4) for r in ratios]
    traced_cell["min_ratio"] = ratios[0]
    traced_cell["median_ratio"] = ratios[len(ratios) // 2]
    return base_cell, traced_cell


def _service_check(n_clients: int = 12) -> Dict[str, Any]:
    """Hammer ``GET /metrics`` + ``POST /recommend`` concurrently.

    The knowledge base holds one real session and one all-failed
    session whose best runtime is ``math.inf`` — the exact payload that
    used to leak ``Infinity`` onto the wire.  Every response must parse
    under a strict RFC 8259 parser.
    """
    from repro import Budget, make_system, make_tuner
    from repro.core.measurement import Measurement
    from repro.core.measurement import Observation, TuningHistory
    from repro.kb import KnowledgeBase
    from repro.kb.service import make_server
    from repro.workloads import htap_mixed, olap_analytics

    with tempfile.TemporaryDirectory() as tmp:
        kb = KnowledgeBase(os.path.join(tmp, "obs-bench.kb"))
        system = make_system("dbms")
        workload = htap_mixed()
        result = make_tuner("random-search").tune(
            system, workload, Budget(max_runs=6),
            rng=np.random.default_rng(3),
        )
        kb.ingest_result(system, workload, result, seed=3)

        failed = TuningHistory()
        failed.record(Observation(
            system.default_configuration(), Measurement.failure(),
            tag="all-failed",
        ))
        kb.ingest_history(system, olap_analytics(), failed)

        server = make_server(kb)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        server_thread = ThreadPoolExecutor(max_workers=1)
        server_thread.submit(server.serve_forever)

        def _client(i: int) -> Dict[str, Any]:
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as rsp:
                metrics = _parse_strict(rsp.read())
            body = json.dumps({"workload": workload.name, "k": 5}).encode()
            req = urllib.request.Request(
                f"{base}/recommend", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as rsp:
                recommend = _parse_strict(rsp.read())
            return {"metrics": metrics, "recommend": recommend}

        try:
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                responses = list(pool.map(_client, range(n_clients)))
        finally:
            server.shutdown()
            server_thread.shutdown(wait=True)
            server.server_close()
            kb.close()

    assert len(responses) == n_clients
    sample = responses[0]["metrics"]
    assert "metrics" in sample and "counters" in sample["metrics"], (
        "GET /metrics payload is missing the registry snapshot"
    )
    # The inf-best stored session must ride the wire as the string
    # "inf" (KB encoding), never as a bare Infinity literal — the
    # strict parser above would have thrown, but make the positive
    # check too: matches include the all-failed session.
    matches = responses[0]["recommend"]["matches"]
    runtimes = {m["workload"]: m["best_runtime_s"] for m in matches}
    assert runtimes.get(olap_analytics().name) == "inf", (
        f"expected the all-failed session to encode inf as 'inf', "
        f"got {runtimes!r}"
    )
    latency = (
        sample["metrics"]["histograms"].get("kb.http.metrics.seconds")
    )
    return {
        "n_clients": n_clients,
        "all_strict_json": True,
        "inf_encoded_as_string": True,
        "metrics_latency": latency,
    }


def run(quick: bool = True, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run the observability smoke benchmark and return its report.

    Args:
        quick: small budgets (the CI configuration).
        jobs: worker count for the parallel cells
            (``None`` → ``REPRO_JOBS`` → 2; at least 2).

    Returns:
        The report dict; its cells are the timing pairs.  Raises
        ``AssertionError`` when span counts diverge between serial and
        parallel execution, when tracing overhead exceeds the 5%
        budget, or when any service response fails strict-JSON parsing.
    """
    start = time.perf_counter()
    jobs = max(2, bench_jobs(jobs))
    reset_global_metrics()

    # -- overhead: untraced vs traced, serial, min-of-reps ------------------
    # One untimed warmup first so lazy imports and allocator warm-up are
    # paid before the baseline (they would otherwise bias the ratio).
    _run_cell(quick, 1, False, None)
    baseline, traced_serial = _overhead_pair(_REPS, quick)
    overhead = traced_serial["min_ratio"] - 1.0
    assert overhead < _OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.1%} in every timing pair "
        f"(ratios {traced_serial['ratios']}) exceeds the "
        f"{_OVERHEAD_BUDGET:.0%} budget "
        f"(baseline {baseline['wall_s']:.3f}s, "
        f"traced {traced_serial['wall_s']:.3f}s)"
    )

    # -- span parity: serial vs parallel, clean and chaotic -----------------
    parity: Dict[str, Any] = {}
    for label, chaos in (("clean", False), ("chaotic", True)):
        serial_tracer, parallel_tracer = Tracer(), Tracer()
        serial = _run_cell(quick, 1, chaos, serial_tracer)
        parallel = _run_cell(quick, jobs, chaos, parallel_tracer)
        assert serial["span_counts"] == parallel["span_counts"], (
            f"{label}: serial and parallel span counts diverge:\n"
            f"  serial   {serial['span_counts']}\n"
            f"  parallel {parallel['span_counts']}"
        )
        assert serial["best_runtime_s"] == parallel["best_runtime_s"], (
            f"{label}: execution mode changed the tuning result"
        )
        assert serial["cache"]["hits"] == parallel["cache"]["hits"], (
            f"{label}: cache hit accounting diverges across modes: "
            f"{serial['cache']} vs {parallel['cache']}"
        )
        assert serial["cache"]["misses"] == parallel["cache"]["misses"], (
            f"{label}: cache miss accounting diverges across modes: "
            f"{serial['cache']} vs {parallel['cache']}"
        )
        if chaos:
            assert serial["fault_digest"] == parallel["fault_digest"], (
                "chaotic: fault sequences diverge across modes"
            )
        parity[label] = {
            "span_counts": serial["span_counts"],
            "serial_spans": serial["n_spans"],
            "parallel_spans": parallel["n_spans"],
            "identical": True,
            "best_runtime_s": round(serial["best_runtime_s"], 4),
            "n_real_runs": serial["n_real_runs"],
            "cache": serial["cache"],
        }
        if chaos:
            parity[label]["fault_digest"] = serial["fault_digest"]
            parity[label]["fault_counts"] = serial["fault_counts"]

    # -- service: strict JSON under concurrency -----------------------------
    service = _service_check()

    snapshot = global_metrics().snapshot()
    cells = [
        {"rep": i, "baseline_s": b, "traced_s": t, "ratio": round(t / b, 4)}
        for i, (b, t) in enumerate(zip(
            baseline["wall_reps_s"], traced_serial["wall_reps_s"]
        ))
    ]
    return make_report(
        "obs-smoke", quick, cells, start,
        jobs=jobs,
        reps=_REPS,
        baseline_wall_s=round(baseline["wall_s"], 4),
        traced_wall_s=round(traced_serial["wall_s"], 4),
        overhead=round(overhead, 4),
        overhead_median=round(traced_serial["median_ratio"] - 1.0, 4),
        overhead_ratios=traced_serial["ratios"],
        overhead_budget=_OVERHEAD_BUDGET,
        span_parity=parity,
        service=service,
        metrics_excerpt={
            "counters": {
                k: v for k, v in snapshot["counters"].items()
                if k.startswith((
                    "session.", "exec.", "chaos.", "resilience.",
                ))
            },
        },
    )
