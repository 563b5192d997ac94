"""Observability smoke benchmark: tracing overhead and strict JSON.

``python -m repro bench obs --json BENCH_obs.json`` runs one seeded
tuning session untraced (the baseline) and traced, and asserts two of
the guarantees the observability layer makes:

1. **Overhead budget** — leaving tracing on costs < 5% wall-clock
   against the untraced baseline, in the best of three interleaved
   timing pairs (the report's cells) to shave scheduler noise.
2. **Strict wire format** — ``GET /metrics`` (and ``POST /recommend``
   against a knowledge base containing an all-failed, ``inf``-best
   session) returns valid RFC 8259 JSON under 12 concurrent clients;
   every response is parsed with a parser that rejects the
   ``Infinity``/``NaN`` literals outright.

The third, identical logical spans however batches execute, is pinned
by ``tests/test_obs_integration.py``.  Any
violated guarantee raises ``AssertionError``, so the CI bench job fails
loudly rather than archiving a bad report.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.obs.trace import Tracer, tracing

__all__ = ["run"]

_OVERHEAD_BUDGET = 0.05

#: Interleaved (untraced, traced) timing pairs behind the overhead gate.
_REPS = 3

COLUMNS = ("rep", "baseline_s", "traced_s", "ratio")

#: The registry's count of ``GET /metrics`` requests answered 200.
_METRICS_SERVED = "kb.http.metrics.200"


def _reject_constant(_name: str) -> None:
    raise ValueError(f"non-RFC-8259 literal on the wire: {_name}")


def _parse_strict(data: bytes) -> Any:
    """JSON parse that hard-fails on ``Infinity``/``-Infinity``/``NaN``."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _session_wall_s(quick: bool, tracer: Optional[Tracer]) -> float:
    """Wall seconds of one fully seeded tuning session, traced into
    ``tracer`` when one is given."""
    from repro import Budget, make_system
    from repro.core.system import InstrumentedSystem
    from repro.exec.cache import EvaluationCache
    from repro.tuners import ITunedTuner
    from repro.workloads import htap_mixed

    system = InstrumentedSystem(
        make_system("dbms"), noise=0.05, rng=np.random.default_rng(1),
        eval_cache=EvaluationCache(),
    )
    workload = htap_mixed()
    tuner = ITunedTuner(n_init=6, batch_size=4)
    budget = Budget(max_runs=40 if quick else 80)

    start = time.perf_counter()
    with tracing(tracer) if tracer is not None else nullcontext():
        tuner.tune(system, workload, budget, rng=np.random.default_rng(7))
    return time.perf_counter() - start


def _overhead_pairs(reps: int, quick: bool) -> Tuple[List[float], List[float]]:
    """Interleaved (untraced, traced) session wall times.

    Each rep runs the untraced and traced session back to back, so slow
    drift in machine load hits both sides of a pair equally.  The
    overhead gate uses the *minimum* traced/untraced ratio: genuine
    instrumentation cost is deterministic and inflates every pair,
    while scheduler noise is one-sided per pair — so the best pair
    bounds the systemic overhead from above and the gate cannot be
    tripped by a single load spike.
    """
    base_walls: List[float] = []
    traced_walls: List[float] = []
    for _ in range(reps):
        base_walls.append(_session_wall_s(quick, None))
        traced_walls.append(_session_wall_s(quick, Tracer()))
    return base_walls, traced_walls


def _service_check(n_clients: int = 12) -> Dict[str, Any]:
    """Hammer ``GET /metrics`` + ``POST /recommend`` concurrently.

    The knowledge base holds one real session and one all-failed
    session whose best runtime is ``math.inf`` — the exact payload that
    used to leak ``Infinity`` onto the wire.  Every response must parse
    under a strict RFC 8259 parser.  ``metrics_requests`` is how many
    ``/metrics`` requests the process's registry counted while the
    clients ran: ``n_clients``, however their threads interleave.
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

        served_before = global_metrics().value(_METRICS_SERVED)
        try:
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                responses = list(pool.map(_client, range(n_clients)))
            # the handler counts a request before it replies, so every
            # reply the pool read is counted by now
            metrics_requests = (
                global_metrics().value(_METRICS_SERVED) - served_before
            )
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
    return {
        "n_clients": n_clients,
        "all_strict_json": True,
        "inf_encoded_as_string": True,
        "metrics_requests": int(metrics_requests),
    }


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the observability smoke benchmark and return its report.

    Args:
        quick: small budgets (the CI configuration).

    Returns:
        The report dict; its cells are the timing pairs.  Raises
        ``AssertionError`` when tracing overhead exceeds the 5% budget
        or when any service response fails strict-JSON parsing.
    """
    start = time.perf_counter()
    reset_global_metrics()

    # -- overhead: untraced vs traced, serial, min-of-reps ------------------
    # One untimed warmup first so lazy imports and allocator warm-up are
    # paid before the baseline (they would otherwise bias the ratio).
    _session_wall_s(quick, None)
    base_walls, traced_walls = _overhead_pairs(_REPS, quick)
    ratios = sorted(t / b for t, b in zip(traced_walls, base_walls))
    overhead = ratios[0] - 1.0
    assert overhead < _OVERHEAD_BUDGET, (
        f"tracing overhead {overhead:.1%} in every timing pair "
        f"(ratios {[round(r, 4) for r in ratios]}) exceeds the "
        f"{_OVERHEAD_BUDGET:.0%} budget "
        f"(baseline {min(base_walls):.3f}s, "
        f"traced {min(traced_walls):.3f}s)"
    )

    # -- service: strict JSON under concurrency -----------------------------
    service = _service_check()

    snapshot = global_metrics().snapshot()
    cells = [
        {"rep": i, "baseline_s": round(b, 4), "traced_s": round(t, 4),
         "ratio": round(t / b, 4)}
        for i, (b, t) in enumerate(zip(base_walls, traced_walls))
    ]
    return make_report(
        "obs-smoke", quick, cells, start,
        reps=_REPS,
        baseline_wall_s=round(min(base_walls), 4),
        traced_wall_s=round(min(traced_walls), 4),
        overhead=round(overhead, 4),
        overhead_median=round(ratios[len(ratios) // 2] - 1.0, 4),
        overhead_ratios=[round(r, 4) for r in ratios],
        overhead_budget=_OVERHEAD_BUDGET,
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
