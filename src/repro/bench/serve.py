"""Serving benchmark: the recommendation service under 1000+ clients.

``python -m repro bench serve --json BENCH_serve.json`` stress-tests
the production serving stack (:mod:`repro.kb.serving`) the way the
online-tuning papers in PAPERS.md measure deployment overhead: mixed
traffic, tail latency, and explicit overload behavior.  Three cells:

* ``clean`` — 1000 concurrent clients (64 in quick mode) drive a
  mixed recommend/ingest/workloads/metrics/healthz workload over
  keep-alive connections against a generously provisioned server.
  Every response must be HTTP 200 with a parseable strict-JSON body:
  zero drops, zero malformed replies, zero shedding.
* ``chaos`` — same storm with ~10% hostile traffic injected: bad ``k``
  types, non-object bodies, invalid JSON bytes, unknown workloads, and
  oversized ``Content-Length`` declarations.  Hostile requests must be
  answered with their exact 4xx (400/413) and everything else must
  still get its 200 — no 5xx anywhere, no dropped connections.
* ``overload`` — a deliberately tiny server (2 workers, queue limit 8,
  50 ms predicted-wait cap, coalescing off) fed an artificially slowed
  recommend path.  Admission control must engage: 429s with
  ``Retry-After`` are *required*, 5xx are forbidden, and ``/healthz``
  (which bypasses the request queue) must keep answering mid-storm.

Every cell also runs the **durability accounting check**: the number of
ingest requests acked 200 must equal the growth of the knowledge base —
the write-behind queue may shed or fail a request, but it can never ack
a session that did not durably commit (and every ack must be counted).

Client-side latencies are reported per endpoint as p50/p95/p99/max;
server-side shed/coalesce/ingest counters come from the serving stack's
own ``stats()`` snapshots.  Thread stacks are shrunk and the open-file
limit raised so a single small host can hold 1000+ client threads plus
the server's connection threads.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import zlib
from http.client import HTTPConnection
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.core.tuner import Budget
from repro.kb import KnowledgeBase
from repro.kb.service import RecommendationService, make_server
from repro.kb.serving import ServingConfig
from repro.systems.dbms import (
    DbmsSimulator,
    htap_mixed,
    olap_analytics,
    oltp_orders,
)
from repro.tuners import RandomSearchTuner

__all__ = ["run"]

COLUMNS = (
    "cell", "n_clients", "total_requests", "throughput_rps", "n_429",
    "n_5xx", "n_dropped",
)

#: Per-client request mix (cumulative weights) for the clean storm.
_MIX = (
    ("recommend", 0.60),
    ("ingest", 0.80),
    ("workloads", 0.90),
    ("metrics", 0.95),
    ("healthz", 1.00),
)

#: Fraction of hostile requests in the chaos cell.
_CHAOS_RATE = 0.10

_HEADERS = {"Content-Type": "application/json"}


def _percentiles(samples: List[float]) -> Dict[str, Optional[float]]:
    """Client-side p50/p95/p99/max in milliseconds."""
    if not samples:
        return {"p50_ms": None, "p95_ms": None, "p99_ms": None,
                "max_ms": None}
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return round(ordered[max(0, index)] * 1000.0, 3)

    return {
        "p50_ms": at(0.50),
        "p95_ms": at(0.95),
        "p99_ms": at(0.99),
        "max_ms": round(ordered[-1] * 1000.0, 3),
    }


def _seed_kb(kb: KnowledgeBase, seed: int) -> Dict[str, Any]:
    """Populate the KB with real tuning sessions + one ingest payload.

    Returns the reusable ``kb_session`` document the storm's ingest
    traffic posts (each POST stores a fresh session row).
    """
    system = DbmsSimulator()
    workloads = [olap_analytics(), oltp_orders(), htap_mixed()]
    for offset, workload in enumerate(workloads):
        result = RandomSearchTuner().tune(
            system, workload, Budget(max_runs=8),
            np.random.default_rng(seed + offset),
        )
        kb.ingest_result(system, workload, result, seed=seed + offset)
    result = RandomSearchTuner().tune(
        system, htap_mixed(), Budget(max_runs=4),
        np.random.default_rng(seed + 17),
    )
    return kb.session_payload(system, htap_mixed(), result, seed=seed + 17)


class _SlowService(RecommendationService):
    """Recommendation service with an injected per-request delay.

    The overload cell needs service time to dominate queue drain so
    admission control provably engages; the simulators alone answer in
    well under a millisecond.
    """

    def __init__(self, *args: Any, delay_s: float = 0.02, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.delay_s = delay_s

    def recommend(self, request: Any) -> Dict[str, Any]:
        time.sleep(self.delay_s)
        return super().recommend(request)


# -- client-side traffic -----------------------------------------------------
class _Step:
    """One planned request: what to send and which statuses are correct."""

    __slots__ = ("endpoint", "method", "path", "body", "expect", "hostile")

    def __init__(self, endpoint: str, method: str, path: str,
                 body: Optional[bytes], expect: Tuple[int, ...],
                 hostile: bool = False) -> None:
        self.endpoint = endpoint
        self.method = method
        self.path = path
        self.body = body
        self.expect = expect
        self.hostile = hostile


def _recommend_body(rng: random.Random) -> bytes:
    """A valid /recommend body drawn from a small pool.

    The pool is deliberately small so concurrent identical bodies
    exercise the coalescing path while distinct ones keep the queue
    honest.
    """
    workload = rng.choice(
        [olap_analytics().name, oltp_orders().name, htap_mixed().name]
    )
    request: Dict[str, Any] = {"workload": workload, "k": rng.choice([1, 2, 3])}
    if rng.random() < 0.25:
        request["system_kind"] = "dbms"
    return json.dumps(request).encode()


def _hostile_step(rng: random.Random) -> _Step:
    """One chaos request with its exact expected status."""
    kind = rng.randrange(5)
    if kind == 0:  # non-numeric k → 400 (the service.py:130 regression)
        body = json.dumps({"workload": olap_analytics().name,
                           "k": "abc"}).encode()
        return _Step("recommend", "POST", "/recommend", body, (400,), True)
    if kind == 1:  # top-level array body → 400
        return _Step("recommend", "POST", "/recommend", b"[1, 2]", (400,),
                     True)
    if kind == 2:  # invalid JSON bytes → 400
        return _Step("recommend", "POST", "/recommend", b"{not json",
                     (400,), True)
    if kind == 3:  # unknown workload → 400
        body = json.dumps({"workload": "never-stored-anywhere"}).encode()
        return _Step("recommend", "POST", "/recommend", body, (400,), True)
    # declared Content-Length beyond the cap → 413 (body never sent)
    return _Step("oversized", "POST", "/ingest", None, (413,), True)


def _client_plan(index: int, n_requests: int, seed: int, chaos: bool,
                 ingest_body: bytes) -> List[_Step]:
    """The deterministic request sequence for one client thread."""
    rng = random.Random(zlib.crc32(f"serve-client/{seed}/{index}".encode()))
    plan: List[_Step] = []
    for _ in range(n_requests):
        if chaos and rng.random() < _CHAOS_RATE:
            plan.append(_hostile_step(rng))
            continue
        draw = rng.random()
        for endpoint, ceiling in _MIX:
            if draw <= ceiling:
                break
        if endpoint == "recommend":
            plan.append(_Step("recommend", "POST", "/recommend",
                              _recommend_body(rng), (200,)))
        elif endpoint == "ingest":
            plan.append(_Step("ingest", "POST", "/ingest", ingest_body,
                              (200,)))
        elif endpoint == "workloads":
            plan.append(_Step("workloads", "GET", "/workloads", None, (200,)))
        elif endpoint == "metrics":
            plan.append(_Step("metrics", "GET", "/metrics", None, (200,)))
        else:
            plan.append(_Step("healthz", "GET", "/healthz", None, (200,)))
    return plan


def _run_step(conn: HTTPConnection, step: _Step,
              max_body_bytes: int) -> Tuple[HTTPConnection, Dict[str, Any]]:
    """Issue one request; returns (connection to keep using, record)."""
    start = time.perf_counter()
    if step.endpoint == "oversized":
        # declare a huge body, send none: the server must answer 413
        # from the headers alone and close the connection
        conn.putrequest(step.method, step.path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(max_body_bytes + 1))
        conn.endheaders()
    else:
        headers = dict(_HEADERS)
        conn.request(step.method, step.path, body=step.body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    elapsed = time.perf_counter() - start
    body = json.loads(data)  # malformed replies surface as drops
    assert isinstance(body, dict)
    record = {
        "endpoint": step.endpoint,
        "status": response.status,
        "latency_s": elapsed,
        "expected": response.status in step.expect
        or (not step.hostile and response.status == 429),
        "shed": response.status == 429,
        "retry_after": response.getheader("Retry-After"),
        "hostile": step.hostile,
    }
    if response.will_close or response.getheader("Connection") == "close":
        conn.close()
        conn = HTTPConnection(conn.host, conn.port, timeout=conn.timeout)
    return conn, record


def _client_worker(host: str, port: int, plan: List[_Step],
                   barrier: threading.Barrier, sink: List[Dict[str, Any]],
                   sink_lock: threading.Lock, max_body_bytes: int,
                   timeout_s: float) -> None:
    local: List[Dict[str, Any]] = []
    conn = HTTPConnection(host, port, timeout=timeout_s)
    try:
        barrier.wait(timeout=120)
        for step in plan:
            try:
                conn, record = _run_step(conn, step, max_body_bytes)
                local.append(record)
            except Exception as exc:  # noqa: BLE001 — a drop, by definition
                local.append({"endpoint": step.endpoint, "status": None,
                              "dropped": repr(exc), "hostile": step.hostile})
                try:
                    conn.close()
                except Exception:
                    pass
                conn = HTTPConnection(host, port, timeout=timeout_s)
    finally:
        try:
            conn.close()
        except Exception:
            pass
        with sink_lock:
            sink.extend(local)


def _raise_nofile_limit(needed: int) -> None:
    """Best-effort RLIMIT_NOFILE bump (client + server sockets)."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < needed:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(needed, hard), hard)
            )
    except Exception:
        pass


# -- cells -------------------------------------------------------------------
def _run_storm(name: str, n_clients: int, requests_per_client: int,
               config: ServingConfig, chaos: bool, seed: int,
               service_factory: Optional[Any] = None,
               healthz_probes: int = 0) -> Dict[str, Any]:
    """One load cell: fresh KB, fresh server, ``n_clients`` threads."""
    _raise_nofile_limit(4 * n_clients + 256)
    kb = KnowledgeBase(":memory:")
    try:
        ingest_payload = _seed_kb(kb, seed)
        ingest_body = json.dumps(ingest_payload).encode()
        service = (service_factory(kb, config) if service_factory
                   else None)
        server = make_server(kb, port=0, config=config, service=service)
        host, port = server.server_address[:2]
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        sessions_before = len(kb)

        plans = [
            _client_plan(i, requests_per_client, seed, chaos, ingest_body)
            for i in range(n_clients)
        ]
        sink: List[Dict[str, Any]] = []
        sink_lock = threading.Lock()
        barrier = threading.Barrier(n_clients + 1)
        old_stack = threading.stack_size()
        threading.stack_size(512 * 1024)  # 1000+ threads on a small host
        try:
            threads = [
                threading.Thread(
                    target=_client_worker,
                    args=(host, port, plan, barrier, sink, sink_lock,
                          config.max_body_bytes, 60.0),
                    daemon=True,
                )
                for plan in plans
            ]
        finally:
            threading.stack_size(old_stack)
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        barrier.wait(timeout=120)  # stampede: all clients fire together

        # observability must answer while the storm is in flight
        healthz_mid: List[int] = []
        for _ in range(healthz_probes):
            time.sleep(0.05)
            probe = HTTPConnection(host, port, timeout=30)
            try:
                probe.request("GET", "/healthz")
                response = probe.getresponse()
                json.loads(response.read())
                healthz_mid.append(response.status)
            finally:
                probe.close()

        for thread in threads:
            thread.join(timeout=300)
        wall_s = time.perf_counter() - start
        alive = sum(thread.is_alive() for thread in threads)

        server.ingest_writer.flush()
        executor_stats = server.executor.stats()
        ingest_stats = server.ingest_writer.stats()
        sessions_after = len(kb)
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
    finally:
        kb.close()

    # -- aggregate ----------------------------------------------------------
    total = len(sink)
    dropped = [r for r in sink if r.get("dropped")]
    unexpected = [r for r in sink if not r.get("dropped")
                  and not r["expected"]]
    by_endpoint: Dict[str, Dict[str, Any]] = {}
    statuses: Dict[str, int] = {}
    for record in sink:
        if record.get("dropped"):
            continue
        status = str(record["status"])
        statuses[status] = statuses.get(status, 0) + 1
        bucket = by_endpoint.setdefault(
            record["endpoint"], {"count": 0, "by_status": {}, "lat": []}
        )
        bucket["count"] += 1
        bucket["by_status"][status] = bucket["by_status"].get(status, 0) + 1
        bucket["lat"].append(record["latency_s"])
    endpoints = {
        name_: {
            "count": bucket["count"],
            "by_status": bucket["by_status"],
            **_percentiles(bucket["lat"]),
        }
        for name_, bucket in sorted(by_endpoint.items())
    }
    n_5xx = sum(count for status, count in statuses.items()
                if status.startswith("5"))
    n_429 = statuses.get("429", 0)
    acked_ingests = (
        by_endpoint.get("ingest", {}).get("by_status", {}).get("200", 0)
    )
    shed_have_retry_after = all(
        r.get("retry_after") for r in sink
        if not r.get("dropped") and r.get("shed")
    )

    cell = {
        "cell": name,
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "chaos": chaos,
        "seed": seed,
        "total_requests": total,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total / wall_s, 1) if wall_s > 0 else None,
        "statuses": dict(sorted(statuses.items())),
        "endpoints": endpoints,
        "n_dropped": len(dropped),
        "n_unexpected_status": len(unexpected),
        "n_5xx": n_5xx,
        "n_429": n_429,
        "shed_have_retry_after": shed_have_retry_after,
        "stuck_clients": alive,
        "healthz_mid_storm": healthz_mid,
        "executor": executor_stats,
        "ingest": ingest_stats,
        "sessions_before": sessions_before,
        "sessions_after": sessions_after,
        "acked_ingests": acked_ingests,
        "ingest_accounting_ok": (
            sessions_after - sessions_before == acked_ingests
        ),
    }

    # -- hard guarantees ----------------------------------------------------
    assert not dropped, (
        f"[{name}] {len(dropped)} dropped/malformed responses, e.g. "
        f"{dropped[0]}"
    )
    assert alive == 0, f"[{name}] {alive} client threads never finished"
    assert n_5xx == 0, f"[{name}] {n_5xx} server errors: {statuses}"
    assert not unexpected, (
        f"[{name}] {len(unexpected)} unexpected statuses, e.g. "
        f"{unexpected[0]}"
    )
    assert cell["ingest_accounting_ok"], (
        f"[{name}] acked {acked_ingests} ingests but KB grew by "
        f"{sessions_after - sessions_before} — an ack referenced a "
        "non-durable session"
    )
    assert shed_have_retry_after, (
        f"[{name}] a 429 response was missing its Retry-After header"
    )
    return cell


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the clean / chaos / overload serving cells.

    Args:
        quick: CI sizing — 64 clients instead of 1000.

    Returns:
        The report dict.  Raises ``AssertionError`` on any dropped or
        malformed response, any 5xx, broken ingest accounting, missing
        ``Retry-After`` on a shed response, or an overload cell where
        admission control never engaged.
    """
    start = time.perf_counter()
    clients = 64 if quick else 1000
    requests_per_client = 4 if quick else 3
    seed = zlib.crc32(b"bench-serve") % (2**31)

    # generous provisioning: the clean/chaos storms must not shed
    storm_config = ServingConfig(
        workers=8,
        queue_limit=max(4096, 4 * clients),
        max_predicted_wait_s=60.0,
        queue_wait_timeout_s=120.0,
        ingest_queue_limit=max(2048, 2 * clients),
        ingest_batch_max=128,
        ingest_ack_timeout_s=120.0,
    )
    # starved on purpose: 2 workers, 8-deep queue, 50 ms wait cap,
    # no coalescing — admission control must visibly engage
    overload_config = ServingConfig(
        workers=2,
        queue_limit=8,
        max_predicted_wait_s=0.05,
        queue_wait_timeout_s=30.0,
        coalesce=False,
        ingest_queue_limit=64,
    )

    cells = [
        _run_storm("clean", clients, requests_per_client, storm_config,
                   chaos=False, seed=seed),
        _run_storm("chaos", clients, requests_per_client, storm_config,
                   chaos=True, seed=seed + 1),
        _run_storm(
            "overload",
            max(32, clients // 4),
            requests_per_client,
            overload_config,
            chaos=False,
            seed=seed + 2,
            service_factory=lambda kb, config: _SlowService(
                kb, config=config, delay_s=0.02
            ),
            healthz_probes=3,
        ),
    ]

    clean, chaos, overload = cells
    assert clean["n_429"] == 0, (
        f"clean cell shed {clean['n_429']} requests — provisioning is "
        "supposed to cover the storm"
    )
    assert chaos["statuses"].get("400", 0) > 0, (
        "chaos cell produced no 400s — hostile traffic was not exercised"
    )
    assert chaos["statuses"].get("413", 0) > 0, (
        "chaos cell produced no 413s — the body-size cap was not exercised"
    )
    assert overload["n_429"] > 0, (
        "overload cell never shed — admission control did not engage"
    )
    assert overload["healthz_mid_storm"] and all(
        status == 200 for status in overload["healthz_mid_storm"]
    ), "healthz did not answer 200 during the overload storm"

    return make_report(
        "serve", quick, cells, start,
        n_clients=clients,
        total_requests=sum(cell["total_requests"] for cell in cells),
        total_dropped=sum(cell["n_dropped"] for cell in cells),
        total_5xx=sum(cell["n_5xx"] for cell in cells),
        shedding_engaged=overload["n_429"] > 0,
    )
