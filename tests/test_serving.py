"""Regression tests for the production serving stack (ISSUE 9).

Covers the hardened request path (500 safety net, type-validated
``k``/``mode``/bodies, Content-Length enforcement), the bounded
executor (coalescing, shedding, Retry-After), the write-behind ingest
queue (group commit, never-ack-a-lost-session, flush-on-shutdown), the
lock-guarded ``_space_for`` negative cache, and per-family surrogate
locks (one cold family must not serialize the others).  Also: ingest
validation (no stored row can break a later recommend), reply latency
on a keep-alive connection (no reply waits for a delayed ACK), and the
append-only fingerprint index (equal to a full rescan, each row read
once).  A reply that leaves a request body unread closes the connection.
"""

import json
import os
import socket
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Budget
from repro.kb import KnowledgeBase, make_server
from repro.kb.service import RecommendationService, ServiceError
from repro.kb.serving import IngestWriter, Overloaded, ServingConfig
from repro.surrogate import SurrogateStore
from repro.systems.dbms import DbmsSimulator, olap_analytics, oltp_orders
from repro.tuners import RandomSearchTuner


def _tuned_kb():
    """In-memory KB holding one olap-analytics and one oltp-orders session."""
    system = DbmsSimulator()
    store = KnowledgeBase(":memory:")
    for seed, workload in enumerate([olap_analytics(), oltp_orders()]):
        result = RandomSearchTuner().tune(
            system, workload, Budget(max_runs=8), np.random.default_rng(seed)
        )
        store.ingest_result(system, workload, result, seed=seed)
    return store


@pytest.fixture(scope="module")
def kb():
    store = _tuned_kb()
    yield store
    store.close()


@pytest.fixture(scope="module")
def tuned():
    """(system, workload, result) of one short session."""
    system = DbmsSimulator()
    result = RandomSearchTuner().tune(
        system, olap_analytics(), Budget(max_runs=4),
        np.random.default_rng(7),
    )
    return system, olap_analytics(), result


@pytest.fixture(scope="module")
def session_payload(tuned):
    with KnowledgeBase(":memory:") as scratch:
        return scratch.session_payload(*tuned, seed=7)


def _serve(kb, config=None, service=None, poll_interval=0.5):
    server = make_server(kb, port=0, config=config, service=service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": poll_interval},
        daemon=True,
    )
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(server, method, path, body=None, headers=None):
    """One HTTP round trip; returns (status, parsed body, response)."""
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port, timeout=10)
    try:
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=send_headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data), response
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server(kb):
    srv, thread = _serve(kb)
    yield srv
    _stop(srv, thread)


# -- satellite: type-validated k / mode / bodies ------------------------------
class TestRequestValidation:
    @pytest.mark.parametrize("bad_k", ["abc", "2.5", 2.5, True, None, [3], 0,
                                       -1, 10**6, float("inf"),
                                       float("nan")])
    def test_bad_k_is_400(self, server, bad_k):
        status, body, _ = _request(
            server, "POST", "/recommend",
            {"workload": olap_analytics().name, "k": bad_k},
        )
        assert status == 400
        assert "k" in body["error"]

    def test_bad_k_in_process_raises_service_error(self, kb):
        service = RecommendationService(kb)
        for bad in ("abc", True, 2.5, [1], float("inf"), float("nan")):
            with pytest.raises(ServiceError):
                service.recommend(
                    {"workload": olap_analytics().name, "k": bad}
                )

    @pytest.mark.parametrize("bad_mode", ["zen", 5, None, ["surrogate"]])
    def test_bad_mode_is_400(self, server, bad_mode):
        status, body, _ = _request(
            server, "POST", "/recommend",
            {"workload": olap_analytics().name, "mode": bad_mode},
        )
        assert status == 400
        assert "mode" in body["error"]

    def test_valid_string_k_still_works(self, server):
        status, body, _ = _request(
            server, "POST", "/recommend",
            {"workload": olap_analytics().name, "k": "2"},
        )
        assert status == 200
        assert len(body["matches"]) <= 2

    def test_non_object_top_level_body_is_400(self, server):
        host, port = server.server_address[:2]
        for raw in (b"[1, 2]", b'"hello"', b"42", b"null"):
            conn = HTTPConnection(host, port, timeout=10)
            try:
                conn.request("POST", "/recommend", body=raw,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 400
                assert "JSON object" in body["error"]
            finally:
                conn.close()

    def test_invalid_json_is_400(self, server):
        host, port = server.server_address[:2]
        # nesting past the interpreter's recursion limit (990 levels is
        # enough on 3.11) raises RecursionError in json.loads, which
        # used to close the socket without a reply
        deep = b'{"k": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        for raw in (b"{nope", deep):
            conn = HTTPConnection(host, port, timeout=10)
            try:
                conn.request("POST", "/recommend", body=raw,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 400
                assert "JSON" in json.loads(response.read())["error"]
            finally:
                conn.close()

    def test_bad_fingerprint_payload_is_400_not_500(self, server):
        # from_jsonable raises KeyError/AttributeError on these; the old
        # handler crashed the thread and dropped the connection.  A
        # 400-digit number overflowed float() into a 500, and a NaN or
        # Infinity metric got a 200 ranking every distance at "nan".
        for fingerprint in (
            {"metrics": "zen"},
            {"metrics": {"a": "b"}},
            {"metrics": [1, 2]},
            "not-an-object",
            {"metrics": {"a": 10**400}, "probe_runtime_s": 1.0},
            {"metrics": {"a": 1.0}, "probe_runtime_s": 10**400},
            {"metrics": {"a": float("nan")}, "probe_runtime_s": 1.0},
            {"metrics": {"a": float("inf")}, "probe_runtime_s": 1.0},
        ):
            status, body, _ = _request(
                server, "POST", "/recommend", {"fingerprint": fingerprint}
            )
            assert status == 400
            assert "error" in body

    def test_non_string_workload_is_400(self, server):
        status, body, _ = _request(
            server, "POST", "/recommend", {"workload": 42}
        )
        assert status == 400


# -- satellite: Content-Length enforcement ------------------------------------
class TestContentLength:
    def _raw(self, server, headers, payload=b""):
        """Hand-rolled POST so hostile framing reaches the server."""
        host, port = server.server_address[:2]
        lines = ["POST /recommend HTTP/1.1", f"Host: {host}:{port}"]
        lines += headers + ["", ""]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall("\r\n".join(lines).encode() + payload)
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        body = body.split(b"\r\n")[0] if b"\r\n" in body else body
        return status, json.loads(body) if body else None

    def test_missing_content_length_is_400(self, server):
        status, body = self._raw(server, [])
        assert status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("value", ["abc", "-5", "1e6"])
    def test_invalid_content_length_is_400(self, server, value):
        status, body = self._raw(server, [f"Content-Length: {value}"])
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_declared_body_is_413(self, server):
        limit = server.config.max_body_bytes
        status, body = self._raw(
            server, [f"Content-Length: {limit + 1}"]
        )
        assert status == 413
        assert "exceeds" in body["error"]

    def test_oversized_actual_body_is_413(self, kb):
        config = ServingConfig(max_body_bytes=1024)
        server, thread = _serve(kb, config=config)
        try:
            big = {"workload": "x" * 4096}
            status, body, response = _request(
                server, "POST", "/recommend", big
            )
            assert status == 413
            assert response.getheader("Connection") == "close"
        finally:
            _stop(server, thread)

    def test_truncated_body_is_400(self, server):
        status, body = self._raw(
            server, ["Content-Length: 1000"], payload=b'{"workload":'
        )
        assert status == 400
        assert "truncated" in body["error"]

    def test_server_survives_hostile_framing(self, server):
        status, body, _ = _request(server, "GET", "/workloads")
        assert status == 200


# -- keep-alive framing: an unread body never becomes the next request --------
_SMUGGLED = b"GET /workloads HTTP/1.1\r\nHost: x\r\n\r\n"


def _replies(server, raw):
    """Send ``raw`` on one socket and read until the server closes it;
    returns each reply's (status, Connection header)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(raw)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines[1:])
        replies.append((int(lines[0].split()[1]), fields.get("Connection")))
        data = data[int(fields["Content-Length"]):]
    return replies


class TestUnreadBody:
    @pytest.mark.parametrize("method,path,status", [
        ("POST", "/nope", 404),
        ("GET", "/workloads", 200),
        ("GET", "/nope", 404),
    ])
    def test_one_reply_then_close(self, server, method, path, status):
        """The body used to be parsed as a second request, which got a
        second reply (a 200 for the smuggled GET)."""
        raw = (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
               f"Content-Length: {len(_SMUGGLED)}\r\n\r\n").encode()
        assert _replies(server, raw + _SMUGGLED) == [(status, "close")]

    def test_bodiless_requests_keep_the_connection(self, server):
        raw = (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
               b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
               b"GET /workloads HTTP/1.1\r\nHost: x\r\nConnection: close"
               b"\r\n\r\n")
        assert _replies(server, raw) == [(404, None), (404, None), (200, None)]


# -- satellite: broad exception handling → strict-JSON 500 --------------------
class _ExplodingService(RecommendationService):
    def recommend(self, request):
        raise ZeroDivisionError("boom")

    def workloads(self):
        raise RuntimeError("kaboom")


class TestInternalErrorPath:
    def test_unexpected_exception_is_json_500_with_error_id(self, kb):
        server, thread = _serve(kb, service=_ExplodingService(kb))
        try:
            status, body, _ = _request(
                server, "POST", "/recommend", {"workload": "w"}
            )
            assert status == 500
            assert body["error"] == "internal server error"
            assert body["error_id"].startswith("e-")
            # the opaque id is resolvable server-side via /healthz
            status, health, _ = _request(server, "GET", "/healthz")
            assert status == 200
            recorded = {e["error_id"] for e in health["recent_errors"]}
            assert body["error_id"] in recorded
            types = {e["type"] for e in health["recent_errors"]}
            assert "ZeroDivisionError" in types
        finally:
            _stop(server, thread)

    def test_reply_too_deep_to_serialize_is_500_not_dropped(
        self, server, monkeypatch
    ):
        # a best config stored before ingest validation can nest past
        # the recursion limit; serializing the reply must still answer
        import repro.kb.service as service_module

        def too_deep(payload):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(service_module, "dumps_strict", too_deep)
        status, body, _ = _request(server, "GET", "/workloads")
        assert status == 500
        assert body == {"error": "unserializable response"}

    def test_get_path_500_also_answers(self, kb):
        server, thread = _serve(kb, service=_ExplodingService(kb))
        try:
            status, body, _ = _request(server, "GET", "/workloads")
            assert status == 500
            assert "error_id" in body
        finally:
            _stop(server, thread)


# -- tentpole: executor behavior over HTTP ------------------------------------
class _SlowService(RecommendationService):
    def __init__(self, kb, delay_s, **kwargs):
        super().__init__(kb, **kwargs)
        self.delay_s = delay_s

    def recommend(self, request):
        time.sleep(self.delay_s)
        return super().recommend(request)


class TestExecutor:
    def test_identical_concurrent_recommends_coalesce(self, kb):
        server, thread = _serve(kb, service=_SlowService(kb, 0.15))
        try:
            request = {"workload": olap_analytics().name, "k": 2}

            def call(_):
                return _request(server, "POST", "/recommend", request)

            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(call, range(8)))
            assert {status for status, _, _ in outcomes} == {200}
            bodies = [body for _, body, _ in outcomes]
            assert all(body == bodies[0] for body in bodies)
            stats = server.executor.stats()
            assert stats["coalesced"] > 0
            assert stats["executed"] < 8
        finally:
            _stop(server, thread)

    def test_overload_sheds_429_with_retry_after_never_5xx(self, kb):
        config = ServingConfig(
            workers=1, queue_limit=1, max_predicted_wait_s=0.01,
            coalesce=False,
        )
        server, thread = _serve(
            kb, config=config, service=_SlowService(kb, 0.1, config=config)
        )
        try:
            def call(i):
                return _request(
                    server, "POST", "/recommend",
                    {"workload": olap_analytics().name, "k": 1 + i % 3},
                )

            with ThreadPoolExecutor(max_workers=16) as pool:
                outcomes = list(pool.map(call, range(32)))
            statuses = [status for status, _, _ in outcomes]
            assert any(status == 429 for status in statuses)
            assert all(status in (200, 429) for status in statuses)
            for status, body, response in outcomes:
                if status == 429:
                    assert int(response.getheader("Retry-After")) >= 1
                    assert body["reason"] in (
                        "queue-full", "predicted-wait", "wait-timeout"
                    )
            assert sum(server.executor.stats()["shed"].values()) > 0
        finally:
            _stop(server, thread)

    def test_healthz_reports_queue_and_ingest_health(self, server, kb):
        status, body, _ = _request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["executor"]["workers"] >= 1
        assert body["executor"]["queued"] <= body["executor"]["queue_limit"]
        assert body["ingest"]["closed"] is False
        assert body["kb"]["n_sessions"] == len(kb)


# -- tentpole: write-behind ingest queue --------------------------------------
class _StalledKB:
    """KB wrapper whose commits block until released — a writer that is
    'killed' mid-ingest from the client's point of view."""

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def ingest_many(self, payloads):
        self.entered.set()
        self.gate.wait()
        return self._inner.ingest_many(payloads)


class TestIngestWriter:
    def test_ack_released_only_after_commit(self, session_payload):
        with KnowledgeBase(":memory:") as kb:
            writer = IngestWriter(kb, ServingConfig())
            try:
                ack = writer.submit(dict(session_payload))
                session_id = ack.wait(10.0)
                # the ack's session is durably queryable immediately
                assert session_id in [
                    record.session_id for record in kb.sessions()
                ]
            finally:
                writer.close()

    def test_kill_mid_ingest_never_acks_a_lost_session(self, session_payload):
        with KnowledgeBase(":memory:") as kb:
            stalled = _StalledKB(kb)
            writer = IngestWriter(stalled, ServingConfig())
            try:
                ack = writer.submit(dict(session_payload))
                # the writer has claimed the payload and is stuck in the
                # commit: the client times out *unacked* — and the KB
                # holds nothing it could have been told about
                assert stalled.entered.wait(5.0)
                with pytest.raises(Overloaded) as err:
                    ack.wait(0.2)
                assert err.value.reason == "ingest-slow"
                assert len(kb) == 0
                # once the writer recovers, the payload commits; only
                # now could any ack have been released
                stalled.gate.set()
                writer.flush()
                assert len(kb) == 1
                assert ack.event.is_set()
            finally:
                stalled.gate.set()
                writer.close()

    def test_bad_payload_acks_with_error_not_commit(self, session_payload):
        with KnowledgeBase(":memory:") as kb:
            writer = IngestWriter(kb, ServingConfig())
            try:
                ack = writer.submit({"kind": "nope"})
                with pytest.raises(ValueError):
                    ack.wait(10.0)
                assert len(kb) == 0
            finally:
                writer.close()

    def test_group_commit_batches_and_flush_on_shutdown(
        self, session_payload
    ):
        with KnowledgeBase(":memory:") as kb:
            stalled = _StalledKB(kb)
            config = ServingConfig(ingest_batch_max=64)
            writer = IngestWriter(stalled, config)
            acks = [writer.submit(dict(session_payload)) for _ in range(8)]
            stalled.gate.set()
            writer.close()  # flush-on-shutdown commits the backlog
            assert len(kb) == 8
            assert all(ack.event.is_set() for ack in acks)
            assert writer.stats()["committed"] == 8
            # the stall queued everything behind one blocked batch, so
            # at least one commit carried multiple payloads
            assert writer.stats()["max_batch"] > 1

    def test_ack_timeout_cancels_queued_payload_no_duplicate(
        self, session_payload
    ):
        with KnowledgeBase(":memory:") as kb:
            stalled = _StalledKB(kb)
            writer = IngestWriter(stalled, ServingConfig())
            try:
                first = writer.submit(dict(session_payload))
                assert stalled.entered.wait(5.0)  # writer stuck mid-commit
                queued = writer.submit(dict(session_payload))
                # the queued payload's client gives up: the shed must
                # *withdraw* the payload, or an honest Retry-After retry
                # would store the session twice and skew the KB
                with pytest.raises(Overloaded) as err:
                    queued.wait(0.2)
                assert err.value.reason == "ingest-slow"
                retry = writer.submit(dict(session_payload))
                stalled.gate.set()
                writer.flush()
                # first + retry committed; the cancelled original never was
                assert len(kb) == 2
                assert first.wait(5.0) and retry.wait(5.0)
                assert not queued.event.is_set()
                assert writer.stats()["cancelled"] == 1
            finally:
                stalled.gate.set()
                writer.close()

    def test_submit_after_close_is_shed(self, session_payload):
        with KnowledgeBase(":memory:") as kb:
            writer = IngestWriter(kb, ServingConfig())
            writer.close()
            with pytest.raises(Overloaded):
                writer.submit(dict(session_payload))

    def test_http_ingest_accounting(self, kb, session_payload):
        with KnowledgeBase(":memory:") as private:
            server, thread = _serve(private)
            try:
                for _ in range(5):
                    status, body, _ = _request(
                        server, "POST", "/ingest", dict(session_payload)
                    )
                    assert status == 200
                status, bad, _ = _request(
                    server, "POST", "/ingest", {"kind": "nope"}
                )
                assert status == 400
                # sqlite binding errors are payload-caused too: 400, not
                # an opaque 500, and nothing stored
                hostile = dict(session_payload)
                hostile["seed"] = []
                status, bad, _ = _request(
                    server, "POST", "/ingest", hostile
                )
                assert status == 400
                assert "payload" in bad["error"]
                server.ingest_writer.flush()
                assert len(private) == 5
            finally:
                _stop(server, thread)


# -- review fix: per-payload sqlite error isolation + rollback ----------------
class TestIngestManyIsolation:
    def test_sqlite_binding_error_never_poisons_batchmates(
        self, session_payload
    ):
        # "seed": [] passes the service's kind-only validation but dies
        # at sqlite parameter binding — it must get its own outcome
        bad = dict(session_payload)
        bad["seed"] = []
        with KnowledgeBase(":memory:") as kb:
            outcomes = kb.ingest_many(
                [dict(session_payload), bad, dict(session_payload)]
            )
            assert isinstance(outcomes[0], int)
            assert isinstance(outcomes[1], Exception)
            assert isinstance(outcomes[2], int)
            assert len(kb) == 2

    def test_failed_batch_leaves_no_pending_rows_for_next_commit(
        self, session_payload
    ):
        # review repro: a payload raising mid-batch used to skip the
        # commit with no rollback, leaving its batchmates *pending* —
        # the NEXT batch's commit then durably stored sessions whose
        # clients were never acked (duplicates on their retries)
        bad = dict(session_payload)
        bad["seed"] = []
        with KnowledgeBase(":memory:") as kb:
            outcomes = kb.ingest_many(
                [dict(session_payload), bad, dict(session_payload)]
            )
            kb.ingest_many([dict(session_payload)])
            acked = sum(1 for o in outcomes if isinstance(o, int)) + 1
            assert len(kb) == acked == 3

    def test_ingest_payload_rolls_back_on_failure(self, session_payload):
        bad = dict(session_payload)
        bad["seed"] = []
        with KnowledgeBase(":memory:") as kb:
            with pytest.raises(Exception):
                kb.ingest_payload(bad)
            assert kb.ingest_payload(dict(session_payload)) >= 1
            assert len(kb) == 1


# -- satellite: _space_for negative cache + per-family surrogate locks --------
class TestSpaceCache:
    def test_unknown_kind_negative_cache_expires(self, kb, monkeypatch):
        config = ServingConfig(space_negative_ttl_s=0.15)
        service = RecommendationService(kb, config=config)
        calls = {"n": 0}
        import repro.core.registry as registry

        real_make_system = registry.make_system

        def flaky(kind):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient registry failure")
            return real_make_system(kind)

        monkeypatch.setattr(registry, "make_system", flaky)
        assert service._space_for("dbms") is None  # failure cached...
        assert service._space_for("dbms") is None  # ...within the TTL
        assert calls["n"] == 1
        time.sleep(0.2)
        assert service._space_for("dbms") is not None  # retried after TTL
        # success is cached permanently
        assert service._space_for("dbms") is not None
        assert calls["n"] == 2

    def test_space_for_is_thread_safe(self, kb):
        service = RecommendationService(kb)
        with ThreadPoolExecutor(max_workers=8) as pool:
            spaces = list(pool.map(
                lambda _: service._space_for("dbms"), range(32)
            ))
        assert all(space is spaces[0] for space in spaces)
        assert spaces[0] is not None


class _SlowTrainStore(SurrogateStore):
    """Registry whose (cold) lookups take a fixed, measurable time."""

    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s

    def get(self, *args, **kwargs):
        time.sleep(self.delay_s)
        return None  # always cold: recommend falls back to similarity


class TestSurrogateConcurrency:
    def test_cold_families_train_concurrently(self, kb):
        """Two different cold families must not serialize on one lock.

        Pre-fix, a global ``_surrogate_lock`` made every surrogate
        request queue behind whichever family happened to be training.
        """
        delay = 0.3
        service = RecommendationService(
            kb, surrogate_store=_SlowTrainStore(delay)
        )
        requests = [
            {"workload": olap_analytics().name, "mode": "surrogate"},
            {"workload": oltp_orders().name, "mode": "surrogate"},
        ]
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(service.recommend, requests))
        elapsed = time.perf_counter() - start
        assert all(r["served_by"] == "similarity-fallback" for r in results)
        # serialized would be >= 2 * delay; concurrent is ~1 * delay
        assert elapsed < 1.8 * delay, (
            f"two cold families took {elapsed:.2f}s — still serialized"
        )

    def test_same_family_still_single_flight(self, kb):
        """Identical families *do* share the lock — exactly one train."""
        store = _SlowTrainStore(0.1)
        calls = []
        original = store.get

        def counting_get(*args, **kwargs):
            calls.append(time.perf_counter())
            return original(*args, **kwargs)

        store.get = counting_get
        service = RecommendationService(kb, surrogate_store=store)
        request = {"workload": olap_analytics().name, "mode": "surrogate"}
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(service.recommend, [request, dict(request)]))
        # both requests looked up, but never overlapped (second starts
        # after the first's 0.1 s hold)
        assert len(calls) == 2
        assert calls[1] - calls[0] >= 0.09


class TestRetrainDebounce:
    def test_debounce_serves_stale_model_within_window(self, kb):
        config = ServingConfig(surrogate_retrain_debounce_s=60.0)
        store = SurrogateStore()
        service = RecommendationService(kb, surrogate_store=store,
                                        config=config)
        request = {"workload": olap_analytics().name, "mode": "surrogate"}
        service.recommend(request)
        trains_after_first = store.trains
        # an ingest bumps the KB version: without the debounce every
        # subsequent surrogate request would retrain
        system = DbmsSimulator()
        result = RandomSearchTuner().tune(
            system, oltp_orders(), Budget(max_runs=4),
            np.random.default_rng(11),
        )
        kb.ingest_result(system, oltp_orders(), result, seed=11)
        service.recommend(dict(request))
        assert store.trains == trains_after_first


# -- ingest validation: no stored row may break a later recommend -------------
def _nan_metric(fingerprint):
    metrics = dict(fingerprint["metrics"])
    metrics[sorted(metrics)[0]] = float("nan")
    return {**fingerprint, "metrics": metrics}


#: (field, value or function of the valid value) of payloads that were
#: acked and then broke every recommend: a 500 from the fingerprint
#: parse or from ``describe()``'s ``dict(best_config)``, a dropped
#: connection from serializing a deeply nested best config, or a 200
#: ranking every distance at "nan".
_POISON = {
    "fingerprint-unparsable-metric": (
        "fingerprint", {"metrics": {"a": "b"}, "probe_runtime_s": 1.0}),
    "fingerprint-huge-int-metric": (
        "fingerprint", {"metrics": {"a": 10**400}, "probe_runtime_s": 1.0}),
    "fingerprint-nan-metric": ("fingerprint", _nan_metric),
    "fingerprint-not-object": ("fingerprint", [1.0]),
    "best_config-string": ("best_config", "x"),
    "best_config-null": ("best_config", None),
    "best_config-number": ("best_config", 1),
    "best_config-list": ("best_config", [1]),
    "best_config-nested": (
        "best_config", {"buffer_pool_mb": json.loads("[" * 600 + "]" * 600)}),
}


def _poisoned(session_payload, case):
    field, value = _POISON[case]
    payload = dict(session_payload)
    payload[field] = value(payload[field]) if callable(value) else value
    return payload


class TestIngestValidation:
    @pytest.mark.parametrize("case", sorted(_POISON))
    def test_poisoned_ingest_is_400_and_recommends_unchanged(
        self, session_payload, case
    ):
        with _tuned_kb() as private:
            olap = private.sessions(workload_name=olap_analytics().name)[0]
            request = {"fingerprint": olap.fingerprint.to_jsonable(), "k": 3}
            server, thread = _serve(private, poll_interval=0.01)
            try:
                status, before, _ = _request(
                    server, "POST", "/recommend", request
                )
                assert status == 200
                assert before["matches"][0]["distance"] == 0.0
                status, body, _ = _request(
                    server, "POST", "/ingest", _poisoned(session_payload, case)
                )
                assert status == 400
                assert "payload" in body["error"]
                server.ingest_writer.flush()
                assert len(private) == 2
                status, after, _ = _request(
                    server, "POST", "/recommend", request
                )
                assert status == 200
                assert after == before
            finally:
                _stop(server, thread)

    @pytest.mark.parametrize("case", sorted(_POISON))
    def test_every_insert_path_rejects_it(self, session_payload, case):
        poisoned = _poisoned(session_payload, case)
        with KnowledgeBase(":memory:") as kb:
            with pytest.raises((TypeError, ValueError)):
                kb.ingest_payload(poisoned)
            with pytest.raises(ServiceError):
                RecommendationService(kb).ingest(poisoned)
            outcomes = kb.ingest_many([dict(session_payload), poisoned])
            assert isinstance(outcomes[0], int)
            assert isinstance(outcomes[1], (TypeError, ValueError))
            assert [r.session_id for r in kb.sessions()] == [outcomes[0]]

    def test_fingerprintless_and_failed_probe_sessions_still_stored(
        self, session_payload
    ):
        failed_probe = {
            **session_payload["fingerprint"], "probe_runtime_s": "inf",
        }
        with KnowledgeBase(":memory:") as kb:
            for fingerprint in (None, {}, failed_probe):
                kb.ingest_payload({**session_payload, "fingerprint": fingerprint})
            stored = [r.fingerprint for r in kb.sessions()]
        assert stored[0].probe_runtime_s == float("inf")
        assert stored[1:] == [None, None]


# -- tentpole: no reply waits for the client's delayed ACK --------------------
class _FailingService(RecommendationService):
    """Answers a 500 to a recommend that asks for one."""

    def recommend(self, request):
        if request.get("explode"):
            raise RuntimeError("boom")
        return super().recommend(request)


class TestReplyLatency:
    def test_no_reply_waits_for_a_delayed_ack(self, session_payload):
        """Each reply is a header write and a body write.  With Nagle's
        algorithm on, the body waited ~40 ms for the keep-alive client's
        delayed ACK: every median below was at least 40 ms."""
        name = olap_analytics().name
        cases = {
            "small 200": ("POST", "/recommend", {"workload": name, "k": 1}, 200),
            "200 over 8 KiB": (
                "POST", "/recommend", {"workload": name, "k": 1000}, 200),
            "400": ("POST", "/recommend", {"workload": name, "k": 0}, 400),
            "404": ("GET", "/nope", None, 404),
            "429": ("POST", "/ingest", dict(session_payload), 429),
            "500": ("POST", "/recommend", {"workload": name, "explode": 1}, 500),
        }
        with KnowledgeBase(":memory:") as kb:
            for _ in range(20):
                kb.ingest_payload(dict(session_payload))
            server, thread = _serve(
                kb, service=_FailingService(kb), poll_interval=0.01
            )
            server.ingest_writer.close()  # every /ingest now sheds: 429
            host, port = server.server_address[:2]
            conn = HTTPConnection(host, port, timeout=10)
            try:
                for label, (method, path, body, expected) in cases.items():
                    raw = None if body is None else json.dumps(body).encode()
                    times = []
                    for _ in range(10):
                        start = time.perf_counter()
                        conn.request(method, path, body=raw, headers={
                            "Content-Type": "application/json"})
                        response = conn.getresponse()
                        data = response.read()
                        times.append(time.perf_counter() - start)
                        assert response.status == expected, label
                    if expected == 429:
                        assert int(response.getheader("Retry-After")) >= 1
                    if label == "200 over 8 KiB":
                        assert len(data) > 8192
                    median_ms = statistics.median(times) * 1000.0
                    assert median_ms < 20.0, f"{label}: {median_ms:.1f} ms"
            finally:
                conn.close()
                _stop(server, thread)


# -- tentpole: the append-only fingerprint index ------------------------------
def _rescan(kb):
    return [(r, r.fingerprint) for r in kb.sessions() if r.fingerprint]


#: One write: (path, keep the fingerprint).  ``http`` is the write-behind
#: ingest queue, ``local`` an in-process write on the served handle,
#: ``other`` a second handle on the same file; ``recommend`` reads.
_WRITES = st.tuples(
    st.sampled_from(("http", "local", "other", "recommend")), st.booleans()
)


class TestAppendOnlyIndex:
    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(writes=st.lists(_WRITES, min_size=1, max_size=10))
    def test_index_equals_a_full_rescan_after_every_write(
        self, tuned, session_payload, writes
    ):
        request = {"workload": olap_analytics().name, "k": 2}
        bare = {**session_payload, "fingerprint": None}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kb.sqlite")
            with KnowledgeBase(path) as kb, KnowledgeBase(path) as other:
                kb.ingest_payload(dict(session_payload))
                server, thread = _serve(kb, poll_interval=0.01)
                service = server.service
                try:
                    for where, keep in writes:
                        payload = dict(session_payload) if keep else dict(bare)
                        if where == "http":
                            status, _, _ = _request(
                                server, "POST", "/ingest", payload
                            )
                            assert status == 200
                            server.ingest_writer.flush()
                        elif where == "local" and keep:
                            kb.ingest_result(*tuned, seed=len(kb))
                        elif where == "local":
                            kb.ingest_payload(payload)
                        elif where == "other":
                            other.ingest_payload(payload)
                        else:
                            status, _, _ = _request(
                                server, "POST", "/recommend", request
                            )
                            assert status == 200
                        index, rescan = service._fingerprint_index(), _rescan(kb)
                        assert [r.session_id for r, _ in index] == [
                            r.session_id for r, _ in rescan
                        ]
                        assert index == rescan
                finally:
                    _stop(server, thread)

    def test_commit_between_version_check_and_read_is_read_once(
        self, session_payload
    ):
        """The index is keyed on the rows it read, not on the version
        probe made before them: keyed on the probe, the next call would
        read the in-between commit a second time."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kb.sqlite")
            with KnowledgeBase(path) as kb, KnowledgeBase(path) as other:
                kb.ingest_payload(dict(session_payload))
                service = RecommendationService(kb)
                service._fingerprint_index()
                sessions = kb.sessions

                def racing(*args, **kwargs):
                    other.ingest_payload(dict(session_payload))
                    return sessions(*args, **kwargs)

                kb.ingest_payload(dict(session_payload))
                kb.sessions = racing
                assert len(service._fingerprint_index()) == 3
                kb.sessions = sessions
                assert service._fingerprint_index() == _rescan(kb)

    def test_concurrent_recommends_and_ingests_leave_no_duplicate(
        self, session_payload
    ):
        request = {"workload": olap_analytics().name, "k": 2}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kb.sqlite")
            with KnowledgeBase(path) as kb, KnowledgeBase(path) as other:
                kb.ingest_payload(dict(session_payload))
                server, thread = _serve(kb, poll_interval=0.01)
                service = server.service
                done = threading.Event()

                def read():
                    while not done.is_set():
                        service.recommend(dict(request))

                readers = [threading.Thread(target=read) for _ in range(3)]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for reader in readers:
                        reader.start()
                    for _ in range(12):
                        status, _, _ = _request(
                            server, "POST", "/ingest", dict(session_payload)
                        )
                        assert status == 200
                        other.ingest_payload(dict(session_payload))
                finally:
                    done.set()
                    for reader in readers:
                        reader.join(timeout=10)
                    sys.setswitchinterval(interval)
                    _stop(server, thread)
                assert not any(reader.is_alive() for reader in readers)
                index = service._fingerprint_index()
                ids = [record.session_id for record, _ in index]
                assert len(ids) == len(set(ids)) == len(kb) == 25
                assert index == _rescan(kb)

    def test_each_row_is_read_once(self, session_payload):
        """Over N single-payload commits the index reads N rows plus the
        initial ones; a full rescan after each commit reads O(N^2)."""
        commits, initial = 12, 2
        request = {"workload": olap_analytics().name, "k": 1}
        with KnowledgeBase(":memory:") as kb:
            for _ in range(initial):
                kb.ingest_payload(dict(session_payload))
            rows = []
            sessions = kb.sessions

            def counted(*args, **kwargs):
                records = sessions(*args, **kwargs)
                rows.append(len(records))
                return records

            kb.sessions = counted
            server, thread = _serve(kb, poll_interval=0.01)
            try:
                for _ in range(commits):
                    for endpoint, body in (("recommend", request),
                                           ("ingest", session_payload)):
                        status, _, _ = _request(
                            server, "POST", "/" + endpoint, dict(body)
                        )
                        assert status == 200
                    server.ingest_writer.flush()
                status, _, _ = _request(server, "POST", "/recommend", request)
                assert status == 200
            finally:
                _stop(server, thread)
        assert sum(rows) == commits + initial
