"""Tests for the recommendation service (in-process and over HTTP)."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import Budget
from repro.kb import (
    KnowledgeBase,
    RecommendationService,
    make_server,
    probe_fingerprint,
)
from repro.kb.service import ServiceError
from repro.systems.dbms import DbmsSimulator, htap_mixed, olap_analytics, oltp_orders
from repro.tuners import RandomSearchTuner


@pytest.fixture(scope="module")
def kb():
    system = DbmsSimulator()
    store = KnowledgeBase(":memory:")
    for seed, workload in enumerate([olap_analytics(), oltp_orders()]):
        result = RandomSearchTuner().tune(
            system, workload, Budget(max_runs=8), np.random.default_rng(seed)
        )
        store.ingest_result(system, workload, result, seed=seed)
    yield store
    store.close()


@pytest.fixture(scope="module")
def server(kb):
    srv = make_server(kb, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _post(server, path, payload):
    host, port = server.server_address[:2]
    req = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=10
    ) as resp:
        return resp.status, json.loads(resp.read())


class TestServiceInProcess:
    def test_recommend_by_workload_name(self, kb):
        service = RecommendationService(kb)
        out = service.recommend({"workload": olap_analytics().name})
        assert out["n_candidates"] == 2
        assert out["matches"][0]["workload"] == olap_analytics().name
        assert out["recommended"] is not None
        assert out["recommended"]["from_workload"] == olap_analytics().name

    def test_recommend_by_fingerprint(self, kb):
        fp = probe_fingerprint(DbmsSimulator(), oltp_orders())
        service = RecommendationService(kb)
        out = service.recommend({"fingerprint": fp.to_jsonable(), "k": 1})
        assert len(out["matches"]) == 1
        assert out["matches"][0]["workload"] == oltp_orders().name

    def test_bad_requests(self, kb):
        service = RecommendationService(kb)
        with pytest.raises(ServiceError):
            service.recommend({})
        with pytest.raises(ServiceError):
            service.recommend({"workload": "never-stored"})
        with pytest.raises(ServiceError):
            service.recommend({"workload": "x", "k": 0})

    def test_index_cache_tracks_version(self, kb):
        service = RecommendationService(kb)
        service.recommend({"workload": olap_analytics().name})
        v_before = service._index_version
        service.recommend({"workload": olap_analytics().name})
        assert service._index_version == v_before  # cache reused


class TestServiceHttp:
    def test_workloads_endpoint(self, server, kb):
        status, body = _get(server, "/workloads")
        assert status == 200
        assert body["n_sessions"] == len(kb)

    def test_recommend_endpoint(self, server):
        status, body = _post(
            server, "/recommend", {"workload": olap_analytics().name}
        )
        assert status == 200
        assert body["recommended"]["from_workload"] == olap_analytics().name
        assert isinstance(body["recommended"]["config"], dict)

    def test_ingest_then_recommend(self, kb):
        # separate server over a private kb so module fixtures stay clean
        system = DbmsSimulator()
        result = RandomSearchTuner().tune(
            system, htap_mixed(), Budget(max_runs=6), np.random.default_rng(3)
        )
        with KnowledgeBase(":memory:") as store:
            payload = store.session_payload(system, htap_mixed(), result, seed=3)
            srv = make_server(store, port=0)
            thread = threading.Thread(target=srv.serve_forever, daemon=True)
            thread.start()
            try:
                status, body = _post(srv, "/ingest", payload)
                assert status == 200 and body["n_sessions"] == 1
                status, body = _post(
                    srv, "/recommend", {"workload": htap_mixed().name}
                )
                assert status == 200
                assert body["recommended"]["from_session"] == body[
                    "matches"
                ][0]["session_id"]
            finally:
                srv.shutdown()
                srv.server_close()
                thread.join(timeout=5)

    def test_http_error_codes(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server, "/recommend", {})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404

    def test_recommend_under_concurrent_clients(self, server):
        """Acceptance: /recommend answers correctly for >=8 concurrent
        client threads — same request, identical correct answers."""
        request = {"workload": olap_analytics().name, "k": 2}

        def call(_):
            return _post(server, "/recommend", request)

        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(pool.map(call, range(24)))

        assert len(outcomes) == 24
        statuses = {status for status, _ in outcomes}
        assert statuses == {200}
        bodies = [body for _, body in outcomes]
        reference = bodies[0]
        assert reference["recommended"]["from_workload"] == olap_analytics().name
        assert all(body == reference for body in bodies)

    def test_mixed_concurrent_traffic(self, server, kb):
        """Reads against different endpoints interleave without cross-talk."""
        def recommend(_):
            return ("rec", _post(
                server, "/recommend", {"workload": oltp_orders().name}
            ))

        def workloads(_):
            return ("wl", _get(server, "/workloads"))

        jobs = [recommend, workloads] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(lambda f: f(None), jobs))

        for kind, (status, body) in outcomes:
            assert status == 200
            if kind == "rec":
                assert body["recommended"]["from_workload"] == oltp_orders().name
            else:
                assert body["n_sessions"] == len(kb)
