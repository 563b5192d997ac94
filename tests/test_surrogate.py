"""Surrogate subsystem: dataset extraction, training, registry
invalidation, zero-probe recommendation, service wiring, fleet priors."""

import json
import math
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.measurement import Observation, TuningHistory
from repro.exceptions import SurrogateError
from repro.kb import KnowledgeBase, RecommendationService, make_server
from repro.kb.service import ServiceError
from repro.kb.warmstart import PriorObservation
from repro.surrogate import (
    SurrogateStore,
    TrainedSurrogate,
    build_matrices,
    family_of,
    rank_configs,
    recommend_config,
    surrogate_prior,
    train_surrogate,
)
from repro.systems import SparkSimulator
from repro.systems.dbms import DbmsSimulator, olap_analytics
from repro.systems.hadoop import HadoopSimulator, wordcount


def _explore(system, workload, n_rows, seed, tag="lhs"):
    """Default probe + random sweep, mirroring offline KB population."""
    from repro.mlkit import latin_hypercube

    space = system.config_space
    rng = np.random.default_rng(seed)
    history = TuningHistory()
    default = space.default_configuration()
    history.record(Observation(
        config=default, measurement=system.run(workload, default),
        tag="default", workload=workload.name,
    ))
    for i, row in enumerate(latin_hypercube(n_rows, space.dimension, rng)):
        try:
            config = space.from_array(row)
        except Exception:
            continue
        history.record(Observation(
            config=config, measurement=system.run(workload, config),
            tag=f"{tag}-{i}", workload=workload.name,
        ))
    return history


def _populate(kb, system, workloads, n_rows=16, seed=0):
    for offset, workload in enumerate(workloads):
        history = _explore(system, workload, n_rows, seed + offset)
        kb.ingest_history(system, workload, history, seed=seed + offset)


@pytest.fixture(scope="module")
def hadoop_kb():
    system = HadoopSimulator()
    kb = KnowledgeBase(":memory:")
    _populate(kb, system, [wordcount(input_gb=6), wordcount(input_gb=12)])
    yield kb, system
    kb.close()


@pytest.fixture(scope="module")
def trained(hadoop_kb):
    kb, system = hadoop_kb
    matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
    return train_surrogate(matrix, kb.version())


@pytest.fixture(scope="module")
def target_fingerprint(hadoop_kb):
    kb, _ = hadoop_kb
    return next(
        record.fingerprint
        for record in kb.sessions(system_kind="hadoop")
        if record.fingerprint is not None
    )


# ---------------------------------------------------------------------------
# Family grouping and matrix extraction
# ---------------------------------------------------------------------------
class TestDataset:
    @pytest.mark.parametrize("name,family", [
        ("wordcount-6g", "wordcount"),
        ("wordcount-12g", "wordcount"),
        ("terasort-1.5g", "terasort"),
        ("olap-analytics@1x", "olap-analytics"),
        ("htap-mixed@0.5x", "htap-mixed"),
        ("spark-kmeans-3g-x10", "spark-kmeans"),  # compound suffix
        ("plain-name", "plain-name"),
    ])
    def test_family_of_strips_scale_suffixes(self, name, family):
        assert family_of(name) == family

    def test_scale_variants_pool_into_one_family(self, hadoop_kb):
        kb, system = hadoop_kb
        matrices = build_matrices(kb, "hadoop", system.config_space)
        assert set(matrices) == {"wordcount"}
        matrix = matrices["wordcount"]
        assert set(matrix.workloads) == {"wordcount-6g", "wordcount-12g"}
        assert matrix.n_sessions == 2
        assert set(matrix.anchors) == {"wordcount-6g", "wordcount-12g"}

    def test_targets_are_log_ratios_and_failures_masked(self, hadoop_kb):
        kb, system = hadoop_kb
        matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
        assert np.isfinite(matrix.y[~matrix.failed]).all()
        assert np.isnan(matrix.y[matrix.failed]).all()
        # The default-config probe row is the anchor: ratio 1, log 0.
        assert np.isclose(matrix.y[~matrix.failed], 0.0).any()

    def test_prior_tagged_rows_are_excluded(self):
        system = DbmsSimulator()
        workload = olap_analytics()
        space = system.config_space
        with KnowledgeBase(":memory:") as kb:
            history = _explore(system, workload, 6, seed=3)
            poisoned = space.default_configuration()
            history.record(Observation(
                config=poisoned, measurement=system.run(workload, poisoned),
                tag="prior-transfer", workload=workload.name,
            ))
            kb.ingest_history(system, workload, history)
            matrix = build_matrices(kb, "dbms", space)["olap-analytics"]
            real_rows = sum(
                1 for obs in history
                if not obs.tag.startswith("prior")
            )
            assert matrix.n_rows == real_rows

    def test_empty_kb_has_no_matrices(self):
        system = DbmsSimulator()
        with KnowledgeBase(":memory:") as kb:
            assert build_matrices(kb, "dbms", system.config_space) == {}


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------
class TestTrainer:
    def test_trained_surrogate_shape(self, trained, hadoop_kb):
        kb, system = hadoop_kb
        assert trained.family == "wordcount"
        assert trained.kb_version == tuple(kb.version())
        assert trained.knob_names == tuple(system.config_space.names())
        assert 0 < len(trained.top_knobs) <= 8
        assert trained.n_sessions == 2
        assert len(trained.support_units) > 0

    def test_support_excludes_failed_and_duplicate_configs(self, hadoop_kb):
        kb, system = hadoop_kb
        matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
        trained = train_surrogate(matrix, kb.version())
        support = {np.asarray(row).tobytes() for row in trained.support_units}
        assert len(support) == len(trained.support_units)  # deduplicated
        for row in matrix.X_knobs[matrix.failed]:
            assert row.tobytes() not in support  # crash veto

    def test_predictions_finite_with_uncertainty(
        self, trained, target_fingerprint
    ):
        X = np.asarray(trained.support_units[:5], dtype=float)
        mu, sd = trained.predict(X, target_fingerprint)
        assert np.isfinite(mu).all()
        assert sd is not None and np.isfinite(sd).all() and (sd >= 0).all()

    def test_too_few_rows_raises(self, hadoop_kb):
        kb, system = hadoop_kb
        matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
        starved = type(matrix)(**{**matrix.__dict__})
        starved.failed = np.ones_like(matrix.failed)
        with pytest.raises(SurrogateError, match="successful rows"):
            train_surrogate(starved, kb.version())

    def test_forced_single_model_skips_holdout(self, hadoop_kb):
        kb, system = hadoop_kb
        matrix = build_matrices(kb, "hadoop", system.config_space)["wordcount"]
        trained = train_surrogate(matrix, kb.version(), models=("gp",))
        assert trained.model_kind == "gp"
        assert trained.holdout_rmse == {}

    def test_serialization_round_trip_predicts_identically(
        self, trained, target_fingerprint
    ):
        payload = json.loads(json.dumps(trained.to_jsonable(), allow_nan=False))
        restored = TrainedSurrogate.from_jsonable(payload)
        assert restored.model_kind == trained.model_kind
        assert restored.kb_version == trained.kb_version
        assert restored.support_units == trained.support_units
        X = np.asarray(trained.support_units, dtype=float)
        mu_a, _ = trained.predict(X, target_fingerprint)
        mu_b, _ = restored.predict(X, target_fingerprint)
        np.testing.assert_array_equal(mu_a, mu_b)

    def test_rejects_wrong_payload_kind(self):
        with pytest.raises(SurrogateError, match="trained_surrogate"):
            TrainedSurrogate.from_jsonable({"kind": "nonsense"})


# ---------------------------------------------------------------------------
# Registry: version-stamped cache with invalidation on ingest
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_invalidation_on_ingest(self):
        """Acceptance pin: fresh hit reuses the model, ingest retrains."""
        system = HadoopSimulator()
        space = system.config_space
        store = SurrogateStore()
        with KnowledgeBase(":memory:") as kb:
            _populate(kb, system, [wordcount(6), wordcount(12)])
            first = store.get(kb, "hadoop", "wordcount", space)
            assert first is not None
            assert store.trains == 1
            again = store.get(kb, "hadoop", "wordcount", space)
            assert again is first  # version match: cache hit, no retrain
            assert store.trains == 1
            # Any ingest bumps the KB version and invalidates the model.
            history = _explore(system, wordcount(8), 8, seed=77)
            kb.ingest_history(system, wordcount(8), history, seed=77)
            refreshed = store.get(kb, "hadoop", "wordcount", space)
            assert store.trains == 2
            assert refreshed.kb_version == tuple(kb.version())
            assert refreshed.kb_version != first.kb_version

    def test_train_false_serves_only_fresh_cache(self):
        system = HadoopSimulator()
        store = SurrogateStore()
        with KnowledgeBase(":memory:") as kb:
            _populate(kb, system, [wordcount(6)])
            assert store.get(
                kb, "hadoop", "wordcount", system.config_space, train=False
            ) is None
            assert store.trains == 0

    def test_disk_persistence_survives_restart(self, tmp_path, hadoop_kb):
        kb, system = hadoop_kb
        space = system.config_space
        store = SurrogateStore(str(tmp_path / "models"))
        assert store.get(kb, "hadoop", "wordcount", space) is not None
        assert store.trains == 1
        # A new store over the same directory warm-loads without training.
        reborn = SurrogateStore(str(tmp_path / "models"))
        model = reborn.get(kb, "hadoop", "wordcount", space)
        assert model is not None
        assert reborn.trains == 0
        assert model.kb_version == tuple(kb.version())

    def test_status_reports_freshness(self, hadoop_kb):
        kb, system = hadoop_kb
        store = SurrogateStore()
        store.get(kb, "hadoop", "wordcount", system.config_space)
        status = store.status(kb)
        assert status["n_models"] == 1
        assert status["trains"] == 1
        assert status["models"][0]["fresh"] is True
        json.dumps(status, allow_nan=False)  # strict-JSON safe


# ---------------------------------------------------------------------------
# Recommender
# ---------------------------------------------------------------------------
class TestRecommend:
    def test_rank_configs_orders_by_prediction(
        self, trained, hadoop_kb, target_fingerprint
    ):
        _, system = hadoop_kb
        ranked = rank_configs(trained, system.config_space, target_fingerprint)
        assert ranked
        mus = [mu for _, mu, _ in ranked]
        assert mus == sorted(mus)
        for config, _, _ in ranked[:5]:
            assert set(config.to_dict()) == set(system.config_space.names())

    def test_space_mismatch_yields_empty(self, trained, target_fingerprint):
        other_space = DbmsSimulator().config_space
        assert rank_configs(trained, other_space, target_fingerprint) == []

    def test_recommendation_gates_on_confidence(
        self, trained, hadoop_kb, target_fingerprint
    ):
        _, system = hadoop_kb
        confident = recommend_config(
            trained, system.config_space, target_fingerprint,
            confidence_threshold=math.inf,
        )
        assert confident is not None and confident.confident
        assert confident.predicted_runtime_s > 0
        gated = recommend_config(
            trained, system.config_space, target_fingerprint,
            confidence_threshold=0.0,
        )
        assert gated is not None and not gated.confident

    def test_surrogate_prior_rows(self, trained, hadoop_kb, target_fingerprint):
        _, system = hadoop_kb
        rows = surrogate_prior(
            trained, system.config_space, target_fingerprint, k=3
        )
        assert 0 < len(rows) <= 3
        for row in rows:
            assert isinstance(row, PriorObservation)
            assert row.source_workload == "surrogate:wordcount"
            assert row.source_session == -1
            assert math.isfinite(row.runtime_s) and row.runtime_s > 0


# ---------------------------------------------------------------------------
# Service wiring (in-process and over HTTP)
# ---------------------------------------------------------------------------
class TestServiceSurrogateMode:
    def test_serves_zero_probe_from_kb(self, hadoop_kb):
        kb, _ = hadoop_kb
        service = RecommendationService(kb)
        response = service.recommend(
            {"workload": "wordcount-6g", "system_kind": "hadoop",
             "mode": "surrogate"}
        )
        assert response["mode"] == "surrogate"
        assert response["served_by"] == "surrogate"
        assert response["fallback_reason"] is None
        assert response["recommended"]["from_surrogate"] == "wordcount"
        assert response["recommended"]["expected_runtime_s"] > 0
        assert set(response["recommended"]["config"])
        status = service.surrogate_status()
        assert status["trains"] == 1

    def test_recommend_runs_no_simulator(self, hadoop_kb, monkeypatch):
        """Zero-probe serving: both modes answer from the KB alone, so
        a simulator entry point that raises is never reached."""
        kb, _ = hadoop_kb

        def probe(*args, **kwargs):
            raise AssertionError("recommend ran a simulator")

        for cls in (DbmsSimulator, HadoopSimulator, SparkSimulator):
            for name in ("run", "run_batch", "run_batch_vectorized"):
                monkeypatch.setattr(cls, name, probe)
        service = RecommendationService(kb)
        request = {"workload": "wordcount-6g", "system_kind": "hadoop"}
        similarity = service.recommend(dict(request, mode="similarity"))
        surrogate = service.recommend(dict(request, mode="surrogate"))
        assert similarity["recommended"]["config"]
        assert surrogate["served_by"] == "surrogate"
        assert surrogate["recommended"]["config"]

    def test_low_confidence_falls_back_to_similarity(self, hadoop_kb):
        """Acceptance pin: an impossible gate forces the fallback."""
        kb, _ = hadoop_kb
        service = RecommendationService(kb, confidence_threshold=0.0)
        response = service.recommend(
            {"workload": "wordcount-6g", "system_kind": "hadoop",
             "mode": "surrogate"}
        )
        assert response["served_by"] == "similarity-fallback"
        assert response["fallback_reason"] == "low-confidence"
        assert response["surrogate"] is not None  # diagnostics kept
        # ... and the answer is exactly the similarity recommendation.
        assert response["recommended"]["from_session"] is not None

    def test_empty_kb_is_a_client_error(self):
        with KnowledgeBase(":memory:") as kb:
            service = RecommendationService(kb)
            with pytest.raises(ServiceError):
                service.recommend(
                    {"workload": "anything", "mode": "surrogate"}
                )

    def test_unknown_workload_is_a_client_error(self, hadoop_kb):
        kb, _ = hadoop_kb
        service = RecommendationService(kb)
        with pytest.raises(ServiceError, match="unknown workload"):
            service.recommend(
                {"workload": "no-such-workload", "mode": "surrogate"}
            )

    def test_unknown_mode_rejected(self, hadoop_kb):
        kb, _ = hadoop_kb
        service = RecommendationService(kb)
        with pytest.raises(ServiceError, match="mode"):
            service.recommend({"workload": "wordcount-6g", "mode": "oracle"})


class TestServiceOverHttp:
    def test_all_failed_training_session_strict_json(self):
        """Surrogate mode over real HTTP with a KB whose only session
        crashed every run: the reply must fall back, carry no Infinity
        literals, and stay parseable strict JSON."""
        system = HadoopSimulator()
        workload = wordcount(6)
        space = system.config_space
        history = TuningHistory()
        # Feasible per the space's constraints, but the sort buffer plus
        # JVM overhead exceeds the map container: deterministic OOM.
        hog = space.partial(
            {"mapreduce_map_memory_mb": 391, "io_sort_mb": 254}
        )
        for i in range(6):
            history.record(Observation(
                config=hog, measurement=system.run(workload, hog),
                tag="default" if i == 0 else f"crash-{i}",
                workload=workload.name,
            ))
        assert all(not obs.ok for obs in history)

        with KnowledgeBase(":memory:") as kb:
            kb.ingest_history(system, workload, history)
            server = make_server(kb, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                req = urllib.request.Request(
                    f"http://{host}:{port}/recommend",
                    data=json.dumps({
                        "workload": workload.name,
                        "system_kind": "hadoop",
                        "mode": "surrogate",
                    }).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(req, timeout=10) as resp:
                    body = resp.read().decode()
                    assert resp.status == 200
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
        assert "Infinity" not in body and "NaN" not in body
        response = json.loads(body)
        assert response["served_by"] == "similarity-fallback"
        assert response["fallback_reason"] == "no-model"  # all rows failed
        assert response["recommended"] is None  # nothing finite to replay

    def test_surrogate_status_endpoint(self, hadoop_kb):
        kb, _ = hadoop_kb
        server = make_server(kb, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/surrogate/status", timeout=10
            ) as resp:
                assert resp.status == 200
                status = json.loads(resp.read())
            assert status["n_models"] == 0  # nothing trained yet
            assert status["kb_version"] == list(kb.version())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Fleet integration
# ---------------------------------------------------------------------------
class TestFleetSurrogatePriors:
    def test_controller_stacks_surrogate_rows(self):
        from repro.fleet import FleetController, TenantSpec

        system = HadoopSimulator()
        store = SurrogateStore()
        with KnowledgeBase(":memory:") as kb:
            _populate(kb, system, [wordcount(6), wordcount(12)])
            spec = TenantSpec(
                name="t0", system=HadoopSimulator(),
                workloads=[wordcount(8)], episode_budget=4,
            )
            controller = FleetController(
                [spec], epochs=2, seed=0, kb=kb, surrogate_store=store,
            )
            report = controller.run()
        assert report["epochs_done"] == 2
        assert store.trains >= 1  # the prior path exercised the registry

    def test_default_controller_has_no_surrogate_store(self):
        from repro.fleet import FleetController, TenantSpec

        spec = TenantSpec(
            name="t0", system=DbmsSimulator(),
            workloads=[olap_analytics(0.3)], episode_budget=4,
        )
        controller = FleetController([spec], epochs=1, seed=0)
        assert controller.surrogate_store is None
