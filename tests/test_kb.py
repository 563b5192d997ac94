"""Tests for the persistent tuning knowledge base and transfer priors."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from repro.core import Budget
from repro.core.measurement import Measurement, Observation, TuningHistory
from repro.core.serialize import to_jsonable
from repro.kb import (
    KnowledgeBase,
    WorkloadFingerprint,
    fingerprint_from_history,
    probe_fingerprint,
    rank_similar,
    warm_start_prior,
)
from repro.systems.dbms import DbmsSimulator, htap_mixed, olap_analytics, oltp_orders
from repro.tuners import (
    BayesOptTuner,
    ITunedTuner,
    OtterTuneRepository,
    RandomSearchTuner,
    build_repository,
)


@pytest.fixture(scope="module")
def system():
    return DbmsSimulator()


@pytest.fixture(scope="module")
def olap_result(system):
    return RandomSearchTuner().tune(
        system, olap_analytics(), Budget(max_runs=10), np.random.default_rng(0)
    )


@pytest.fixture()
def kb(system, olap_result):
    with KnowledgeBase(":memory:") as store:
        store.ingest_result(system, olap_analytics(), olap_result, seed=0)
        yield store


class TestStore:
    def test_ingest_and_list(self, kb, system):
        records = kb.sessions(system_kind="dbms")
        assert len(records) == 1
        record = records[0]
        assert record.workload_name == olap_analytics().name
        assert record.tuner_name == "random-search"
        assert record.seed == 0
        assert record.n_runs == 10
        assert math.isfinite(record.best_runtime_s)
        assert record.space_names == tuple(system.config_space.names())
        assert record.fingerprint is not None

    def test_history_roundtrip(self, kb, system, olap_result):
        record = kb.sessions()[0]
        history = kb.history(record.session_id, system.config_space)
        assert len(history) == len(olap_result.history)
        assert history.best_runtime() == pytest.approx(
            olap_result.history.best_runtime()
        )
        best = history.best()
        assert best.config == olap_result.best_config

    def test_filters(self, kb):
        assert kb.sessions(system_kind="spark") == []
        assert kb.sessions(workload_name="nope") == []
        assert kb.sessions(space_names=("wrong", "names")) == []

    def test_version_changes_on_ingest(self, kb, system, olap_result):
        v0 = kb.version()
        kb.ingest_result(system, oltp_orders(), olap_result, seed=1)
        assert kb.version() != v0
        assert len(kb) == 2

    def test_unknown_session_raises(self, kb, system):
        with pytest.raises(KeyError):
            kb.history(999, system.config_space)

    def test_bad_payload_rejected(self, kb):
        with pytest.raises(ValueError):
            kb.ingest_payload({"kind": "not-a-session"})

    def test_infinite_best_runtime_roundtrips(self, kb, system):
        history = TuningHistory()
        history.record(Observation(
            system.default_configuration(), Measurement.failure(), tag="boom"
        ))
        sid = kb.ingest_history(system, olap_analytics(), history)
        record = [r for r in kb.sessions() if r.session_id == sid][0]
        assert math.isinf(record.best_runtime_s)
        rebuilt = kb.history(sid, system.config_space)
        assert not rebuilt[0].ok

    def test_file_backed_store_persists(self, tmp_path, system, olap_result):
        path = str(tmp_path / "tuning.kb")
        with KnowledgeBase(path) as store:
            store.ingest_result(system, olap_analytics(), olap_result)
        with KnowledgeBase(path) as store:
            assert len(store) == 1
            record = store.sessions()[0]
            history = store.history(record.session_id, system.config_space)
            assert len(history) == len(olap_result.history)

    def test_concurrent_ingest_is_safe(self, system, olap_result, tmp_path):
        with KnowledgeBase(str(tmp_path / "c.kb")) as store:
            def ingest():
                for _ in range(5):
                    store.ingest_result(
                        system, olap_analytics(), olap_result
                    )

            threads = [threading.Thread(target=ingest) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(store) == 20

    def test_summary_groups_by_workload(self, kb, system, olap_result):
        kb.ingest_result(system, oltp_orders(), olap_result)
        summary = kb.summary()
        assert summary["n_sessions"] == 2
        names = {w["workload"] for w in summary["workloads"]}
        assert names == {olap_analytics().name, oltp_orders().name}


class _Opaque:
    def __repr__(self):
        return "<opaque extra>"


class TestSessionDocument:
    """Both document paths build the same ``kb_session`` bytes, key
    order included, as the dict spelled out here."""

    @staticmethod
    def _expected(system, workload, history, tuner, seed, n_runs,
                  best_config, best_runtime_s, fingerprint, extras):
        return {
            "version": 1,
            "kind": "kb_session",
            "system_kind": system.kind,
            "system_name": system.name,
            "workload": workload.name,
            "tuner": tuner,
            "seed": seed,
            "n_runs": n_runs,
            "best_runtime_s": best_runtime_s,
            "best_config": best_config.to_dict(),
            "space_names": system.config_space.names(),
            "metric_names": system.metric_names,
            "fingerprint": fingerprint.to_jsonable(),
            "history": to_jsonable(history),
            "extras": extras,
        }

    def test_session_payload_bytes(self, kb, system, olap_result):
        result = dataclasses.replace(
            olap_result, extras={**olap_result.extras, "model": _Opaque()}
        )
        workload = olap_analytics()
        expected = self._expected(
            system, workload, result.history, "random-search", 5, 10,
            result.best_config, result.best_runtime_s,
            fingerprint_from_history(result.history),
            {"resilience": olap_result.extras["resilience"],
             "model": "<opaque extra>"},
        )
        payload = kb.session_payload(system, workload, result, seed=5)
        assert json.dumps(payload) == json.dumps(expected)

    def test_ingest_history_bytes(self, kb, system, monkeypatch):
        written = []
        insert = kb._insert_payload
        monkeypatch.setattr(
            kb, "_insert_payload",
            lambda payload: written.append(payload) or insert(payload),
        )
        history = TuningHistory()
        history.record(Observation(
            system.default_configuration(), Measurement.failure(), tag="boom"
        ))
        workload = oltp_orders()
        kb.ingest_history(system, workload, history, seed=9,
                          extras={"fleet": {"epoch": 2}})
        expected = self._expected(
            system, workload, history, "offline-sampler", 9, 1,
            system.default_configuration(), "inf",
            probe_fingerprint(system, workload), {"fleet": {"epoch": 2}},
        )
        assert [json.dumps(p) for p in written] == [json.dumps(expected)]
        assert len(kb) == 2


class TestFingerprint:
    def test_probe_matches_history_default(self, system):
        fp_probe = probe_fingerprint(system, olap_analytics())
        history = TuningHistory()
        history.record(Observation(
            system.default_configuration(),
            system.run(olap_analytics(), system.default_configuration()),
            tag="default",
        ))
        fp_hist = fingerprint_from_history(history)
        assert fp_hist.probe_runtime_s == pytest.approx(fp_probe.probe_runtime_s)
        assert fp_hist.metrics == fp_probe.metrics

    def test_jsonable_roundtrip_inf(self):
        fp = WorkloadFingerprint(metrics={"a": 1.0}, probe_runtime_s=math.inf)
        back = WorkloadFingerprint.from_jsonable(fp.to_jsonable())
        assert math.isinf(back.probe_runtime_s)
        assert back.metrics == {"a": 1.0}

    def test_rank_similar_prefers_same_workload(self, system):
        fps = {
            name: probe_fingerprint(system, wl)
            for name, wl in [
                ("olap", olap_analytics()),
                ("oltp", oltp_orders()),
                ("htap", htap_mixed()),
            ]
        }
        ranked = rank_similar(fps["olap"], list(fps.items()))
        assert ranked[0][0] == "olap"
        assert ranked[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_empty_candidates(self):
        assert rank_similar(WorkloadFingerprint(), []) == []


class TestTransferPrior:
    def test_prior_excludes_target_and_scales(self, kb, system):
        prior = warm_start_prior(
            kb, system, htap_mixed(),
            exclude_workloads=(htap_mixed().name,),
        )
        assert len(prior) > 0
        assert all(
            row.source_workload == olap_analytics().name for row in prior.rows
        )
        X, y = prior.training_data(system.config_space)
        assert X.shape == (len(prior), system.config_space.dimension)
        assert np.all(np.isfinite(y)) and np.all(y > 0)

    def test_prior_best_configs_are_distinct_and_feasible(self, kb, system):
        prior = warm_start_prior(kb, system, htap_mixed())
        configs = prior.best_configs(system.config_space, k=3)
        assert 1 <= len(configs) <= 3
        assert len(set(configs)) == len(configs)

    def test_empty_kb_gives_empty_prior(self, system):
        with KnowledgeBase(":memory:") as empty:
            prior = warm_start_prior(empty, system, htap_mixed())
        assert len(prior) == 0
        assert prior.best_configs(system.config_space) == []
        X, y = prior.training_data(system.config_space)
        assert X.shape[0] == 0 and y.shape[0] == 0

    def test_summary_is_jsonable(self, kb, system):
        import json

        prior = warm_start_prior(kb, system, htap_mixed())
        blob = json.dumps(prior.summary())
        assert "matched_workloads" in blob


class TestWarmStartTuning:
    def test_prior_never_charged_to_budget(self, kb, system):
        prior = warm_start_prior(kb, system, htap_mixed())
        budget = Budget(max_runs=8)
        result = BayesOptTuner(n_init=2, n_candidates=40).tune(
            system, htap_mixed(), budget,
            rng=np.random.default_rng(5), prior=prior,
        )
        assert result.n_real_runs <= budget.max_runs
        assert result.extras["warm_start"]["n_prior_observations"] == len(prior)
        tags = [o.tag for o in result.history.real_observations()]
        assert any(t.startswith("prior-") for t in tags)

    def test_cold_tuner_ignores_prior(self, kb, system):
        # A tuner whose class does not use priors drops a passed one.
        prior = warm_start_prior(kb, system, htap_mixed())
        assert len(prior) and not RandomSearchTuner.uses_prior
        runs = [
            RandomSearchTuner().tune(
                system, htap_mixed(), Budget(max_runs=6),
                rng=np.random.default_rng(5), prior=given,
            )
            for given in (prior, None)
        ]
        assert "warm_start" not in runs[0].extras
        tags = [o.tag for o in runs[0].history.real_observations()]
        assert not any(t.startswith("prior-") for t in tags)
        assert runs[0].history.digest() == runs[1].history.digest()

    def test_warm_equals_cold_without_prior(self, system):
        # Without a prior, a tuner that uses priors runs as one that
        # does not.
        class ColdITuned(ITunedTuner):
            uses_prior = False

        budget = Budget(max_runs=8)
        warm = ITunedTuner(n_init=3, n_candidates=40).tune(
            system, htap_mixed(), budget, rng=np.random.default_rng(9)
        )
        cold = ColdITuned(n_init=3, n_candidates=40).tune(
            system, htap_mixed(), budget, rng=np.random.default_rng(9)
        )
        assert warm.best_runtime_s == cold.best_runtime_s
        assert warm.best_config == cold.best_config


class TestOtterTuneKb:
    def test_repository_from_kb(self, kb, system, olap_result):
        kb.ingest_result(system, oltp_orders(), olap_result, seed=2)
        repo = OtterTuneRepository.from_kb(kb, system)
        assert {w.name for w in repo.workloads} == {
            olap_analytics().name, oltp_orders().name
        }
        assert repo.metric_names == list(system.metric_names)

    def test_from_kb_excludes_target(self, kb, system):
        repo = OtterTuneRepository.from_kb(
            kb, system, min_samples=1,
            exclude_workloads=(),
        )
        with pytest.raises(Exception):
            OtterTuneRepository.from_kb(
                kb, system, exclude_workloads=(olap_analytics().name,)
            )
        assert repo.workloads

    def test_build_repository_persists_to_kb(self, system):
        with KnowledgeBase(":memory:") as store:
            repo = build_repository(
                system, [olap_analytics()], n_samples=12,
                rng=np.random.default_rng(3), kb=store,
            )
            assert repo.workloads
            record = store.sessions()[0]
            assert record.tuner_name == "repository-sampler"
            assert record.n_runs == 12
            # the persisted sweep is usable as repository data again
            rebuilt = OtterTuneRepository.from_kb(store, system)
            assert rebuilt.workloads[0].X.shape[0] > 0
