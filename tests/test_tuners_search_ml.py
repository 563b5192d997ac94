"""Tests for experiment-driven and machine-learning tuners."""

import numpy as np
import pytest

from repro.core import Budget, SubspaceSystem
from repro.core.session import TuningSession
from repro.systems.cluster import Cluster
from repro.systems.dbms import (
    DBMS_TUNING_KNOBS,
    DbmsSimulator,
    adhoc_query,
    build_screening_space,
    htap_mixed,
    olap_analytics,
    oltp_orders,
)
from repro.systems.hadoop import HadoopSimulator, terasort
from repro.tuners import (
    AdaptiveSamplingTuner,
    BayesOptTuner,
    ITunedTuner,
    NeuralNetTuner,
    OtterTuneTuner,
    RecursiveRandomSearchTuner,
    SardRanker,
    SardTuner,
    build_repository,
)


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def cluster():
    return Cluster.uniform(4)


@pytest.fixture(scope="module")
def dbms(cluster):
    return DbmsSimulator(cluster)


@pytest.fixture(scope="module")
def workload():
    return htap_mixed(0.5)


@pytest.fixture(scope="module")
def default_runtime(dbms, workload):
    return dbms.run(workload, dbms.default_configuration()).runtime_s


class TestSard:
    def test_ranker_finds_dominant_knob(self, cluster):
        hadoop = HadoopSimulator(cluster)
        fsystem = SubspaceSystem(
            hadoop, ["mapreduce_job_reduces", "heartbeat_interval_s", "counters_limit"]
        )
        session = TuningSession(
            fsystem, terasort(4.0), Budget(max_runs=30), rng()
        )
        ranking = SardRanker().rank(session)
        assert ranking[0][0] == "mapreduce_job_reduces"
        assert ranking[0][1] > ranking[-1][1]

    def test_ranker_with_tiny_budget_degrades_gracefully(self, dbms, workload):
        session = TuningSession(dbms, workload, Budget(max_runs=2), rng())
        ranking = SardRanker().rank(session)
        assert all(effect == 0.0 for _, effect in ranking)

    def test_sard_tuner_improves(self, dbms, workload, default_runtime):
        screening = build_screening_space(dbms.cluster.min_node.memory_mb)
        fsystem = SubspaceSystem(dbms, DBMS_TUNING_KNOBS, space=screening)
        result = SardTuner(top_k=2).tune(fsystem, workload, Budget(max_runs=60), rng())
        assert result.best_runtime_s < default_runtime
        assert "sard_ranking" in result.extras

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SardTuner(top_k=0)


class TestITuned:
    def test_improves_over_default(self, dbms, workload, default_runtime):
        result = ITunedTuner(n_init=6).tune(dbms, workload, Budget(max_runs=20), rng())
        assert result.best_runtime_s < default_runtime
        assert result.n_real_runs == 20

    def test_ei_steps_follow_lhs(self, dbms, workload):
        result = ITunedTuner(n_init=5).tune(dbms, workload, Budget(max_runs=15), rng())
        tags = [o.tag for o in result.history.real_observations()]
        assert tags[0] == "default"
        assert sum(1 for t in tags if t.startswith("lhs")) == 5
        assert any(t.startswith("ei-") for t in tags)

    def test_beats_random_search_on_average(self, dbms, workload):
        from repro.tuners import RandomSearchTuner

        budget = Budget(max_runs=22)
        it_scores, rs_scores = [], []
        for seed in range(3):
            it = ITunedTuner().tune(dbms, workload, budget, rng(seed))
            rs = RandomSearchTuner().tune(dbms, workload, budget, rng(seed))
            it_scores.append(it.best_runtime_s)
            rs_scores.append(rs.best_runtime_s)
        assert np.mean(it_scores) <= np.mean(rs_scores) * 1.1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ITunedTuner(n_init=1)


class TestAdaptiveSamplingAndRrs:
    def test_adaptive_sampling_improves(self, dbms, workload, default_runtime):
        result = AdaptiveSamplingTuner().tune(dbms, workload, Budget(max_runs=18), rng())
        assert result.best_runtime_s < default_runtime

    def test_rrs_improves(self, dbms, workload, default_runtime):
        result = RecursiveRandomSearchTuner().tune(
            dbms, workload, Budget(max_runs=18), rng()
        )
        assert result.best_runtime_s < default_runtime

    def test_rrs_validation(self):
        with pytest.raises(ValueError):
            RecursiveRandomSearchTuner(shrink=1.5)

    def test_adaptive_sampling_validation(self):
        with pytest.raises(ValueError):
            AdaptiveSamplingTuner(n_bootstrap=1)


class TestBayesOptAndNn:
    @pytest.mark.parametrize("acq", ["ei", "pi", "lcb"])
    def test_acquisitions_work(self, dbms, workload, default_runtime, acq):
        result = BayesOptTuner(acquisition=acq).tune(
            dbms, workload, Budget(max_runs=15), rng()
        )
        assert result.best_runtime_s < default_runtime

    def test_unknown_acquisition(self):
        with pytest.raises(ValueError):
            BayesOptTuner(acquisition="ucb-magic")

    def test_nn_tuner_improves(self, dbms, workload, default_runtime):
        result = NeuralNetTuner(epochs=150).tune(
            dbms, workload, Budget(max_runs=18), rng()
        )
        assert result.best_runtime_s < default_runtime

    def test_nn_epsilon_validation(self):
        with pytest.raises(ValueError):
            NeuralNetTuner(epsilon=2.0)


class TestOtterTune:
    @pytest.fixture(scope="class")
    def repo(self, dbms):
        return build_repository(
            dbms,
            [olap_analytics(0.3), oltp_orders(0.3, n_transactions=50_000), adhoc_query(3, 0.3)],
            n_samples=20,
            rng=rng(7),
        )

    def test_repository_contents(self, repo, dbms):
        assert len(repo.workloads) >= 2
        X, y, M = repo.all_observations()
        assert X.shape[1] == dbms.config_space.dimension
        assert M.shape[1] == len(repo.metric_names)
        assert np.isfinite(y).all()

    def test_metric_pruning_drops_constants(self, repo):
        pruned = repo.pruned_metrics()
        assert 0 < len(pruned) < len(repo.metric_names)
        _, _, M = repo.all_observations()
        for idx in pruned:
            assert M[:, idx].std() > 0

    def test_knob_ranking_returns_all_knobs(self, repo, dbms):
        ranked = repo.ranked_knobs(dbms.config_space)
        assert sorted(ranked) == sorted(dbms.config_space.names())

    def test_tuner_improves_and_reports_pipeline(self, repo, dbms, workload, default_runtime):
        result = OtterTuneTuner(repo, n_init=4).tune(
            dbms, workload, Budget(max_runs=18), rng(1)
        )
        assert result.best_runtime_s < default_runtime
        assert result.extras["ottertune_top_knobs"]
        assert result.extras["ottertune_pruned_metrics"]
        assert result.extras["ottertune_mapped_workload"] is not None

    def test_mapping_picks_closest_workload(self, repo, dbms):
        # Tuning an OLTP-like target should not map to the pure OLAP
        # history entry.
        target = oltp_orders(0.3, n_transactions=50_000)
        result = OtterTuneTuner(repo, n_init=4).tune(
            dbms, target, Budget(max_runs=10), rng(2)
        )
        mapped = result.extras["ottertune_mapped_workload"]
        assert "oltp" in mapped or "adhoc" in mapped


def _looped_repository(system, workloads, n_samples, seed, cache):
    """``build_repository``'s (name, X, y, metrics) rows from a
    per-config ``cache.run`` loop, or a plain ``system.run`` loop when
    ``cache`` is None."""
    from repro.mlkit.sampling import latin_hypercube

    run = system.run if cache is None else (
        lambda w, c: cache.run(system, w, c)
    )
    rng = np.random.default_rng(seed)
    space = system.config_space
    rows = []
    for workload in workloads:
        configs = space.from_arrays_feasible(
            latin_hypercube(n_samples, space.dimension, rng), rng
        )
        measured = [run(workload, c) for c in configs]
        y = np.array([m.runtime_s if m.ok else np.inf for m in measured])
        ok = np.isfinite(y)
        if ok.sum() >= 5:
            rows.append((
                workload.name,
                np.array([c.to_array() for c in configs]),
                np.where(ok, y, y[ok].max() * 3.0),
                np.array([m.metric_vector(system.metric_names)
                          for m in measured]),
            ))
    return rows


class TestRepositoryBatch:
    """``build_repository`` runs each design as one batch; its arrays
    and the cache's accounting equal a per-config loop's."""

    WORKLOADS = {
        "dbms": ("olap_analytics", "oltp_orders"),
        "spark": ("spark_wordcount", "spark_sort"),
        "hadoop": ("wordcount", "terasort"),
    }

    @pytest.fixture(autouse=True)
    def _fresh_global_cache(self):
        from repro.exec.cache import reset_global_cache

        reset_global_cache()
        yield
        reset_global_cache()

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("system_name", sorted(WORKLOADS))
    def test_equals_a_per_config_loop(self, monkeypatch, system_name, cached):
        import repro.workloads
        from repro.core.registry import make_system
        from repro.exec.cache import EvaluationCache, global_cache

        monkeypatch.setenv("REPRO_EVAL_CACHE", "1" if cached else "0")
        system = make_system(system_name)
        workloads = [getattr(repro.workloads, name)()
                     for name in self.WORKLOADS[system_name]]
        reference = EvaluationCache() if cached else None
        # twice over one cache: the second build is all hits
        for _ in range(2):
            repo = build_repository(system, workloads, n_samples=12,
                                    rng=rng(5))
            expected = _looped_repository(system, workloads, 12, 5, reference)
            assert [w.name for w in repo.workloads] == [r[0] for r in expected]
            for data, (_, X, y, M) in zip(repo.workloads, expected):
                np.testing.assert_array_equal(data.X, X)
                np.testing.assert_array_equal(data.y, y)
                np.testing.assert_array_equal(data.metrics, M)
        if cached:
            stats, want = global_cache().stats(), reference.stats()
            for field in ("entries", "hits", "misses", "evictions"):
                assert stats[field] == want[field], (field, stats, want)
            assert stats["hits"] == stats["misses"] == 24
        else:
            assert global_cache() is None
