"""Tests for the execution engine: ParallelRunner, EvaluationCache,
batched session evaluation, ordered run-all, and incremental GP fits."""

import numpy as np
import pytest

from repro.bench.harness import standard_cluster
from repro.bench.run_all import run_all_experiments
from repro.core import Budget
from repro.chaos import ChaosSystem, TransientFaults
from repro.core.session import TuningSession
from repro.core.system import InstrumentedSystem
from repro.exceptions import BudgetExhausted
from repro.exec import (
    EvaluationCache,
    ParallelRunner,
    fingerprint,
    resolve_jobs,
)
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.kernels import Matern52
from repro.systems.dbms import DbmsSimulator, htap_mixed


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _dbms():
    return DbmsSimulator(standard_cluster())


def _configs(system, n, seed=0):
    rng = np.random.default_rng(seed)
    return [system.config_space.sample_configuration(rng) for _ in range(n)]


class TestParallelRunner:
    def test_serial_thread_process_agree(self):
        items = list(range(12))
        expected = [_square(i) for i in items]
        for jobs, mode in ((1, "process"), (3, "thread"), (3, "process")):
            with ParallelRunner(jobs=jobs, mode=mode) as runner:
                assert runner.map(_square, items) == expected, (jobs, mode)

    def test_order_preserved_with_uneven_tasks(self):
        import time

        def slow_if_even(x):
            if x % 2 == 0:
                time.sleep(0.01)
            return x

        with ParallelRunner(jobs=4, mode="thread") as runner:
            assert runner.map(slow_if_even, list(range(10))) == list(range(10))

    def test_starmap(self):
        with ParallelRunner(jobs=2, mode="thread") as runner:
            assert runner.starmap(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) >= 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(5) == 5
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_serial_mode_never_builds_pools(self):
        """One worker is the serial path in either mode: no pool."""
        for mode in ("process", "thread"):
            runner = ParallelRunner(jobs=1, mode=mode)
            assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert runner._process_pool is None
            assert runner._thread_pool is None


class TestFingerprint:
    def test_stable_and_discriminating(self):
        system = _dbms()
        assert fingerprint(_dbms()) == fingerprint(system)
        assert fingerprint(htap_mixed(0.3)) == fingerprint(htap_mixed(0.3))
        assert fingerprint(htap_mixed(0.3)) != fingerprint(htap_mixed(0.6))

    def test_rng_holding_object_is_unfingerprintable(self):
        from repro.exec import Unfingerprintable

        flaky = ChaosSystem(
            _dbms(), [TransientFaults(0.2)], rng=np.random.default_rng(0)
        )
        with pytest.raises(Unfingerprintable):
            fingerprint(flaky)


class TestEvaluationCache:
    def test_hits_misses_and_stats(self):
        cache = EvaluationCache()
        system, wl = _dbms(), htap_mixed(0.3)
        config = system.default_configuration()
        first = cache.run(system, wl, config)
        second = cache.run(system, wl, config)
        assert first.runtime_s == second.runtime_s
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = EvaluationCache(max_entries=2)
        system, wl = _dbms(), htap_mixed(0.3)
        for config in _configs(system, 3):
            cache.run(system, wl, config)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    def test_cached_runs_byte_identical_to_cold(self):
        # The cache sits below noise injection: a hit still draws noise
        # in sequence, so a warmed system must reproduce a cold system's
        # measurements exactly, including the noise.
        wl = htap_mixed(0.3)
        configs = _configs(_dbms(), 5, seed=7)
        sequence = configs + configs  # second half hits the cache

        cold = InstrumentedSystem(_dbms(), noise=0.2,
                                  rng=np.random.default_rng(42))
        cached = InstrumentedSystem(_dbms(), noise=0.2,
                                    rng=np.random.default_rng(42),
                                    eval_cache=EvaluationCache())
        cold_rt = [cold.run(wl, c).runtime_s for c in sequence]
        warm_rt = [cached.run(wl, c).runtime_s for c in sequence]
        assert warm_rt == cold_rt
        assert cached.eval_cache.stats()["hits"] == len(configs)
        assert cached.run_count == cold.run_count == len(sequence)

    def test_uncacheable_system_runs_directly(self):
        cache = EvaluationCache()
        flaky = ChaosSystem(
            _dbms(), [TransientFaults(0.5)], rng=np.random.default_rng(3)
        )
        wl = htap_mixed(0.3)
        config = flaky.default_configuration()
        results = [cache.run(flaky, wl, config).ok for _ in range(6)]
        # Never cached: the flaky rng advances, so outcomes vary.
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
        assert len(set(results)) == 2

    def test_batch_runner_results_match_serial(self):
        wl = htap_mixed(0.3)
        configs = _configs(_dbms(), 6, seed=1)
        serial = InstrumentedSystem(_dbms(), noise=0.1,
                                    rng=np.random.default_rng(5))
        with ParallelRunner(jobs=2, mode="thread") as runner:
            parallel = InstrumentedSystem(_dbms(), noise=0.1,
                                          rng=np.random.default_rng(5),
                                          eval_cache=EvaluationCache(),
                                          runner=runner)
            serial_rt = [m.runtime_s for m in serial.run_batch(wl, configs)]
            parallel_rt = [m.runtime_s for m in parallel.run_batch(wl, configs)]
        assert parallel_rt == serial_rt


class TestEvaluateBatch:
    def _session(self, max_runs):
        system = _dbms()
        return system, TuningSession(
            system, htap_mixed(0.3), Budget(max_runs=max_runs),
            rng=np.random.default_rng(0),
        )

    def test_batch_charged_atomically(self):
        system, session = self._session(10)
        measurements = session.evaluate_batch(_configs(system, 4), tag="b")
        assert len(measurements) == 4
        assert session.real_runs == 4
        assert [o.tag for o in session.history.real_observations()] == ["b"] * 4

    def test_truncation_at_budget_boundary(self):
        system, session = self._session(5)
        for config in _configs(system, 3):
            session.evaluate(config)
        # 2 runs remain: a batch of 4 truncates to the 2-run prefix.
        measurements = session.evaluate_batch(_configs(system, 4, seed=9))
        assert len(measurements) == 2
        assert session.real_runs == 5
        with pytest.raises(BudgetExhausted):
            session.evaluate_batch(_configs(system, 2, seed=11))

    def test_empty_batch_and_tag_validation(self):
        system, session = self._session(3)
        assert session.evaluate_batch([]) == []
        assert session.real_runs == 0
        with pytest.raises(ValueError):
            session.evaluate_batch(_configs(system, 2), tags=["only-one"])

    def test_per_config_tags_recorded(self):
        system, session = self._session(4)
        session.evaluate_batch(_configs(system, 2), tags=["x0", "x1"])
        assert [o.tag for o in session.history.real_observations()] == ["x0", "x1"]


class TestRunAllOrdering:
    def test_only_order_is_honored(self):
        results = run_all_experiments(quick=True, only=["E16", "E3", "E10"])
        assert [key for key, _, _ in results] == ["E16", "E3", "E10"]

    def test_only_dedupes_and_ignores_unknown(self):
        results = run_all_experiments(quick=True, only=["E3", "E3", "E99"])
        assert [key for key, _, _ in results] == ["E3"]

    def test_parallel_rows_match_serial(self):
        only = ["E3", "E16", "E10"]
        serial = run_all_experiments(quick=True, only=only, jobs=1)
        parallel = run_all_experiments(quick=True, only=only, jobs=2)
        assert [k for k, _, _ in parallel] == [k for k, _, _ in serial]
        for (_, s_res, _), (_, p_res, _) in zip(serial, parallel):
            assert p_res.headers == s_res.headers
            assert p_res.rows == s_res.rows


class TestIncrementalGP:
    def test_add_observation_matches_full_refit(self):
        rng = np.random.default_rng(0)
        X = rng.random((20, 4))
        y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(20)
        gp = GaussianProcess(kernel=Matern52(), optimize=True).fit(X[:16], y[:16])
        for i in range(16, 20):
            gp.add_observation(X[i], y[i])
        refit = GaussianProcess(
            kernel=gp.kernel, noise=gp.noise, optimize=False
        ).fit(X, y)

        Xq = rng.random((30, 4))
        mean_inc, std_inc = gp.predict(Xq, return_std=True)
        mean_ref, std_ref = refit.predict(Xq, return_std=True)
        np.testing.assert_allclose(mean_inc, mean_ref, atol=1e-8)
        np.testing.assert_allclose(std_inc, std_ref, atol=1e-8)
        # The refit reports LML with base jitter while the factorization
        # carries escalated jitter, so the reported scalar agrees only to
        # ~1e-7; the fits themselves agree to 1e-8 above.
        assert gp.log_marginal_likelihood_ == pytest.approx(
            refit.log_marginal_likelihood_, abs=1e-6
        )

    def test_add_observation_duplicate_point_stays_stable(self):
        rng = np.random.default_rng(1)
        X = rng.random((10, 3))
        y = X.sum(axis=1)
        gp = GaussianProcess(kernel=Matern52(), noise=1e-6, optimize=False)
        gp.fit(X, y)
        gp.add_observation(X[0], y[0])  # exact duplicate
        mean, std = gp.predict(X[:3], return_std=True)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))
        assert gp.n_train == 11

    def test_predict_without_std_returns_none(self):
        rng = np.random.default_rng(2)
        X = rng.random((8, 2))
        gp = GaussianProcess(optimize=False).fit(X, X.sum(axis=1))
        mean, std = gp.predict(X)
        assert std is None
        mean_again, std_again = gp.predict(X, return_std=True)
        np.testing.assert_allclose(mean, mean_again)
        assert std_again is not None


class TestBatchedTuners:
    def test_ituned_batched_respects_budget(self):
        from repro.tuners.experiment.ituned import ITunedTuner

        system = _dbms()
        result = ITunedTuner(n_init=6, n_candidates=50, batch_size=3).tune(
            system, htap_mixed(0.3), Budget(max_runs=14),
            rng=np.random.default_rng(0),
        )
        assert result.n_real_runs == 14
        assert np.isfinite(result.best_runtime_s)

    def test_sard_batched_ranking_matches_serial(self):
        from repro.tuners.experiment.sard import SardRanker

        ranker = SardRanker()
        system = _dbms()
        wl = htap_mixed(0.3)
        s1 = TuningSession(system, wl, Budget(max_runs=40),
                           rng=np.random.default_rng(4))
        s2 = TuningSession(system, wl, Budget(max_runs=40),
                           rng=np.random.default_rng(4))
        serial = ranker.rank(s1, batch_size=1)
        batched = ranker.rank(s2, batch_size=5)
        assert [name for name, _ in batched] == [name for name, _ in serial]
        np.testing.assert_allclose(
            [v for _, v in batched], [v for _, v in serial]
        )
