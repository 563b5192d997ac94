"""Resilient execution: deadlines, retries, circuit breaker, failure
policies, and the infinite-runtime accounting regression."""

import math

import numpy as np
import pytest

from repro.chaos import ChaosSystem, ConfigBlackout, Hangs, TransientFaults
from repro.core import Budget, Measurement
from repro.core.measurement import Observation, TuningHistory
from repro.core.session import TuningSession
from repro.exec.resilience import (
    FAILURE_POLICIES,
    CircuitBreaker,
    ExecutionPolicy,
)
from repro.systems.cluster import Cluster
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro.tuners.common import (
    ResponseReplay,
    failure_response,
    history_to_training_data,
)


@pytest.fixture(scope="module")
def workload():
    return htap_mixed(0.3)


def _inner():
    return DbmsSimulator(Cluster.uniform(4))


def _session(system, workload, runs=20, execution=None, seed=0):
    return TuningSession(
        system, workload, Budget(max_runs=runs),
        np.random.default_rng(seed), execution=execution,
    )


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(deadline_s=-1.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(failure_policy="explode")

    def test_backoff_grows_and_caps(self):
        policy = ExecutionPolicy(max_retries=5, backoff_base_s=20.0)
        assert policy.backoff_s(0) == 20.0
        assert policy.backoff_s(1) == 40.0
        assert policy.backoff_s(2) == 60.0  # 80 capped at 60

    def test_default_policy_is_passive(self, workload):
        session = _session(_inner(), workload)
        assert session.execution.deadline_s is None
        assert session.breaker is None
        m = session.evaluate(session.default_config())
        assert m.ok
        assert session.resilience_summary()["failed_runs"] == 0


class TestDeadline:
    def test_hang_is_killed_and_charged_deadline(self, workload):
        chaos = ChaosSystem(_inner(), [Hangs(0.999)], seed=1)
        session = _session(
            chaos, workload, execution=ExecutionPolicy(deadline_s=50.0)
        )
        m = session.evaluate(session.default_config())
        assert m.failed
        assert m.metric("deadline_exceeded") == 1.0
        assert session.deadline_kills == 1
        assert session.experiment_time_s == pytest.approx(50.0)
        assert math.isfinite(session.experiment_time_s)

    def test_fast_runs_pass_deadline(self, workload):
        session = _session(
            _inner(), workload, execution=ExecutionPolicy(deadline_s=1e6)
        )
        m = session.evaluate(session.default_config())
        assert m.ok
        assert session.deadline_kills == 0


class TestRetries:
    def test_transient_failures_retry_and_charge_budget(self, workload):
        chaos = ChaosSystem(_inner(), [TransientFaults(0.999)], seed=2)
        session = _session(
            chaos, workload,
            execution=ExecutionPolicy(max_retries=2, backoff_base_s=1.5),
        )
        m = session.evaluate(session.default_config(), tag="t")
        assert m.failed  # every attempt fails at this rate
        assert session.retries == 2
        # Each failed attempt is a charged run; backoff is charged time.
        assert session.real_runs == 3
        tags = [o.tag for o in session.history.real_observations()]
        assert tags == ["t+retry0", "t+retry1", "t"]
        expected_backoff = 1.5 + 1.5 * 2.0
        assert session.experiment_time_s == pytest.approx(
            3 * 10.0 + expected_backoff
        )

    def test_config_faults_are_not_retried(self, workload):
        system = _inner()
        space = system.config_space
        knobs = ("temp_buffers_mb", "wal_buffers_mb")
        chaos = ChaosSystem(
            system, [ConfigBlackout(knobs=knobs, threshold=0.85)], seed=3
        )
        unit = np.full(space.dimension, 0.5)
        for k in knobs:
            unit[space.names().index(k)] = 0.95
        hot = space.from_array_feasible(unit, np.random.default_rng(0))
        session = _session(
            chaos, workload, execution=ExecutionPolicy(max_retries=3)
        )
        m = session.evaluate(hot)
        assert m.failed
        assert session.retries == 0
        assert session.real_runs == 1


class TestCircuitBreaker:
    def _blackout_setup(self, workload):
        system = _inner()
        space = system.config_space
        knobs = ("temp_buffers_mb", "wal_buffers_mb")
        chaos = ChaosSystem(
            system, [ConfigBlackout(knobs=knobs, threshold=0.85)], seed=4
        )
        unit = np.full(space.dimension, 0.5)
        for k in knobs:
            unit[space.names().index(k)] = 0.95
        hot = space.from_array_feasible(unit, np.random.default_rng(0))
        session = _session(
            chaos, workload,
            execution=ExecutionPolicy(breaker_threshold=2),
        )
        return session, hot

    def test_opens_after_threshold_and_skips(self, workload):
        session, hot = self._blackout_setup(workload)
        session.evaluate(hot)
        session.evaluate(hot)
        assert session.breaker.is_open(hot)
        before_time = session.experiment_time_s
        m = session.evaluate(hot)
        assert m.failed
        assert m.metric("quarantined") == 1.0
        assert session.quarantine_skips == 1
        # A skip charges one run but zero wall-clock.
        assert session.experiment_time_s == pytest.approx(before_time)
        summary = session.resilience_summary()
        assert summary["circuit"]["open_regions"] == 1
        assert summary["circuit"]["trips"] == 1

    def test_environmental_failures_do_not_trip(self, workload):
        chaos = ChaosSystem(_inner(), [TransientFaults(0.999)], seed=5)
        session = _session(
            chaos, workload, execution=ExecutionPolicy(breaker_threshold=2)
        )
        config = session.default_config()
        for _ in range(4):
            session.evaluate(config)
        assert not session.breaker.is_open(config)
        assert session.breaker.summary()["trips"] == 0

    def test_breaker_unit_streak_resets_on_success(self):
        system = _inner()
        breaker = CircuitBreaker(threshold=3)
        config = system.default_configuration()
        fail = Measurement.failure()
        breaker.record(config, fail)
        breaker.record(config, fail)
        breaker.record(config, Measurement(runtime_s=1.0))
        breaker.record(config, fail)
        breaker.record(config, fail)
        assert not breaker.is_open(config)
        breaker.record(config, fail)
        assert breaker.is_open(config)

    def test_batch_skips_quarantined_configs(self, workload):
        session, hot = self._blackout_setup(workload)
        session.evaluate(hot)
        session.evaluate(hot)
        cold = session.default_config()
        ms = session.evaluate_batch([hot, cold, hot])
        assert ms[0].metric("quarantined") == 1.0
        assert ms[1].ok
        assert ms[2].metric("quarantined") == 1.0


class TestFailurePolicies:
    def _history_session(self, workload, policy):
        session = _session(
            _inner(), workload,
            execution=ExecutionPolicy(failure_policy=policy),
        )
        space = session.space
        rng = np.random.default_rng(1)
        ok_configs = [space.sample_configuration(rng) for _ in range(3)]
        for config, rt in zip(ok_configs, (10.0, 20.0, 30.0)):
            session.history.record(Observation(
                config, Measurement(runtime_s=rt), workload=workload.name,
            ))
        session.history.record(Observation(
            space.sample_configuration(rng), Measurement.failure(),
            workload=workload.name,
        ))
        return session

    def test_policy_names_are_closed(self):
        assert FAILURE_POLICIES == ("penalize", "discard", "impute")

    def test_penalize(self, workload):
        session = self._history_session(workload, "penalize")
        _, y = history_to_training_data(session)
        assert len(y) == 4
        assert y[-1] == pytest.approx(30.0 * 3.0)

    def test_discard(self, workload):
        session = self._history_session(workload, "discard")
        _, y = history_to_training_data(session)
        assert len(y) == 3
        assert max(y) == pytest.approx(30.0)

    def test_impute(self, workload):
        session = self._history_session(workload, "impute")
        _, y = history_to_training_data(session)
        assert len(y) == 4
        assert y[-1] == pytest.approx(20.0)  # median of successes

    @pytest.mark.parametrize("policy", FAILURE_POLICIES)
    def test_replay_stand_in_matches_failure_response(self, policy):
        """``ResponseReplay`` scores each failure as ``failure_response``
        does against the same successes: before any, and after a hung
        run that is no success."""
        space = _inner().config_space
        rng = np.random.default_rng(2)
        history = TuningHistory()
        replay = ResponseReplay(policy)
        stand_ins = []
        for measurement in (
            Measurement.failure(), Measurement(runtime_s=10.0),
            Measurement(runtime_s=math.inf), Measurement(runtime_s=40.0),
            Measurement(runtime_s=20.0), Measurement.failure(),
        ):
            obs = Observation(space.sample_configuration(rng), measurement)
            response = replay.account(obs)
            if not (measurement.ok and math.isfinite(measurement.runtime_s)):
                assert response == failure_response(history, policy)
                stand_ins.append(response)
            history.record(obs)
        expected = {
            "penalize": [300.0, 30.0, 120.0],
            "impute": [100.0, 10.0, 20.0],
            "discard": [None, None, None],
        }
        assert stand_ins == expected[policy]


class TestInfiniteRuntimeAccounting:
    """Regression: hung runs (ok, infinite runtime) must never poison
    time-budget accounting or best-config selection."""

    def test_charge_never_adds_inf(self, workload):
        chaos = ChaosSystem(_inner(), [Hangs(0.999)], seed=6)
        session = _session(chaos, workload)  # no deadline at all
        m = session.evaluate(session.default_config())
        assert m.ok and math.isinf(m.runtime_s)
        assert math.isfinite(session.experiment_time_s)
        assert session.can_run()

    def test_history_best_ignores_infinite_success(self):
        history = TuningHistory()
        space = _inner().config_space
        rng = np.random.default_rng(0)
        hung = space.sample_configuration(rng)
        fine = space.sample_configuration(rng)
        history.record(Observation(hung, Measurement(runtime_s=math.inf)))
        history.record(Observation(fine, Measurement(runtime_s=12.0)))
        assert history.best().config == fine
        assert history.best_runtime() == pytest.approx(12.0)
        X, y, _ = history.to_arrays()
        assert len(y) == 1 and math.isfinite(y[0])

    def test_all_hung_history_has_no_best(self):
        history = TuningHistory()
        space = _inner().config_space
        config = space.sample_configuration(np.random.default_rng(0))
        history.record(Observation(config, Measurement(runtime_s=math.inf)))
        assert history.best() is None
        assert math.isinf(history.best_runtime())

    def test_tuner_result_never_reports_infinite_incumbent(self, workload):
        from repro.tuners import RandomSearchTuner

        chaos = ChaosSystem(_inner(), [Hangs(0.5)], seed=7)
        result = RandomSearchTuner().tune(
            chaos, workload, Budget(max_runs=10),
            rng=np.random.default_rng(0),
        )
        finite = [
            o for o in result.history.successful()
            if math.isfinite(o.runtime_s)
        ]
        if finite:
            assert math.isfinite(result.best_runtime_s)
            assert result.best_runtime_s == pytest.approx(
                min(o.runtime_s for o in finite)
            )

    def test_time_budget_not_poisoned_by_hang(self, workload):
        chaos = ChaosSystem(_inner(), [Hangs(0.5)], seed=8)
        session = TuningSession(
            chaos, workload, Budget(max_runs=50, max_experiment_time_s=500.0),
            np.random.default_rng(0),
        )
        config = session.default_config()
        runs = 0
        while session.can_run() and runs < 50:
            session.evaluate(config)
            runs += 1
        # Hangs charge zero measured time, so the session keeps going
        # until real (finite) runtimes exhaust the cap.
        assert session.experiment_time_s <= 500.0 + 100.0
        assert math.isfinite(session.experiment_time_s)
