"""Tests for system wrappers, sessions, budgets, and the tuner template."""

import math

import numpy as np
import pytest

from repro.core import (
    Budget,
    InstrumentedSystem,
    Measurement,
    SubspaceSystem,
    Tuner,
)
from repro.core.session import TuningSession
from repro.exceptions import BudgetExhausted, WorkloadError
from repro.systems.dbms import DbmsSimulator, olap_analytics
from repro.systems.hadoop import wordcount


@pytest.fixture
def system():
    return DbmsSimulator()


@pytest.fixture
def workload():
    return olap_analytics(scale=0.2)


class TestInstrumentedSystem:
    def test_counts_runs(self, system, workload):
        wrapped = InstrumentedSystem(system)
        config = system.default_configuration()
        wrapped.run(workload, config)
        wrapped.run(workload, config)
        assert wrapped.run_count == 2
        assert wrapped.total_measured_s > 0

    def test_noise_changes_runtime_but_not_failure(self, system, workload):
        config = system.default_configuration()
        clean = system.run(workload, config).runtime_s
        noisy = InstrumentedSystem(
            system, noise=0.2, rng=np.random.default_rng(0)
        ).run(workload, config)
        assert noisy.ok
        assert noisy.runtime_s != pytest.approx(clean)
        assert noisy.runtime_s == pytest.approx(clean, rel=1.0)

    def test_zero_noise_is_identity(self, system, workload):
        config = system.default_configuration()
        assert InstrumentedSystem(system).run(workload, config).runtime_s == (
            pytest.approx(system.run(workload, config).runtime_s)
        )

    def test_rejects_wrong_workload_kind(self, system):
        wrapped = InstrumentedSystem(system)
        with pytest.raises(WorkloadError):
            wrapped.run(wordcount(1.0), system.default_configuration())

    def test_negative_noise_rejected(self, system):
        with pytest.raises(ValueError):
            InstrumentedSystem(system, noise=-0.1)


class TestSubspaceSystem:
    def test_space_is_reduced(self, system):
        sub = SubspaceSystem(system, ["buffer_pool_mb", "work_mem_mb"])
        assert set(sub.config_space.names()) == {"buffer_pool_mb", "work_mem_mb"}

    def test_expansion_fills_defaults(self, system, workload):
        sub = SubspaceSystem(system, ["buffer_pool_mb"])
        config = sub.config_space.partial({"buffer_pool_mb": 2048})
        full = sub.expand(config)
        assert full["buffer_pool_mb"] == 2048
        assert full["work_mem_mb"] == system.default_configuration()["work_mem_mb"]

    def test_run_equals_expanded_run(self, system, workload):
        sub = SubspaceSystem(system, ["buffer_pool_mb"])
        config = sub.config_space.partial({"buffer_pool_mb": 2048})
        direct = system.run(workload, sub.expand(config)).runtime_s
        assert sub.run(workload, config).runtime_s == pytest.approx(direct)

    def test_empty_subspace_rejected(self, system):
        with pytest.raises(ValueError):
            SubspaceSystem(system, ["not-a-knob"])


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_runs=-1)
        with pytest.raises(ValueError):
            Budget(max_runs=5, max_experiment_time_s=0)

    def test_session_enforces_run_budget(self, system, workload):
        session = TuningSession(
            system, workload, Budget(max_runs=2), np.random.default_rng(0)
        )
        config = system.default_configuration()
        session.evaluate(config)
        session.evaluate(config)
        assert not session.can_run()
        with pytest.raises(BudgetExhausted):
            session.evaluate(config)

    def test_session_enforces_time_budget(self, system, workload):
        base = system.run(workload, system.default_configuration()).runtime_s
        session = TuningSession(
            system,
            workload,
            Budget(max_runs=100, max_experiment_time_s=base * 1.5),
            np.random.default_rng(0),
        )
        config = system.default_configuration()
        session.evaluate(config)
        session.evaluate(config)
        assert not session.can_run()

    def test_evaluate_if_budget_returns_none(self, system, workload):
        session = TuningSession(
            system, workload, Budget(max_runs=0), np.random.default_rng(0)
        )
        assert session.evaluate_if_budget(system.default_configuration()) is None

    def test_predictions_are_free(self, system, workload):
        session = TuningSession(
            system, workload, Budget(max_runs=1), np.random.default_rng(0)
        )
        for i in range(50):
            session.predict(system.default_configuration(), float(i))
        assert session.remaining_runs == 1
        assert len(session.history) == 50


class _FixedTuner(Tuner):
    """Evaluates default then one override; recommends the override."""

    name = "fixed"
    category = "rule-based"

    def __init__(self, overrides):
        self.overrides = overrides

    def _tune(self, session):
        session.evaluate(session.default_config())
        config = session.space.partial(self.overrides)
        session.evaluate(config)
        return config


class _GreedyTuner(Tuner):
    """Recommends a config it never ran (template must fall back)."""

    name = "greedy"
    category = "rule-based"

    def _tune(self, session):
        session.evaluate(session.default_config())
        return session.space.partial({"buffer_pool_mb": 4096})


class TestTunerTemplate:
    def test_result_fields(self, system, workload):
        result = _FixedTuner({"buffer_pool_mb": 4096}).tune(
            system, workload, Budget(max_runs=5)
        )
        assert result.n_real_runs == 2
        assert result.best_config["buffer_pool_mb"] == 4096
        assert math.isfinite(result.best_runtime_s)
        assert result.tuner_name == "fixed"

    def test_unmeasured_recommendation_falls_back(self, system, workload):
        result = _GreedyTuner().tune(system, workload, Budget(max_runs=5))
        # The recommendation was never measured, so the template reverts
        # to the measured best (the default).
        assert result.best_config == system.default_configuration()

    def test_speedup_over(self, system, workload):
        result = _FixedTuner({"buffer_pool_mb": 4096}).tune(
            system, workload, Budget(max_runs=5)
        )
        assert result.speedup_over(result.best_runtime_s * 2) == pytest.approx(2.0)

    def test_zero_budget_recommends_default(self, system, workload):
        result = _FixedTuner({"buffer_pool_mb": 4096}).tune(
            system, workload, Budget(max_runs=0)
        )
        assert result.best_config == system.default_configuration()
        assert result.n_real_runs == 0
