"""Robustness tests: tuners under environmental fault injection."""

import math

import numpy as np
import pytest

from repro.chaos import ChaosSystem, TransientFaults
from repro.core import Budget
from repro.systems.cluster import Cluster
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro.tuners import (
    AddmDiagnoser,
    ColtOnlineTuner,
    ITunedTuner,
    RandomSearchTuner,
    RuleBasedTuner,
    TraceSimulationTuner,
)
from repro.core.workload import WorkloadStream


def _flaky(inner, rate, rng=None, partial_elapsed_s=10.0):
    """A system whose runs fail independently at ``rate``."""
    return ChaosSystem(
        inner, [TransientFaults(rate, partial_elapsed_s)], rng=rng
    )


@pytest.fixture
def flaky():
    inner = DbmsSimulator(Cluster.uniform(4))
    return _flaky(inner, 0.3, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def workload():
    return htap_mixed(0.3)


class TestFlakySystem:
    """A flaky system: ChaosSystem with one TransientFaults policy."""

    def test_validation(self):
        inner = DbmsSimulator()
        with pytest.raises(ValueError):
            _flaky(inner, 1.0)

    def test_injects_at_roughly_the_rate(self, workload):
        inner = DbmsSimulator(Cluster.uniform(4))
        flaky = _flaky(inner, 0.3, rng=np.random.default_rng(1))
        config = inner.default_configuration()
        failures = sum(
            1 for _ in range(100) if not flaky.run(workload, config).ok
        )
        assert 15 <= failures <= 45
        assert flaky.injected_failures == failures

    def test_failures_charge_partial_time(self, workload):
        inner = DbmsSimulator(Cluster.uniform(4))
        flaky = _flaky(
            inner, 0.99999, rng=np.random.default_rng(1),
            partial_elapsed_s=42.0,
        )
        m = flaky.run(workload, inner.default_configuration())
        assert not m.ok
        assert m.metric("elapsed_before_failure_s") == 42.0

    def test_zero_rate_is_identity(self, workload):
        inner = DbmsSimulator(Cluster.uniform(4))
        flaky = _flaky(inner, 0.0)
        config = inner.default_configuration()
        assert flaky.run(workload, config).runtime_s == pytest.approx(
            inner.run(workload, config).runtime_s
        )


class TestTunersUnderFaults:
    @pytest.mark.parametrize(
        "tuner",
        [
            RandomSearchTuner(),
            ITunedTuner(n_init=4),
            RuleBasedTuner(),
            TraceSimulationTuner(n_model_samples=150),
            AddmDiagnoser(),
        ],
        ids=["random", "ituned", "rules", "trace-sim", "addm"],
    )
    def test_tuner_survives_30pct_failures(self, flaky, workload, tuner):
        result = tuner.tune(flaky, workload, Budget(max_runs=12), np.random.default_rng(0))
        assert result.n_real_runs <= 12
        flaky.config_space.configuration(result.best_config.to_dict())
        if any(o.ok for o in result.history.real_observations()):
            assert math.isfinite(result.best_runtime_s)

    def test_online_tuner_retreats_after_injected_failure(self, flaky, workload):
        stream = WorkloadStream.constant(workload, 10)
        result = ColtOnlineTuner().tune_stream(flaky, stream, np.random.default_rng(2))
        default = flaky.inner.default_configuration()
        for i, step in enumerate(result.steps[:-1]):
            if not step.measurement.ok:
                assert result.steps[i + 1].config == default

    def test_all_failures_still_produces_result(self, workload):
        inner = DbmsSimulator(Cluster.uniform(4))
        always_fail = _flaky(inner, 0.999999, rng=np.random.default_rng(3))
        result = RandomSearchTuner().tune(
            always_fail, workload, Budget(max_runs=6), np.random.default_rng(0)
        )
        assert result.best_config == inner.default_configuration()
        assert math.isinf(result.best_runtime_s)
