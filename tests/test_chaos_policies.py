"""Chaos layer: fault policies, the chaos wrapper, and injection
determinism (serial and batched execution must inject identically)."""

import math

import numpy as np
import pytest

from repro.chaos import (
    CONFIG_FAULT_KEY,
    INJECTED_FAULT_KEY,
    BurstyFaults,
    ChaosSystem,
    ConfigBlackout,
    Hangs,
    MetricCorruption,
    Stragglers,
    TransientFaults,
    standard_policies,
)
from repro.chaos.policies import _policy_rng
from repro.core import InstrumentedSystem
from repro.obs.metrics import global_metrics
from repro.systems.cluster import Cluster
from repro.systems.dbms import DbmsSimulator, htap_mixed


@pytest.fixture(scope="module")
def workload():
    return htap_mixed(0.3)


def _inner():
    return DbmsSimulator(Cluster.uniform(4))


def _configs(system, n, seed=11):
    rng = np.random.default_rng(seed)
    return [system.config_space.sample_configuration(rng) for _ in range(n)]


class TestPolicies:
    def test_rate_validation(self):
        for cls in (TransientFaults, BurstyFaults, Stragglers, Hangs,
                    MetricCorruption):
            with pytest.raises(ValueError):
                cls(rate=1.0)

    def test_transient_rate_and_marker(self, workload):
        chaos = ChaosSystem(_inner(), [TransientFaults(0.3)], seed=1)
        config = chaos.inner.default_configuration()
        failures = [
            m for m in (chaos.run(workload, config) for _ in range(200))
            if m.failed
        ]
        assert 30 <= len(failures) <= 90
        for m in failures:
            assert m.metric(INJECTED_FAULT_KEY) == 1.0
            assert m.metric("elapsed_before_failure_s") > 0

    def test_bursty_failures_cluster(self, workload):
        chaos = ChaosSystem(
            _inner(), [BurstyFaults(0.25)], seed=3
        )
        config = chaos.inner.default_configuration()
        fails = [chaos.run(workload, config).failed for _ in range(400)]
        rate = sum(fails) / len(fails)
        assert 0.1 <= rate <= 0.45
        # Mean burst length should reflect the Markov stay-probability —
        # clearly longer than the ~1.3 a Bernoulli process would give.
        bursts, current = [], 0
        for f in fails:
            if f:
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        assert bursts and sum(bursts) / len(bursts) >= 2.0

    def test_straggler_slows_but_succeeds(self, workload):
        chaos = ChaosSystem(
            _inner(), [Stragglers(0.99)], seed=4
        )
        config = chaos.inner.default_configuration()
        clean = chaos.inner.run(workload, config)
        m = chaos.run(workload, config)
        assert m.ok
        factor = m.metric("straggler_factor")
        assert 1.0 < factor <= 20.0
        assert m.runtime_s == pytest.approx(clean.runtime_s * factor)

    def test_hang_reports_success_with_unbounded_runtime(self, workload):
        chaos = ChaosSystem(_inner(), [Hangs(0.99)], seed=5)
        m = chaos.run(workload, chaos.inner.default_configuration())
        assert m.ok
        assert math.isinf(m.runtime_s)
        assert m.metric("hung") == 1.0

    def test_metric_corruption_touches_metrics_only(self, workload):
        chaos = ChaosSystem(
            _inner(),
            [MetricCorruption(0.99)],
            seed=6,
        )
        config = chaos.inner.default_configuration()
        clean = chaos.inner.run(workload, config)
        m = chaos.run(workload, config)
        assert m.ok
        assert m.runtime_s == pytest.approx(clean.runtime_s)
        assert len(m.metrics) < len(clean.metrics) or any(
            math.isnan(float(v)) for v in m.metrics.values()
        )

    def test_blackout_is_deterministic_and_config_correlated(self, workload):
        system = _inner()
        space = system.config_space
        rng = np.random.default_rng(0)
        # Blackout knobs the *inner* simulator tolerates when maxed, so
        # the injected failure is attributable to the blackout policy.
        knobs = ("temp_buffers_mb", "wal_buffers_mb")
        policy = ConfigBlackout(knobs=knobs, threshold=0.85)
        chaos = ChaosSystem(system, [policy], seed=7)
        unit = np.full(space.dimension, 0.5)
        for k in knobs:
            unit[space.names().index(k)] = 0.95
        hot = space.from_array_feasible(unit, rng)
        cold = space.from_array_feasible(
            np.full(space.dimension, 0.5), rng
        )
        if not policy.blacked_out(hot) or not system.run(workload, hot).ok:
            pytest.skip("no clean configuration inside the blackout region")
        for _ in range(3):
            m = chaos.run(workload, hot)
            assert m.failed
            assert m.metric(CONFIG_FAULT_KEY) == 1.0
            assert m.metric(INJECTED_FAULT_KEY) == 0.0
        assert chaos.run(workload, cold).ok

    def test_standard_policies_intensity_zero_is_empty(self):
        assert standard_policies(0.0) == []
        assert len(standard_policies(0.3)) == 6
        with pytest.raises(ValueError):
            standard_policies(-0.1)


class TestChaosSystem:
    def test_serial_and_batched_injection_identical(self, workload):
        """Regression (deterministic per-index injection): a batched run
        must inject the exact fault sequence a serial replay does."""
        configs = _configs(_inner(), 24)
        serial = ChaosSystem(_inner(), standard_policies(0.3), seed=42)
        batched = ChaosSystem(_inner(), standard_policies(0.3), seed=42)

        serial_ms = [serial.run(workload, c) for c in configs]
        batched_ms = []
        for start in range(0, len(configs), 6):
            batched_ms.extend(
                batched.run_batch(workload, configs[start:start + 6])
            )

        assert serial.fault_digest() == batched.fault_digest()
        assert serial.fault_log == batched.fault_log
        for a, b in zip(serial_ms, batched_ms):
            assert a.failed == b.failed
            assert repr(a.runtime_s) == repr(b.runtime_s)
            assert dict(a.metrics) == pytest.approx(dict(b.metrics), nan_ok=True)

    def test_parallel_batch_injects_identically(self, workload):
        """Injection parity survives a concurrent inner batch."""
        from repro.exec.runner import ParallelRunner

        configs = _configs(_inner(), 12)
        serial = ChaosSystem(_inner(), standard_policies(0.3), seed=9)
        serial_ms = [serial.run(workload, c) for c in configs]

        before = global_metrics().value("exec.runner.tasks.thread")
        runner = ParallelRunner(jobs=2, mode="thread")
        try:
            # without the DBMS kernel, which takes precedence over a runner
            inner = InstrumentedSystem(_inner(), runner=runner, vectorize=False)
            parallel = ChaosSystem(inner, standard_policies(0.3), seed=9)
            parallel_ms = parallel.run_batch(workload, configs)
        finally:
            runner.close()
        ran = global_metrics().value("exec.runner.tasks.thread") - before
        assert ran == len(configs)

        assert serial.fault_digest() == parallel.fault_digest()
        for a, b in zip(serial_ms, parallel_ms):
            assert a.failed == b.failed
            assert repr(a.runtime_s) == repr(b.runtime_s)

    def test_injection_independent_of_other_indices(self, workload):
        """Fault decisions are keyed by index, not by draw order."""
        config = _inner().default_configuration()
        a = ChaosSystem(_inner(), [TransientFaults(0.4)], seed=17)
        b = ChaosSystem(_inner(), [TransientFaults(0.4)], seed=17)
        a_fails = [a.run(workload, config).failed for _ in range(20)]
        # b jumps straight to index 10 by batching differently.
        b_fails = [m.failed for m in b.run_batch(workload, [config] * 20)]
        assert a_fails == b_fails

    def test_batch_faults_returned_in_place(self, workload):
        chaos = ChaosSystem(_inner(), [TransientFaults(0.99)], seed=8)
        config = chaos.inner.default_configuration()
        # Batches stay atomic: no exception, failures returned in place.
        ms = chaos.run_batch(workload, [config, config])
        assert all(m.failed for m in ms)
        assert all(m.metric(INJECTED_FAULT_KEY) == 1.0 for m in ms)

    def test_negative_seed_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChaosSystem(_inner(), [TransientFaults(0.3)], seed=-1)

    def test_reset_faults(self, workload):
        chaos = ChaosSystem(_inner(), [TransientFaults(0.99)], seed=10)
        chaos.run(workload, chaos.inner.default_configuration())
        assert chaos.fault_log
        chaos.reset_faults()
        assert chaos.fault_log == []
        assert chaos.injected_failures == 0


class TestPolicyRng:
    """Fault generators are seeded from a ``uint32`` word array when all
    three values fit in a word, and from the list otherwise; both give
    the generator the list-seeded form gives."""

    _EDGES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40]

    @pytest.mark.parametrize("seed", _EDGES)
    @pytest.mark.parametrize("index", _EDGES)
    def test_same_state_as_the_list_seeded_generator(self, seed, index):
        for slot in (0, 5):
            want = np.random.default_rng(np.random.SeedSequence([seed, index, slot]))
            got = _policy_rng(seed, index, slot)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random() == want.random()

    def test_negative_values_keep_the_list_form(self):
        # SeedSequence refuses them, as it always has
        with pytest.raises(ValueError):
            _policy_rng(-1, 3, 0)
