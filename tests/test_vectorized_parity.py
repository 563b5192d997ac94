"""Bit-for-bit parity of the vectorized batch kernels vs the scalar loop.

``run_batch_vectorized`` promises to be *invisible*: every Measurement —
runtime, every metric, failure flags, cost — must equal the scalar
``run()`` loop's output exactly (``repr`` equality, not approximate),
over random configurations including the engineered failure regions.
The same must hold end-to-end: noisy instrumented runs, quarantine
bookkeeping, and whole batch-tuner sessions produce byte-identical
:meth:`~repro.core.measurement.TuningHistory.digest` values with the
fast path on or off, and wrappers that cannot vectorize (chaos
injection) degrade gracefully to the scalar path.
"""

import numpy as np
import pytest

from repro import Budget, make_system
from repro.core.session import TuningSession
from repro.core.system import InstrumentedSystem
from repro.exec.resilience import ExecutionPolicy
from repro.workloads import htap_mixed, spark_sql_join, terasort

KINDS = ["dbms", "spark", "hadoop"]

_WORKLOADS = {
    "dbms": htap_mixed,
    "spark": spark_sql_join,
    "hadoop": terasort,
}


def _tweak_into_failure_region(kind, config):
    """Push a sampled config toward each simulator's OOM/failure cliff."""
    if kind == "dbms":
        return config.replace(
            work_mem_mb=2048.0, max_connections=500.0, hash_mem_multiplier=4.0
        )
    if kind == "spark":
        return config.replace(executor_memory_mb=7000.0, executor_cores=4)
    return config.replace(
        mapreduce_map_memory_mb=config["io_sort_mb"] + 100.0,
        mapreduce_reduce_memory_mb=1024.0,
    )


def _config_batch(kind, system, n=200, seed=17):
    rng = np.random.default_rng(seed)
    configs = list(system.config_space.sample_configurations(n, rng))
    for config in list(configs[:40]):
        try:
            configs.append(_tweak_into_failure_region(kind, config))
        except Exception:
            continue
    return configs


def _assert_identical(scalar, vectorized, context):
    assert repr(scalar.runtime_s) == repr(vectorized.runtime_s), context
    assert scalar.failed == vectorized.failed, context
    assert repr(scalar.cost_units) == repr(vectorized.cost_units), context
    assert list(scalar.metrics) == list(vectorized.metrics), context
    for key in scalar.metrics:
        assert (
            repr(float(scalar.metrics[key]))
            == repr(float(vectorized.metrics[key]))
        ), f"{context}: metric {key}"


class TestKernelParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_matches_scalar_bit_for_bit(self, kind):
        system = make_system(kind)
        workload = _WORKLOADS[kind]()
        configs = _config_batch(kind, system)
        vectorized = system.run_batch_vectorized(workload, configs)
        assert len(vectorized) == len(configs)
        n_failed = 0
        for i, config in enumerate(configs):
            scalar = system.run(workload, config)
            n_failed += scalar.failed
            _assert_identical(scalar, vectorized[i], f"{kind}[{i}]")
        # The batch must exercise the failure masks, not just the
        # happy path.
        assert n_failed > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_and_singleton_batches(self, kind):
        system = make_system(kind)
        workload = _WORKLOADS[kind]()
        assert system.run_batch_vectorized(workload, []) == []
        config = system.default_configuration()
        [vectorized] = system.run_batch_vectorized(workload, [config])
        _assert_identical(system.run(workload, config), vectorized, kind)


class TestInstrumentedParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_noisy_batches_identical(self, kind):
        """Noise draws follow per-config RNG order on both paths."""
        workload = _WORKLOADS[kind]()
        configs = _config_batch(kind, make_system(kind), n=40, seed=3)
        results = {}
        for vectorize in (False, True):
            system = InstrumentedSystem(
                make_system(kind), noise=0.05,
                rng=np.random.default_rng(11), vectorize=vectorize,
            )
            results[vectorize] = system.run_batch(workload, configs)
            assert system.run_count == len(configs)
        for scalar, vectorized in zip(results[False], results[True]):
            _assert_identical(scalar, vectorized, kind)

    def test_quarantine_skips_identical(self):
        """The batch path and scalar path quarantine identically."""
        workload = htap_mixed()
        inner = make_system("dbms")
        fail_cfg = _tweak_into_failure_region(
            "dbms", inner.default_configuration()
        )
        assert inner.run(workload, fail_cfg).failed
        ok_cfg = inner.default_configuration()
        outcomes = {}
        for vectorize in (False, True):
            session = TuningSession(
                InstrumentedSystem(make_system("dbms"), vectorize=vectorize),
                workload, Budget(max_runs=8), np.random.default_rng(0),
                execution=ExecutionPolicy(breaker_threshold=2),
            )
            session.evaluate_batch([fail_cfg, fail_cfg])  # trips the breaker
            session.evaluate_batch([fail_cfg, ok_cfg])    # first is skipped
            outcomes[vectorize] = (
                session.history.digest(),
                session.quarantine_skips,
                session.real_runs,
            )
        assert outcomes[False] == outcomes[True]
        assert outcomes[True][1] == 1  # the quarantined proposal was skipped


class TestSessionDigestParity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tuner_name", ["cem", "genetic"])
    def test_batch_tuner_digest_identical(self, kind, tuner_name):
        from repro.tuners import CrossEntropyTuner, GeneticTuner

        factories = {
            "cem": lambda: CrossEntropyTuner(batch=12),
            "genetic": lambda: GeneticTuner(population=12, elite=3),
        }
        workload = _WORKLOADS[kind]()
        digests = {}
        for vectorize in (False, True):
            system = InstrumentedSystem(
                make_system(kind), noise=0.05,
                rng=np.random.default_rng(7), vectorize=vectorize,
            )
            result = factories[tuner_name]().tune(
                system, workload, Budget(max_runs=36),
                rng=np.random.default_rng(42),
            )
            digests[vectorize] = result.history.digest()
        assert digests[False] == digests[True]

    def test_chaos_wrapper_falls_back_to_scalar(self):
        """ChaosSystem cannot vectorize; sessions still agree exactly."""
        from repro.chaos.policies import standard_policies
        from repro.chaos.system import ChaosSystem
        from repro.tuners import CrossEntropyTuner

        digests = {}
        for vectorize in (False, True):
            system = ChaosSystem(
                InstrumentedSystem(
                    make_system("dbms"), noise=0.05,
                    rng=np.random.default_rng(1), vectorize=vectorize,
                ),
                standard_policies(0.10), seed=5,
            )
            assert not system.supports_vectorized()
            result = CrossEntropyTuner(batch=10).tune(
                system, htap_mixed(), Budget(max_runs=30),
                rng=np.random.default_rng(4),
                execution=ExecutionPolicy(max_retries=1, backoff_base_s=0.1),
            )
            digests[vectorize] = result.history.digest()
        assert digests[False] == digests[True]


class TestCapabilityGates:
    @pytest.mark.parametrize("kind", KINDS)
    def test_instrumented_system_keeps_kernel(self, kind):
        # The instrumented wrapper vectorizes inside run_batch and asks
        # only its inner system; losing this falls back to scalar
        # kernels silently (same results, lower throughput).
        assert InstrumentedSystem(make_system(kind)).supports_vectorized()
        assert not InstrumentedSystem(
            make_system(kind), vectorize=False
        ).supports_vectorized()

    @pytest.mark.parametrize("kind", KINDS)
    def test_simulators_advertise_kernel(self, kind):
        assert make_system(kind).supports_vectorized()
