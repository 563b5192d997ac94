"""Fleet controller, safety gate, half-open breaker, drift edges, and
checkpoint/resume determinism."""

import json
import math
import os

import numpy as np
import pytest

from repro.chaos.policies import INJECTED_FAULT_KEY
from repro.core import Budget, Measurement
from repro.core.driver import Candidate, SearchDriver
from repro.core.measurement import MODEL, REAL, Observation
from repro.core.session import TuningSession
from repro.core.system import SystemWrapper
from repro.exec.resilience import CircuitBreaker, ExecutionPolicy
from repro.fleet import (
    FleetController,
    SafetyGate,
    TenantSpec,
    read_checkpoint,
    write_checkpoint,
)
from repro.fleet.checkpoint import decode_runtime, encode_runtime
from repro.fleet.safety import MAX_REGRESSION
from repro.kb import KnowledgeBase
from repro.systems.cluster import Cluster
from repro.systems.dbms import DbmsSimulator, htap_mixed, olap_analytics
from repro.tuners.adaptive.drift import DriftDetector, MetricDriftDetector


def _system():
    return DbmsSimulator(Cluster.uniform(4))


@pytest.fixture(scope="module")
def workload():
    return htap_mixed(0.3)


# ---------------------------------------------------------------------------
# Drift detector edge behavior (and eager parameter validation)
# ---------------------------------------------------------------------------
class TestDriftDetectorEdges:
    def test_non_finite_fires_before_min_samples_and_resets(self):
        detector = DriftDetector(min_samples=5)
        assert detector.update(10.0) is False
        assert detector.update(math.inf) is True  # a crash is a drift
        assert detector.n_samples == 0  # fresh baseline afterwards

    def test_nan_also_fires(self):
        detector = DriftDetector()
        assert detector.update(math.nan) is True

    def test_baseline_resets_after_drift(self):
        detector = DriftDetector(delta=0.05, threshold=0.5)
        for _ in range(6):
            detector.update(1.0)
        fired = any(detector.update(5.0) for _ in range(10))
        assert fired
        assert detector.n_samples < 10  # reset happened mid-stream

    def test_constant_stream_never_fires(self):
        detector = DriftDetector(min_samples=2)
        assert not any(detector.update(42.0) for _ in range(500))

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": -0.1}, {"threshold": 0.0}, {"min_samples": 1}],
    )
    def test_drift_detector_validates_eagerly(self, kwargs):
        with pytest.raises(ValueError):
            DriftDetector(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": -0.1}, {"threshold": 0.0}, {"min_samples": 1}],
    )
    def test_metric_drift_detector_validates_eagerly(self, kwargs):
        # Regression: these used to pass the constructor and only blow
        # up when the first per-metric detector was built lazily.
        with pytest.raises(ValueError):
            MetricDriftDetector(**kwargs)

    def test_serialization_round_trip_preserves_behavior(self):
        a = DriftDetector(delta=0.05, threshold=0.5)
        b = None
        stream = [1.0, 1.1, 0.9, 1.0, 3.0, 3.2, 2.9, 3.1, 3.0]
        for i, value in enumerate(stream):
            if i == 4:
                b = DriftDetector.from_jsonable(a.to_jsonable())
            fired_a = a.update(value)
            if b is not None:
                assert b.update(value) == fired_a

    def test_metric_serialization_round_trip(self):
        a = MetricDriftDetector(delta=0.1, threshold=1.0)
        a.update({"hit_ratio": 0.9, "spill_mb": 10.0})
        b = MetricDriftDetector.from_jsonable(a.to_jsonable())
        for _ in range(20):
            sample = {"hit_ratio": 0.2, "spill_mb": 300.0}
            assert a.update(sample) == b.update(sample)

    def test_from_jsonable_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            DriftDetector.from_jsonable({"kind": "nope"})
        with pytest.raises(ValueError):
            MetricDriftDetector.from_jsonable({"kind": "nope"})


# ---------------------------------------------------------------------------
# Circuit breaker: half-open recovery (and the forever-open default)
# ---------------------------------------------------------------------------
def _config_at(space, x):
    return space.from_array(np.full(space.dimension, x))


class TestBreakerHalfOpen:
    def _open_region(self, breaker, config):
        fail = Measurement.failure()
        for _ in range(breaker.threshold):
            breaker.record(config, fail)
        assert breaker.is_open(config)

    def test_default_stays_open_forever(self):
        # Pin the historical behavior: without cooldown_runs an open
        # region never recovers, no matter how many runs go by.
        system = _system()
        breaker = CircuitBreaker(threshold=2)
        bad = _config_at(system.config_space, 0.95)
        good = _config_at(system.config_space, 0.3)
        self._open_region(breaker, bad)
        for _ in range(200):
            breaker.record(good, Measurement(runtime_s=1.0))
        assert breaker.is_open(bad)
        assert breaker.would_block(bad)

    def test_cooldown_grants_exactly_one_probe(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=3)
        bad = _config_at(system.config_space, 0.95)
        good = _config_at(system.config_space, 0.3)
        breaker.record(bad, Measurement.failure())
        assert breaker.is_open(bad)
        for _ in range(3):
            breaker.record(good, Measurement(runtime_s=1.0))
        assert not breaker.is_open(bad)  # the probe grant
        assert breaker.is_open(bad)  # only one until it resolves

    def test_probe_success_closes_circuit(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=1)
        bad = _config_at(system.config_space, 0.95)
        breaker.record(bad, Measurement.failure())
        breaker.record(bad, Measurement.failure())  # advance run clock
        assert not breaker.is_open(bad)  # probe granted
        breaker.record(bad, Measurement(runtime_s=2.0))
        assert not breaker.is_open(bad)
        assert breaker.open_regions == []

    def test_probe_failure_reopens_and_rearms(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=2)
        bad = _config_at(system.config_space, 0.95)
        good = _config_at(system.config_space, 0.3)
        breaker.record(bad, Measurement.failure())
        for _ in range(2):
            breaker.record(good, Measurement(runtime_s=1.0))
        assert not breaker.is_open(bad)  # probe granted
        breaker.record(bad, Measurement.failure())  # probe fails
        assert breaker.is_open(bad)  # re-opened ...
        breaker.record(good, Measurement(runtime_s=1.0))
        assert breaker.is_open(bad)  # ... and cooldown re-armed
        breaker.record(good, Measurement(runtime_s=1.0))
        assert not breaker.is_open(bad)  # next probe after full cooldown

    def test_environmental_probe_failure_releases_slot(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=1)
        bad = _config_at(system.config_space, 0.95)
        breaker.record(bad, Measurement.failure())
        breaker.record(bad, Measurement.failure())
        assert not breaker.is_open(bad)  # probe granted
        env_fail = Measurement(
            runtime_s=math.inf, metrics={INJECTED_FAULT_KEY: 1.0}, failed=True
        )
        breaker.record(bad, env_fail)  # inconclusive
        assert not breaker.is_open(bad)  # slot released; probe again

    def test_would_block_is_side_effect_free(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=1)
        bad = _config_at(system.config_space, 0.95)
        breaker.record(bad, Measurement.failure())
        breaker.record(bad, Measurement.failure())
        for _ in range(5):
            assert not breaker.would_block(bad)  # cooldown elapsed
        assert not breaker.is_open(bad)  # probe still available
        assert breaker.is_open(bad)  # and consumed exactly once

    def test_half_open_state_survives_serialization(self):
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=2)
        bad = _config_at(system.config_space, 0.95)
        breaker.record(bad, Measurement.failure())
        restored = CircuitBreaker.from_jsonable(breaker.to_jsonable())
        good = _config_at(system.config_space, 0.3)
        for b in (breaker, restored):
            b.record(good, Measurement(runtime_s=1.0))
            b.record(good, Measurement(runtime_s=1.0))
        assert breaker.is_open(bad) == restored.is_open(bad)
        assert breaker.to_jsonable() == restored.to_jsonable()

    def test_cooldown_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=2, cooldown_runs=0)


# ---------------------------------------------------------------------------
# Safety gate decisions
# ---------------------------------------------------------------------------
def _gate_session(workload, breaker=None, runs=20):
    system = _system()
    session = TuningSession(
        system, workload, Budget(max_runs=runs),
        np.random.default_rng(0), breaker=breaker,
    )
    space = system.config_space
    # Good cluster near 0.3 (runtime 10s), bad cluster near 0.9 (30s).
    for x, runtime in ((0.30, 10.0), (0.32, 10.5), (0.28, 9.8),
                       (0.90, 30.0), (0.88, 31.0)):
        session.history.record(Observation(
            _config_at(space, x), Measurement(runtime_s=runtime), source=REAL,
        ))
    return session


class TestSafetyGate:
    def test_allows_near_good_cluster(self, workload):
        session = _gate_session(workload)
        gate = SafetyGate()
        cand = Candidate(_config_at(session.space, 0.31), tag="p")
        kept = gate.filter(session, [cand])
        assert kept == [cand]
        assert gate.allowed == 1 and not gate.vetoes

    def test_vetoes_predicted_regression(self, workload):
        session = _gate_session(workload)
        gate = SafetyGate(clip=False)
        cand = Candidate(_config_at(session.space, 0.89), tag="p")
        assert gate.filter(session, [cand]) == []
        assert gate.regression_vetoes == 1
        record = gate.vetoes[0]
        assert record.reason == "regression"
        assert record.predicted_runtime_s > record.incumbent_runtime_s * 1.25

    def test_veto_recorded_as_uncharged_model_observation(self, workload):
        session = _gate_session(workload)
        real_before = session.real_runs
        best_before = session.best_runtime()
        gate = SafetyGate(clip=False)
        gate.filter(session, [Candidate(_config_at(session.space, 0.89), tag="p")])
        audit = [o for o in session.history.observations if o.tag == "gate-veto"]
        assert len(audit) == 1 and audit[0].source == MODEL
        assert session.real_runs == real_before  # uncharged
        assert session.best_runtime() == best_before  # can't become incumbent

    def test_clip_blends_toward_best(self, workload):
        session = _gate_session(workload)
        # alpha=0 blends fully back to the best config — deterministic.
        gate = SafetyGate(clip_alphas=(0.0,))
        kept = gate.filter(
            session, [Candidate(_config_at(session.space, 0.89), tag="p")]
        )
        assert len(kept) == 1 and kept[0].tag == "p+clipped"
        assert gate.clipped == 1
        assert len(gate.clip_records) == 1
        assert gate.clip_records[0].reason == "clip"
        # The clipped blend sits at the best config, far from the raw one.
        assert np.allclose(
            kept[0].config.to_array(), session.best_config().to_array()
        )

    def test_quarantine_veto_without_consuming_probe(self, workload):
        breaker = CircuitBreaker(threshold=1, cooldown_runs=50)
        session = _gate_session(workload, breaker=breaker)
        bad = _config_at(session.space, 0.95)
        breaker.record(bad, Measurement.failure())
        gate = SafetyGate()
        assert gate.filter(session, [Candidate(bad, tag="p")]) == []
        assert gate.quarantine_vetoes == 1
        assert gate.vetoes[0].predicted_runtime_s is None
        assert breaker.to_jsonable()["probing"] == []  # would_block only

    def test_too_few_observations_allows(self, workload):
        system = _system()
        session = TuningSession(
            system, workload, Budget(max_runs=5), np.random.default_rng(0)
        )
        gate = SafetyGate()
        cand = Candidate(_config_at(session.space, 0.9), tag="p")
        assert gate.filter(session, [cand]) == [cand]

    def test_zero_bypass_certificate(self, workload):
        session = _gate_session(workload)
        gate = SafetyGate()
        rng = np.random.default_rng(7)
        candidates = [
            Candidate(_config_at(session.space, x))
            for x in rng.uniform(0.05, 0.95, size=40)
        ]
        gate.filter(session, candidates)
        assert gate.max_allowed_delta <= MAX_REGRESSION + 1e-9

    def test_audit_state_survives_serialization(self, workload):
        session = _gate_session(workload)
        gate = SafetyGate(clip=False)
        gate.filter(session, [
            Candidate(_config_at(session.space, 0.31), tag="a"),
            Candidate(_config_at(session.space, 0.89), tag="b"),
        ])
        restored = SafetyGate.from_jsonable(gate.to_jsonable())
        assert restored.to_jsonable() == gate.to_jsonable()
        assert restored.summary() == gate.summary()


class TestDriverGuard:
    class _VetoAll:
        def filter(self, session, candidates):
            return []

    def test_guard_exhaustion_terminates_driver(self, workload):
        from repro.core.registry import make_tuner

        system = _system()
        session = TuningSession(
            system, workload, Budget(max_runs=10), np.random.default_rng(0)
        )
        driver = SearchDriver(guard=self._VetoAll())
        driver.run(make_tuner("random-search"), session)
        assert session.real_runs == 1  # only the default evaluation ran


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------
class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "fleet.ckpt")
        payload = {"kind": "fleet_checkpoint", "version": 1, "x": [1, 2.5]}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload
        assert not os.path.exists(path + ".tmp")  # atomic replace

    def test_write_rejects_wrong_kind(self, tmp_path):
        with pytest.raises(ValueError):
            write_checkpoint(str(tmp_path / "x.ckpt"), {"kind": "other"})

    def test_read_rejects_wrong_payload(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "w") as fh:
            json.dump({"kind": "fleet_checkpoint", "version": 999}, fh)
        with pytest.raises(ValueError):
            read_checkpoint(path)

    def test_runtime_encoding(self):
        assert encode_runtime(math.inf) == "inf"
        assert decode_runtime("inf") == math.inf
        assert encode_runtime(None) is None
        assert decode_runtime(None) is None
        assert decode_runtime(encode_runtime(3.5)) == 3.5

    def test_older_breaker_and_gate_payloads_load(self, workload):
        """Checkpoints written while the breaker's resolution and the
        gate's veto bar, neighbor and support counts and veto recording
        were settings carry them; they load to the same state."""
        system = _system()
        breaker = CircuitBreaker(threshold=1, cooldown_runs=2)
        bad = _config_at(system.config_space, 0.95)
        breaker.record(bad, Measurement.failure())
        older = {**breaker.to_jsonable(), "resolution": 4, "knobs": None}
        restored = CircuitBreaker.from_jsonable(older)
        assert restored.to_jsonable() == breaker.to_jsonable()
        assert "resolution" not in restored.to_jsonable()
        assert restored.summary() == breaker.summary()
        assert restored.would_block(bad)

        session = _gate_session(workload)
        gate = SafetyGate(clip=False)
        gate.filter(session, [
            Candidate(_config_at(session.space, 0.31), tag="a"),
            Candidate(_config_at(session.space, 0.89), tag="b"),
        ])
        older = {
            **gate.to_jsonable(), "max_regression": 0.25, "k_neighbors": 3,
            "min_observations": 3, "record_vetoes": True,
        }
        restored = SafetyGate.from_jsonable(older)
        assert restored.to_jsonable() == gate.to_jsonable()
        assert "max_regression" not in restored.to_jsonable()
        assert restored.summary() == gate.summary()
        assert restored.summary()["max_regression"] == 0.25


# ---------------------------------------------------------------------------
# Fleet controller
# ---------------------------------------------------------------------------
def _fleet_specs(chaos=0.0, budget=4, phase_length=2):
    return [
        TenantSpec(
            name=f"t{i}",
            system=_system(),
            workloads=[olap_analytics(0.3), htap_mixed(0.3)],
            phase_length=phase_length,
            chaos_intensity=chaos if i == 0 else 0.0,
            episode_budget=budget,
        )
        for i in range(2)
    ]


def _controller(specs, kb, epochs=4, retune=True, **kwargs):
    return FleetController(
        specs,
        epochs=epochs,
        seed=11,
        kb=kb,
        strategy="random-search",
        deadline_s=2000.0,
        retune_on_drift=retune,
        **kwargs,
    )


class TestFleetController:
    def test_small_fleet_runs_and_reports(self):
        with KnowledgeBase(":memory:") as kb:
            report = _controller(_fleet_specs(), kb, epochs=4).run()
        assert report["epochs_done"] == 4
        for tenant in report["tenants"].values():
            assert tenant["monitors"] == 4
            assert len(tenant["deployed"]) == 4
            # Both workload phases were tuned and got vetted incumbents.
            assert len(tenant["incumbents"]) == 2
            for entry in tenant["incumbents"].values():
                assert not entry["stale"]
                assert entry["runtime_s"] != "inf"

    def test_incumbents_only_deployed_on_their_workload(self):
        with KnowledgeBase(":memory:") as kb:
            controller = _controller(_fleet_specs(), kb, epochs=4)
            report = controller.run()
        for tenant in report["tenants"].values():
            # Epoch 2 starts the second phase; the first phase's tuned
            # incumbent must not carry over — the first deployment of a
            # new workload is the safe default.
            first_phase2 = tenant["deployed"][2]
            assert first_phase2["workload"] != tenant["deployed"][0]["workload"]

    def test_oneshot_arm_tunes_exactly_once(self):
        with KnowledgeBase(":memory:") as kb:
            report = _controller(
                _fleet_specs(), kb, epochs=4, retune=False
            ).run()
        for tenant in report["tenants"].values():
            assert tenant["retunes"] == 1
            assert len(tenant["incumbents"]) == 1  # only the first workload

    def test_identical_seeds_are_deterministic(self):
        digests = []
        for _ in range(2):
            with KnowledgeBase(":memory:") as kb:
                controller = _controller(_fleet_specs(chaos=0.2), kb, epochs=4)
                controller.run()
                digests.append(controller.tenant_digests())
        assert digests[0] == digests[1]

    def test_checkpoint_requires_file_backed_kb(self, tmp_path):
        with KnowledgeBase(":memory:") as kb:
            with pytest.raises(ValueError, match="file-backed"):
                _controller(
                    _fleet_specs(), kb,
                    checkpoint_path=str(tmp_path / "f.ckpt"),
                )

    def test_restore_rejects_mismatched_fleet(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        with KnowledgeBase(str(tmp_path / "kb.sqlite")) as kb:
            _controller(_fleet_specs(), kb, epochs=2,
                        checkpoint_path=ckpt).run()
        payload = read_checkpoint(ckpt)
        payload["fleet"]["tenants"] = ["other"]
        write_checkpoint(ckpt, payload)
        with KnowledgeBase(str(tmp_path / "kb.sqlite")) as kb:
            with pytest.raises(ValueError, match="tenants"):
                _controller(_fleet_specs(), kb, epochs=2,
                            checkpoint_path=ckpt)

    @pytest.mark.parametrize("cost_units", [0.25, math.inf])
    def test_monitor_past_deadline_matches_session_kill(self, cost_units):
        """A monitor run past ``deadline_s`` is recorded as the same
        failed measurement a session's deadline kill produces — also
        when the run reports a non-finite cost."""

        class Costed(SystemWrapper):
            def run(self, workload, config):
                m = self.inner.run(workload, config)
                return Measurement(m.runtime_s, m.metrics,
                                   cost_units=cost_units)

        workload = olap_analytics(0.3)
        deadline_s = 1.0  # well below the workload's default runtime
        spec = TenantSpec(name="t0", system=Costed(_system()),
                          workloads=[workload])
        controller = FleetController([spec], epochs=1, deadline_s=deadline_s)
        tenant = controller._tenants[0]
        controller._monitor(tenant, workload, epoch=0)
        monitored = tenant.history[-1].measurement

        session = TuningSession(
            Costed(_system()), workload, Budget(max_runs=1),
            np.random.default_rng(0),
            execution=ExecutionPolicy(deadline_s=deadline_s),
        )
        killed = session.evaluate(session.system.default_configuration())
        assert session.deadline_kills == 1
        assert monitored.failed and monitored.metric("deadline_exceeded") == 1
        assert monitored == killed

    def test_tenant_names_must_be_unique(self):
        specs = _fleet_specs()
        dup = [specs[0], specs[0]]
        with pytest.raises(ValueError, match="unique"):
            FleetController(dup, epochs=1)


class TestKillResumeDeterminism:
    """Kill the controller mid-epoch; the resumed run must replay to
    byte-identical per-tenant history digests — with chaos mounted and a
    shared, file-backed knowledge base."""

    EPOCHS = 5
    KILL_EPOCH = 3

    def _run_uninterrupted(self, tmp_path):
        with KnowledgeBase(str(tmp_path / "a.kb")) as kb:
            controller = _controller(_fleet_specs(chaos=0.2), kb,
                                     epochs=self.EPOCHS)
            controller.run()
            return controller.tenant_digests(), len(kb)

    def test_digest_parity_after_mid_epoch_kill(self, tmp_path):
        reference, reference_kb_sessions = self._run_uninterrupted(tmp_path)

        class Kill(RuntimeError):
            pass

        def killer(epoch, tenant_name):
            # Dies after t0 finishes epoch 3: t0's episode is already
            # in the KB, t1's epoch 3 never happened.
            if epoch == self.KILL_EPOCH and tenant_name == "t0":
                raise Kill

        ckpt = str(tmp_path / "fleet.ckpt")
        kb_path = str(tmp_path / "b.kb")
        with KnowledgeBase(kb_path) as kb:
            controller = _controller(
                _fleet_specs(chaos=0.2), kb, epochs=self.EPOCHS,
                checkpoint_path=ckpt, on_tenant_complete=killer,
            )
            with pytest.raises(Kill):
                controller.run()

        with KnowledgeBase(kb_path) as kb:
            resumed = _controller(
                _fleet_specs(chaos=0.2), kb, epochs=self.EPOCHS,
                checkpoint_path=ckpt,
            )
            assert resumed.resumed_from_epoch == self.KILL_EPOCH
            resumed.run()
            assert resumed.tenant_digests() == reference
            # Replayed episodes were deduplicated, not double-ingested.
            assert len(kb) == reference_kb_sessions
