"""The fidelity axis: scaling semantics, budget charging, successive-
halving promotion, and — above all — the parity pin: fidelity 1.0 is
byte-identical to the pre-fidelity code path for every tuner."""

import hashlib
import math

import numpy as np
import pytest

from repro import make_tuner
from repro.bench.harness import standard_cluster
from repro.core import Budget, InstrumentedSystem, PromotionScheduler
from repro.core.fidelity import (
    DISTORTION_AMPLITUDE,
    FidelitySystem,
    _distortion,
    scale_measurement,
    with_fidelity,
)
from repro.core.measurement import (
    Measurement,
    Observation,
    TuningHistory,
    history_digest,
)
from repro.core.parameters import ConfigurationSpace
from repro.core.serialize import observation_from_jsonable, to_jsonable
from repro.core.session import TuningSession
from repro.exceptions import ReproError
from repro.exec import EvaluationCache, ParallelRunner
from repro.exec.resilience import ExecutionPolicy
from repro.obs.metrics import global_metrics
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro.tuners.common import history_to_training_data
from repro.tuners.ml.ottertune import build_repository

_BUDGET = Budget(max_runs=14)
_NOISE = 0.05
_TUNER_SEED = 7
_NOISE_SEED = 999

_REPO = None


def _repository():
    global _REPO
    if _REPO is None:
        _REPO = build_repository(
            DbmsSimulator(standard_cluster()),
            [htap_mixed(0.6)],
            n_samples=12,
            rng=np.random.default_rng(7),
        )
    return _REPO


# Mirrors tests/test_driver_parity.py: every ask/tell tuner family.
_SPECS = {
    "default": lambda: make_tuner("default"),
    "random-search": lambda: make_tuner("random-search"),
    "grid-search": lambda: make_tuner("grid-search", levels=3, n_knobs=2),
    "genetic": lambda: make_tuner("genetic", population=4, elite=1),
    "rrs": lambda: make_tuner("rrs", n_global=4),
    "adaptive-sampling": lambda: make_tuner(
        "adaptive-sampling", n_bootstrap=6, n_candidates=60
    ),
    "sard": lambda: make_tuner("sard", batch_size=2),
    "ituned": lambda: make_tuner(
        "ituned", n_init=5, batch_size=3, n_candidates=60
    ),
    "bayesopt": lambda: make_tuner("bayesopt", n_init=4, n_candidates=60),
    "cem": lambda: make_tuner("cem", batch=4),
    "nn-tuner": lambda: make_tuner(
        "nn-tuner", n_init=5, epochs=30, hidden=(8, 8), n_candidates=60
    ),
    "ensemble": lambda: make_tuner(
        "ensemble", n_init=5, mlp_epochs=30, n_candidates=60
    ),
    "ottertune": lambda: make_tuner(
        "ottertune", repository=_repository(), n_init=4, n_candidates=60
    ),
}


@pytest.fixture
def system():
    return DbmsSimulator(standard_cluster())


@pytest.fixture
def workload():
    return htap_mixed(0.3)


def _instrumented(system=None):
    return InstrumentedSystem(
        system or DbmsSimulator(standard_cluster()),
        noise=_NOISE,
        rng=np.random.default_rng(_NOISE_SEED),
    )


class TestFidelityValue:
    def test_validates_range(self, system):
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                with_fidelity(system, bad)

    def test_with_fidelity_identity_at_full(self, system):
        assert with_fidelity(system, 1.0) is system

    def test_repin_is_absolute_not_compounding(self, system):
        half = with_fidelity(system, 0.5)
        repinned = with_fidelity(half, 0.25)
        assert isinstance(repinned, FidelitySystem)
        assert repinned.inner is system
        assert repinned.fidelity == 0.25
        assert with_fidelity(half, 1.0) is system

    def test_wrapper_refuses_full_fidelity(self, system):
        with pytest.raises(ValueError):
            FidelitySystem(system, 1.0)


class TestScaleMeasurement:
    def test_full_fidelity_returns_same_object(self, system, workload):
        m = Measurement(runtime_s=10.0)
        assert scale_measurement(
            m, 1.0, workload, system.default_configuration()
        ) is m

    def test_scaled_runtime_within_distortion_band(self, system, workload):
        config = system.default_configuration()
        m = Measurement(runtime_s=10.0, cost_units=3.0)
        for f in (0.1, 0.25, 0.5, 0.9):
            scaled = scale_measurement(m, f, workload, config)
            band = DISTORTION_AMPLITUDE * (1.0 - f)
            assert scaled.ok
            assert scaled.runtime_s == pytest.approx(10.0 * f, rel=band + 1e-9)
            assert scaled.cost_units == pytest.approx(3.0 * f)
            # Deterministic: same inputs, same distortion.
            again = scale_measurement(m, f, workload, config)
            assert again.runtime_s == scaled.runtime_s

    def test_failures_stay_failed_and_scale_elapsed(self, system, workload):
        config = system.default_configuration()
        fail = Measurement(
            runtime_s=math.inf, failed=True, cost_units=2.0,
            metrics={"elapsed_before_failure_s": 4.0},
        )
        scaled = scale_measurement(fail, 0.5, workload, config)
        assert scaled.failed
        assert scaled.metric("elapsed_before_failure_s") == pytest.approx(2.0)
        assert scaled.cost_units == pytest.approx(1.0)

    def test_vectorized_batch_matches_scalar_loop(self, workload):
        inner = _instrumented()
        view = with_fidelity(inner, 0.25)
        rng = np.random.default_rng(3)
        configs = inner.config_space.sample_configurations(6, rng)
        assert view.supports_vectorized() == inner.supports_vectorized()
        serial = [view.run(workload, c) for c in configs]
        # Fresh instrumented system: noise draws must line up run-for-run.
        batch_view = with_fidelity(_instrumented(), 0.25)
        batched = batch_view.run_batch(workload, configs)
        for a, b in zip(serial, batched):
            assert a.runtime_s == b.runtime_s
            assert a.cost_units == b.cost_units


class TestPromotionScheduler:
    def test_ladder_is_geometric_and_ends_full(self):
        sched = PromotionScheduler(rungs=3, min_fidelity=0.25, eta=2.0)
        assert sched.ladder() == pytest.approx([0.25, 0.5, 1.0])
        assert PromotionScheduler(rungs=2, min_fidelity=0.1).ladder() == \
            pytest.approx([0.1, 1.0])

    def test_survivor_counts_halve(self):
        sched = PromotionScheduler(rungs=3, min_fidelity=0.25, eta=2.0)
        assert sched.survivors(8, 0) == 4
        assert sched.survivors(8, 1) == 2
        assert sched.survivors(2, 5) == 1  # never below one

    def test_validation(self):
        with pytest.raises(ValueError):
            PromotionScheduler(rungs=1)
        with pytest.raises(ValueError):
            PromotionScheduler(min_fidelity=1.0)
        with pytest.raises(ValueError):
            PromotionScheduler(eta=1.0)


class TestDigestAndSerialization:
    def _obs(self, system, **kwargs):
        return Observation(
            config=system.default_configuration(),
            measurement=Measurement(runtime_s=5.0),
            workload="w",
            **kwargs,
        )

    def test_explicit_full_fidelity_hashes_like_legacy(self, system):
        legacy = TuningHistory()
        legacy.record(self._obs(system))
        explicit = TuningHistory()
        explicit.record(self._obs(system, fidelity=1.0))
        assert history_digest(legacy) == history_digest(explicit)

    def test_sub_fidelity_changes_digest(self, system):
        full = TuningHistory()
        full.record(self._obs(system))
        screened = TuningHistory()
        screened.record(self._obs(system, fidelity=0.5))
        assert history_digest(full) != history_digest(screened)

    def test_serialize_round_trip_and_legacy_default(self, system):
        space = system.config_space
        obs = self._obs(system, fidelity=0.25)
        payload = to_jsonable(obs)
        assert payload["fidelity"] == 0.25
        restored = observation_from_jsonable(space, payload)
        assert restored.fidelity == 0.25

        full_payload = to_jsonable(self._obs(system))
        # Full-fidelity payloads stay byte-compatible with old KBs.
        assert "fidelity" not in full_payload
        assert observation_from_jsonable(space, full_payload).fidelity == 1.0

    def test_screens_excluded_from_selection_and_training(self, system):
        history = TuningHistory()
        fast_screen = Observation(
            config=system.default_configuration(),
            measurement=Measurement(runtime_s=1.0),
            workload="w", fidelity=0.25, tag="rung-0",
        )
        history.record(fast_screen)
        history.record(self._obs(system))
        assert [o.fidelity for o in history.successful()] == [1.0]
        traj = history.incumbent_trajectory()
        assert traj[-1][1] == pytest.approx(5.0)
        charged = history.charged_trajectory()
        assert charged[0] == (pytest.approx(0.25), math.inf)
        assert charged[-1] == (pytest.approx(1.25), pytest.approx(5.0))
        from types import SimpleNamespace

        stub = SimpleNamespace(
            history=history, failure_policy="penalize",
            space=system.config_space,
        )
        X, y = history_to_training_data(stub)
        assert len(y) == 1
        assert y[0] == pytest.approx(5.0)


class TestBudgetCharging:
    def _session(self, runs=10, **kwargs):
        return TuningSession(
            _instrumented(), htap_mixed(0.3), Budget(max_runs=runs),
            np.random.default_rng(0), **kwargs,
        )

    def test_sub_fidelity_charges_fraction(self):
        session = self._session(runs=10)
        config = session.default_config()
        session.evaluate(config, fidelity=0.25)
        assert session.real_runs == 1
        assert session.charged_runs == pytest.approx(0.25)
        assert session.remaining_runs == 9  # ceil(0.25) = 1 spent
        session.evaluate(config, fidelity=0.25)
        session.evaluate(config, fidelity=0.5)
        assert session.charged_runs == pytest.approx(1.0)
        assert session.remaining_runs == 9

    def test_ten_percent_runs_cost_ten_percent_budget(self):
        session = self._session(runs=2)
        config = session.default_config()
        for _ in range(20):
            assert session.can_run()
            session.evaluate(config, fidelity=0.1)
        assert session.charged_runs == pytest.approx(2.0)
        assert not session.can_run()

    def test_batch_truncates_by_charged_budget(self):
        session = self._session(runs=3)
        configs = [session.default_config()] * 8
        ms = session.evaluate_batch(configs, fidelity=0.5)
        # 3 remaining full runs afford six half-price screens.
        assert len(ms) == 6
        assert session.charged_runs == pytest.approx(3.0)
        assert not session.can_run()

    def test_retries_charge_at_run_fidelity(self):
        from repro.chaos import ChaosSystem
        from repro.chaos.policies import TransientFaults

        chaos = ChaosSystem(
            _instrumented(), [TransientFaults(rate=0.999)], seed=1
        )
        session = TuningSession(
            chaos, htap_mixed(0.3), Budget(max_runs=10),
            np.random.default_rng(0),
            execution=ExecutionPolicy(max_retries=2),
        )
        session.evaluate(session.default_config(), fidelity=0.5)
        # Near-certain faults: every attempt (original + retries) is a
        # half-price run, charged at its own fidelity.
        assert session.real_runs >= 1
        assert session.charged_runs == pytest.approx(0.5 * session.real_runs)
        assert all(
            o.fidelity == 0.5 for o in session.history.real_observations()
        )

    def test_quarantined_screen_charges_fraction_not_poisoning(self):
        from repro.chaos import ChaosSystem, ConfigBlackout

        inner = DbmsSimulator(standard_cluster())
        space = inner.config_space
        knobs = ("temp_buffers_mb", "wal_buffers_mb")
        chaos = ChaosSystem(
            inner, [ConfigBlackout(knobs=knobs, threshold=0.85)], seed=4
        )
        unit = np.full(space.dimension, 0.5)
        for k in knobs:
            unit[space.names().index(k)] = 0.95
        hot = space.from_array_feasible(unit, np.random.default_rng(0))
        session = TuningSession(
            chaos, htap_mixed(0.3), Budget(max_runs=20),
            np.random.default_rng(0),
            execution=ExecutionPolicy(breaker_threshold=2),
        )
        session.evaluate(hot, fidelity=0.25)
        session.evaluate(hot, fidelity=0.25)
        assert session.breaker.is_open(hot)
        before = session.charged_runs
        m = session.evaluate(hot, tag="rung-0", fidelity=0.25)
        assert m.metric("quarantined") == 1.0
        # The mid-rung trip charges the screen's fraction, not a full run.
        assert session.charged_runs == pytest.approx(before + 0.25)
        skipped = session.history.real_observations()[-1]
        assert skipped.fidelity == 0.25
        assert not skipped.full_fidelity
        # And the quarantine stub can never become the incumbent.
        assert session.history.successful() == []

    def test_resilience_summary_reports_charged_runs(self):
        session = self._session(runs=10)
        session.evaluate(session.default_config(), fidelity=0.5)
        assert session.resilience_summary()["charged_runs"] == \
            pytest.approx(0.5)


class TestCacheKeys:
    def test_fidelity_views_never_collide_in_shared_cache(self, workload):
        cache = EvaluationCache()
        sim = DbmsSimulator(standard_cluster())
        config = sim.default_configuration()
        quarter = InstrumentedSystem(
            with_fidelity(DbmsSimulator(standard_cluster()), 0.25),
            eval_cache=cache,
        )
        half = InstrumentedSystem(
            with_fidelity(DbmsSimulator(standard_cluster()), 0.5),
            eval_cache=cache,
        )
        m25 = quarter.run(workload, config)
        m50 = half.run(workload, config)
        # Before execution_context entered the cache key, the second
        # view replayed the first view's measurement.
        assert m25.runtime_s != m50.runtime_s
        assert cache.stats()["misses"] == 2
        # Same-fidelity reruns still hit.
        again = quarter.run(workload, config)
        assert again.runtime_s == m25.runtime_s
        assert cache.stats()["hits"] == 1

    def test_plain_systems_keep_legacy_keys(self, workload):
        cache = EvaluationCache()
        sim = DbmsSimulator(standard_cluster())
        config = sim.default_configuration()
        key = cache.key_for(sim, workload, config)
        assert sim.execution_context() == ()
        # No context → the key shape older persisted caches used.
        assert all(not str(part).startswith("fidelity=") for part in key)

    def test_config_bytes_of_keys_and_distortions_stay(self, workload):
        # the bytes that cache keys and distortions hashed before the
        # configuration kept its identity string
        sim = DbmsSimulator(standard_cluster())
        config = sim.config_space.sample_configuration(np.random.default_rng(3))
        legacy = "\x1f".join(f"{k}={v!r}" for k, v in sorted(config.to_dict().items()))
        key = EvaluationCache().key_for(sim, workload, config)
        assert key[3] == hashlib.sha1(legacy.encode()).hexdigest()
        for name, payload in (("w", "w\x1f" + legacy), ("", "\x1f" + legacy)):
            assert _distortion(name, config) == _legacy_distortion(payload)
        empty = ConfigurationSpace().configuration({})
        assert _distortion("w", empty) == _legacy_distortion("w")


def _legacy_distortion(payload):
    digest = hashlib.sha256(payload.encode()).digest()
    return 2.0 * (int.from_bytes(digest[:8], "big") / float(2**64 - 1)) - 1.0


def _mf_tuner(name="cem", **overrides):
    opts = dict(fidelity_rungs=2, fidelity_min=0.25, fidelity_eta=2.0)
    opts.update(overrides)
    if name == "cem":
        return make_tuner("cem", batch=6, **opts)
    return make_tuner(name, **opts)


class TestMultiFidelitySearch:
    def test_screens_recorded_promotions_counted(self, workload):
        result = _mf_tuner().tune(
            _instrumented(), workload, Budget(max_runs=16),
            rng=np.random.default_rng(5),
        )
        obs = result.history.real_observations()
        screens = [o for o in obs if not o.full_fidelity]
        assert screens, "screening rungs never ran"
        assert all(o.fidelity == pytest.approx(0.25) for o in screens)
        assert all("rung-0" in o.tag for o in screens)
        summary = result.extras["multi_fidelity"]
        assert summary["ladder"] == pytest.approx([0.25, 1.0])
        assert summary["screened_asks"] >= 1
        assert summary["rung_evals"] == len(screens)
        assert summary["rung_promotions"] <= summary["rung_evals"]
        charged = result.extras["resilience"]["charged_runs"]
        assert charged <= 16.0 + 1e-9
        assert charged < result.n_real_runs  # screens are discounted
        # The incumbent is a real, full-price measurement.
        assert math.isfinite(result.best_runtime_s)
        best = min(
            o.runtime_s for o in result.history.successful()
        )
        assert result.best_runtime_s == pytest.approx(best)

    def test_serial_and_parallel_digests_identical(self, workload):
        def run(runner=None):
            # without the DBMS kernel, which takes precedence over a runner
            system = InstrumentedSystem(
                DbmsSimulator(standard_cluster()),
                noise=_NOISE,
                rng=np.random.default_rng(_NOISE_SEED),
                runner=runner,
                vectorize=runner is None,
            )
            result = _mf_tuner().tune(
                system, workload, Budget(max_runs=16),
                rng=np.random.default_rng(_TUNER_SEED),
            )
            return result.history.digest(), result.n_real_runs

        serial, n_serial = run()
        before = global_metrics().value("exec.runner.tasks.thread")
        with ParallelRunner(jobs=4, mode="thread") as runner:
            parallel, n_parallel = run(runner)
        assert global_metrics().value("exec.runner.tasks.thread") > before
        assert serial == parallel
        assert n_serial == n_parallel

    def test_off_by_default(self, workload):
        plain = make_tuner("cem", batch=6)
        assert plain.screening is None
        result = plain.tune(
            _instrumented(), workload, Budget(max_runs=10),
            rng=np.random.default_rng(5),
        )
        assert "multi_fidelity" not in result.extras
        assert all(
            o.full_fidelity for o in result.history.real_observations()
        )

    def test_make_tuner_fidelity_kwargs_imply_opt_in(self):
        tuner = make_tuner("genetic", fidelity_rungs=2, fidelity_min=0.1)
        assert tuner.screening == PromotionScheduler(rungs=2, min_fidelity=0.1)

    @pytest.mark.parametrize("name", ["genetic", "cem", "rrs", "ituned"])
    @pytest.mark.parametrize("opts, schedule", [
        ({}, None),
        ({"fidelity_rungs": 2, "fidelity_min": 0.25},
         PromotionScheduler(rungs=2, min_fidelity=0.25)),
        ({"fidelity_eta": 8}, PromotionScheduler(eta=8.0)),
        ({"fidelity_rungs": 4.0, "fidelity_min": "0.5", "fidelity_eta": 3},
         PromotionScheduler(rungs=4, min_fidelity=0.5, eta=3.0)),
    ])
    def test_screening_is_the_schedule_of_the_fidelity_kwargs(
        self, name, opts, schedule
    ):
        tuner = make_tuner(name, **opts)
        assert tuner.screening == schedule
        if schedule is not None:
            # the same int/float coercion the scheduler always got
            assert type(tuner.screening.rungs) is int
            assert type(tuner.screening.min_fidelity) is float
            assert type(tuner.screening.eta) is float
        # one settable screening attribute, not four
        for gone in ("multi_fidelity", "fidelity_rungs", "fidelity_min",
                     "fidelity_eta"):
            assert not hasattr(tuner, gone)

    def test_make_tuner_rejects_non_search_tuners(self):
        with pytest.raises(ReproError):
            make_tuner("rule-based", fidelity_rungs=2)

    def test_make_tuner_validates_schedule_eagerly(self):
        with pytest.raises(ValueError):
            make_tuner("cem", fidelity_min=1.5)


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_full_fidelity_digest_parity(name):
    """fidelity=1.0 is byte-identical to the unwrapped system for every
    tuner — the refactor's acceptance pin."""
    def run(wrap):
        inner = _instrumented()
        system = with_fidelity(inner, 1.0) if wrap else inner
        if wrap:
            assert system is inner  # identity, not a wrapper
        result = _SPECS[name]().tune(
            system, htap_mixed(0.3), _BUDGET,
            rng=np.random.default_rng(_TUNER_SEED),
        )
        return result.history.digest(), result.n_real_runs

    plain, n_plain = run(wrap=False)
    pinned, n_pinned = run(wrap=True)
    assert plain == pinned
    assert n_plain == n_pinned
