"""The batch evaluation path does its framework work once per batch.

A genetic generation is bred in array operations, identities are built
by column, cache keys and noise are built once per batch, and batch
members get spans only under a tracer.  Each is pinned against the
per-member code it replaced: same draws, same bytes, same digests.
"""

import numpy as np
import pytest

from repro import Budget, make_system, make_tuner
from repro.chaos import ChaosSystem, standard_policies
from repro.core import session as session_module
from repro.core.driver import Candidate
from repro.core.measurement import Measurement
from repro.core.parameters import (
    CategoricalParameter, Configuration, ConfigurationSpace,
    NumericParameter, identities,
)
from repro.core.registry import system_names
from repro.core.session import TuningSession
from repro.core.system import InstrumentedSystem
from repro.exec import cache as cache_module
from repro.exec.cache import EvaluationCache
from repro.obs import trace as trace_module
from repro.obs.trace import tracing
from repro.tuners.experiment.gunther import GeneticTuner
from repro.workloads import htap_mixed, oltp_orders, spark_sql_join


# -- the genetic generation ----------------------------------------------------
_BATCHED_ASK = GeneticTuner.ask


def _per_child_ask(self, state, ties):
    """The per-child breeding loop the batched ask replaced.

    ``ties["reordered"]`` counts tournaments whose first fittest pick
    (in ``rng.choice`` order) is not the lowest-index fittest pick.
    """
    if self._generation == 0:
        return _BATCHED_ASK(self, state)
    space, rng = state.space, state.rng
    d = space.dimension
    scored = sorted(self._scored, key=lambda item: item[0])
    self._pending_elite = list(scored[: self.elite])
    next_pop = [x for _, x in scored[: self.elite]]

    def select():
        picks = rng.choice(
            len(scored), size=min(self.tournament, len(scored)), replace=False
        )
        best = min(picks, key=lambda i: scored[i][0])
        tied = [i for i in picks if scored[i][0] == scored[best][0]]
        ties["reordered"] += int(best != min(tied))
        return scored[best][1]

    while len(next_pop) < self.population:
        mother = select()
        father = select()
        mask = rng.random(d) < 0.5
        child = np.where(mask, mother, father)
        mutate = rng.random(d) < self.mutation_rate
        child = np.where(
            mutate,
            np.clip(child + rng.normal(scale=self.mutation_scale, size=d), 0, 1),
            child,
        )
        next_pop.append(child)
    children = space.from_arrays_feasible(np.array(next_pop[self.elite:]), rng)
    return [
        Candidate(config, tag=f"gen{self._generation}-{i}")
        for i, config in enumerate(children)
    ]


def _genetic_digest(kwargs, seed=5):
    """One genetic session on dbms/oltp under heavy chaos: penalized
    failures share a stand-in fitness, so tournaments tie often."""
    inner = InstrumentedSystem(
        make_system("dbms"), noise=0.05, rng=np.random.default_rng(seed),
        eval_cache=EvaluationCache(),
    )
    system = ChaosSystem(inner, standard_policies(0.6), seed=seed)
    result = make_tuner("genetic", **kwargs).tune(
        system, oltp_orders(), Budget(max_runs=150),
        rng=np.random.default_rng(seed),
    )
    return result.history.digest()


_SCREENING = {"fidelity_rungs": 2, "fidelity_min": 0.25}


class TestGeneticBatchedAsk:
    @pytest.mark.parametrize("screening", [{}, _SCREENING], ids=["full", "screened"])
    @pytest.mark.parametrize("settings", [
        {"population": 6, "elite": 1, "tournament": 3},
        {"population": 10, "elite": 3, "tournament": 2},
        {"population": 8, "elite": 2, "tournament": 12},
        {"population": 8, "elite": 2, "tournament": 1},
    ], ids=["p6e1t3", "p10e3t2", "p8e2t12", "p8e2t1"])
    def test_same_digest_as_per_child_loop(self, monkeypatch, settings, screening):
        kwargs = {**settings, **screening}
        batched = _genetic_digest(kwargs)
        ties = {"reordered": 0}
        monkeypatch.setattr(
            GeneticTuner, "ask",
            lambda self, state: _per_child_ask(self, state, ties),
        )
        assert _genetic_digest(kwargs) == batched
        if 1 < settings["tournament"] < settings["population"]:
            # ties whose winner is not the lowest index: a batched ask
            # that broke ties by index would have bred other children
            assert ties["reordered"] > 0

    @pytest.mark.parametrize("kwargs, field", [
        ({"tournament": 0}, "tournament"),
        ({"tournament": -1}, "tournament"),
        ({"mutation_scale": -0.1}, "mutation_scale"),
        ({"mutation_rate": -0.1}, "mutation_rate"),
        ({"mutation_rate": 1.5}, "mutation_rate"),
    ])
    def test_refuses_settings_it_cannot_run(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            make_tuner("genetic", **kwargs)

    def test_accepts_the_edges(self):
        for kwargs in ({"tournament": 1}, {"mutation_scale": 0.0},
                       {"mutation_rate": 0.0}, {"mutation_rate": 1.0}):
            make_tuner("genetic", **kwargs)


# -- identities ----------------------------------------------------------------
def _reference_identity(config):
    return "\x1f".join(
        f"{k}={v!r}" for k, v in sorted(config.to_dict().items())
    )


class TestIdentities:
    @pytest.mark.parametrize("name", system_names())
    def test_equal_per_configuration_identity(self, name):
        space = make_system(name).config_space
        batch = list(space.sample_configurations(40, np.random.default_rng(2)))
        single = list(space.sample_configurations(40, np.random.default_rng(2)))
        got = identities(batch)
        assert got == [config.identity() for config in single]
        assert got == [_reference_identity(config) for config in single]

    def test_tells_zero_from_false_and_negative_zero(self):
        space = ConfigurationSpace([
            CategoricalParameter("c", 0, [0, False, "x"]),
            NumericParameter("x", 0.5, -1.0, 1.0),
        ])
        configs = [
            Configuration(space, {"c": 0, "x": 0.0}),
            Configuration(space, {"c": False, "x": -0.0}),
        ]
        assert configs[0] == configs[1]
        assert identities(configs) == ["c=0\x1fx=0.0", "c=False\x1fx=-0.0"]

    def test_two_spaces_in_one_call(self):
        dbms = make_system("dbms").config_space
        spark = make_system("spark").config_space
        a = list(dbms.sample_configurations(5, np.random.default_rng(1)))
        b = list(spark.sample_configurations(5, np.random.default_rng(1)))
        mixed = [c for pair in zip(a, b) for c in pair]
        assert identities(mixed) == [_reference_identity(c) for c in mixed]

    def test_kept_identities_are_reused(self):
        space = make_system("hadoop").config_space
        configs = list(space.sample_configurations(6, np.random.default_rng(4)))
        kept = [configs[i].identity() for i in (0, 3)]
        got = identities(configs)
        assert got[0] is kept[0] and got[3] is kept[1]
        assert got == [_reference_identity(c) for c in configs]
        assert [c.identity() for c in configs] == got


# -- cache keys and noise, once per batch ----------------------------------------
def _dbms_configs():
    """dbms/oltp configurations, about half of which fail."""
    sim = make_system("dbms")
    configs = list(sim.config_space.sample_configurations(16, np.random.default_rng(3)))
    failed = [c for c in configs if not sim.run(oltp_orders(), c).ok]
    assert 2 <= len(failed) < len(configs)
    return configs, failed


def _batches():
    configs, failed = _dbms_configs()
    return {
        "mixed": configs,
        "repeated": configs[:5] + configs[:3] + configs[4:6],
        "all-failed": failed,
    }


def _scalar_replay(configs, noise, seed=7):
    """Noise as a per-member loop drew it: one scalar draw per
    successful run, none for a failed one."""
    sim, rng = make_system("dbms"), np.random.default_rng(seed)
    results = []
    for config in configs:
        m = sim.run(oltp_orders(), config)
        if noise > 0 and m.ok:
            factor = float(np.exp(rng.normal(loc=0.0, scale=noise)))
            m = Measurement(runtime_s=m.runtime_s * factor, metrics=m.metrics,
                            failed=False, cost_units=m.cost_units)
        results.append(m)
    return results, rng.bit_generator.state


class TestBatchNoise:
    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("noise", [0.05, 0.0])
    @pytest.mark.parametrize("kind", ["mixed", "repeated", "all-failed"])
    def test_equals_serial_run_loop(self, kind, noise, cached):
        configs = _batches()[kind]

        def build():
            return InstrumentedSystem(
                make_system("dbms"), noise=noise, rng=np.random.default_rng(7),
                eval_cache=EvaluationCache() if cached else None,
            )

        batched, serial = build(), build()
        assert batched.supports_vectorized()
        got = batched.run_batch(oltp_orders(), configs)
        want, state = _scalar_replay(configs, noise)
        assert got == want
        assert [serial.run(oltp_orders(), c) for c in configs] == want
        assert batched.rng.bit_generator.state == state
        assert serial.rng.bit_generator.state == state
        if cached:
            assert batched.eval_cache.stats() == serial.eval_cache.stats()

    def test_uncacheable_system_is_walked_once(self, monkeypatch):
        # a simulator holding a live RNG cannot be fingerprinted
        sim = make_system("spark")
        sim.live_rng = np.random.default_rng(0)
        other = make_system("spark")
        other.live_rng = np.random.default_rng(0)
        walks = []
        fingerprint = cache_module.fingerprint

        def counting(obj):
            if obj is sim:
                walks.append(obj)
            return fingerprint(obj)

        monkeypatch.setattr(cache_module, "fingerprint", counting)
        batched = InstrumentedSystem(
            sim, noise=0.05, rng=np.random.default_rng(3),
            eval_cache=EvaluationCache(),
        )
        serial = InstrumentedSystem(
            other, noise=0.05, rng=np.random.default_rng(3),
            eval_cache=EvaluationCache(),
        )
        workload = spark_sql_join(6.0)
        configs = sim.config_space.sample_configurations(160, np.random.default_rng(1))
        for start in range(0, 160, 8):
            batch = configs[start:start + 8]
            assert batched.run_batch(workload, batch) == [
                serial.run(workload, c) for c in batch
            ]
        assert len(walks) == 1
        assert batched.eval_cache.stats()["entries"] == 0


# -- member spans ------------------------------------------------------------------
class TestMemberSpans:
    def test_members_get_spans_only_under_a_tracer(self, monkeypatch):
        names = []
        span = session_module.obs_span

        def counting(name, **attrs):
            names.append(name)
            return span(name, **attrs)

        monkeypatch.setattr(session_module, "obs_span", counting)
        monkeypatch.setattr(trace_module, "_ACTIVE", None)
        sim = make_system("dbms")
        configs = list(sim.config_space.sample_configurations(5, np.random.default_rng(0)))
        session = TuningSession(sim, htap_mixed(), Budget(max_runs=20),
                                np.random.default_rng(0))
        session.evaluate_batch(configs, tag="b")
        assert names == ["batch"]
        names.clear()
        with tracing() as tracer:
            session.evaluate_batch(configs, tag="b")
        assert names == ["batch"] + ["evaluation"] * 5
        assert tracer.span_counts()["evaluation"] == 5
