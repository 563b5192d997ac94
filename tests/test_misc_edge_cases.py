"""Edge-case coverage across modules that larger tests skim over."""

import types

import numpy as np
import pytest

from repro.core import Budget
from repro.core.parameters import (
    ConfigurationSpace,
    NumericParameter,
    make_constraint,
)
from repro.core.registry import register_tuner
from repro.core.session import TuningSession
from repro.exceptions import ReproError, ValidationError
from repro.mlkit.sampling import halton, latin_hypercube, uniform
from repro.systems.cluster import Cluster
from repro.systems.dbms import DbmsSimulator, olap_analytics
from repro.systems.hadoop import HadoopSimulator, terasort
from repro.tuners import GridSearchTuner
from repro.tuners.common import candidate_pool, grid_configurations


class TestRegistryGuards:
    def test_double_registration_rejected(self):
        with pytest.raises(ReproError):
            register_tuner("random-search")(object)


class TestSamplingEdges:
    def test_zero_samples(self):
        rng = np.random.default_rng(0)
        assert uniform(0, 3, rng).shape == (0, 3)
        assert latin_hypercube(0, 3, rng).shape == (0, 3)
        assert halton(0, 3).shape == (0, 3)

    def test_single_sample_lhs(self):
        X = latin_hypercube(1, 4, np.random.default_rng(0))
        assert X.shape == (1, 4)
        assert (0 <= X).all() and (X <= 1).all()


class TestSessionTimeAccounting:
    def test_failed_runs_charge_partial_elapsed(self):
        system = DbmsSimulator(Cluster.uniform(2))
        wl = olap_analytics(0.3)
        session = TuningSession(system, wl, Budget(max_runs=5), np.random.default_rng(0))
        oom = system.config_space.partial({
            "work_mem_mb": 4096, "hash_mem_multiplier": 8, "max_connections": 1000,
        })
        before = session.experiment_time_s
        measurement = session.evaluate(oom)
        assert not measurement.ok
        assert session.experiment_time_s == pytest.approx(before + 30.0)

    def test_time_budget_blocks_after_failures(self):
        system = DbmsSimulator(Cluster.uniform(2))
        wl = olap_analytics(0.3)
        session = TuningSession(
            system, wl, Budget(max_runs=100, max_experiment_time_s=31.0),
            np.random.default_rng(0),
        )
        oom = system.config_space.partial({
            "work_mem_mb": 4096, "hash_mem_multiplier": 8, "max_connections": 1000,
        })
        session.evaluate(oom)
        session.evaluate(oom)
        assert not session.can_run()


class TestGridSearchInfeasibleCorners:
    def test_constrained_grid_skips_invalid_combos(self):
        system = HadoopSimulator(Cluster.uniform(2))
        # io_sort_mb x map_memory grid hits the sort-buffer constraint
        # on (2048 sort, 256 memory)-style corners; they must be skipped
        # silently, not crash.
        tuner = GridSearchTuner(
            knobs=["io_sort_mb", "mapreduce_map_memory_mb"], levels=3
        )
        result = tuner.tune(
            system, terasort(2.0), Budget(max_runs=20), np.random.default_rng(0)
        )
        # 3x3 grid minus infeasible corners, plus the default run.
        assert 2 <= result.n_real_runs <= 10

    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("make, knobs", [
        (lambda: HadoopSimulator(Cluster.uniform(2)),
         ["io_sort_mb", "mapreduce_map_memory_mb", "io_sort_factor"]),
        (DbmsSimulator, None),
        (DbmsSimulator, []),
    ])
    def test_grid_equals_the_recursive_cross_product(self, make, knobs, levels):
        space = make().config_space
        names = space.names()[:3] if knobs is None else knobs
        grid = grid_configurations(space, names, levels)
        want = reference_grid(space, names, levels)
        assert grid == want
        assert [c.identity() for c in grid] == [c.identity() for c in want]
        if names:
            assert len(grid) <= levels ** len(names)
        tuner = GridSearchTuner(knobs=knobs or None, levels=levels)
        tuner.setup(None)
        state = types.SimpleNamespace(space=space)
        assert [c.config for c in tuner.ask(state)] == (
            grid if knobs else reference_grid(space, space.names()[:3], levels)
        )


def reference_grid(space, names, levels):
    """The recursive cross product grid search and SARD each held."""
    grids = {n: space[n].grid(levels) for n in names}
    configs = []

    def recurse(idx, overrides):
        if idx == len(names):
            try:
                configs.append(space.partial(overrides))
            except Exception:
                pass
            return
        for value in grids[names[idx]]:
            overrides[names[idx]] = value
            recurse(idx + 1, overrides)
        del overrides[names[idx]]

    recurse(0, {})
    return configs


class TestCommonHelpers:
    def test_candidate_pool_anchors_stay_local(self):
        system = DbmsSimulator()
        space = system.config_space
        anchor = space.default_configuration()
        rng = np.random.default_rng(0)
        pool, X = candidate_pool(space, rng, n_random=0, anchors=[anchor], jitter=0.02)
        assert pool
        assert np.array_equal(X, np.stack([c.to_array() for c in pool]))
        base = anchor.to_array()
        for config in pool:
            assert np.abs(config.to_array() - base).max() < 0.25


class TestConstraintAnnotations:
    def test_make_constraint_records_touches(self):
        c = make_constraint("c", ["a", "b"], lambda v: True)
        assert c.touches == ("a", "b")

    def test_unsatisfiable_space_sampling_raises(self):
        space = ConfigurationSpace([NumericParameter("x", 5, 0, 10)])
        space.add_constraint(make_constraint("never", ["x"], lambda v: False))
        with pytest.raises(ValidationError):
            space.sample_configuration(np.random.default_rng(0), max_tries=10)


class TestCliExperimentIds:
    @pytest.mark.parametrize("key", ["E16"])
    def test_new_experiments_reachable(self, key, capsys):
        from repro.cli import main

        assert main(["experiment", key, "--quick"]) == 0
        assert f"[{key}]" in capsys.readouterr().out
