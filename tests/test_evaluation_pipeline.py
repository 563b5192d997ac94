"""The session's single evaluation pipeline: affordability and parity.

Every way a session runs a configuration (``evaluate``,
``evaluate_batch``, ``evaluate_workload``, ``record_external``) goes
through one pipeline.  These tests pin its budget rule on hand-picked
cases and its batch/serial parity on generated inputs: random batches
over whole config spaces, with duplicates and failure-cliff configs, at
several fidelities.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Budget, make_system
from repro.chaos import ChaosSystem, ConfigBlackout, TransientFaults
from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.fidelity import with_fidelity
from repro.core.session import TuningSession
from repro.core.system import InstrumentedSystem
from repro.exceptions import BudgetExhausted
from repro.exec.cache import EvaluationCache
from repro.exec.resilience import ExecutionPolicy
from repro.workloads import htap_mixed, spark_sql_join, terasort

KINDS = ["dbms", "spark", "hadoop"]
FIDELITIES = [0.25, 0.5, 1.0]

_WORKLOADS = {
    "dbms": lambda: htap_mixed(0.3),
    "spark": lambda: spark_sql_join(2.0),
    "hadoop": lambda: terasort(2.0),
}

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cliff(kind, config):
    """Push a config over each simulator's out-of-memory cliff."""
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


def _pool(kind, seed, n=6):
    """``n`` random configs plus their failure-cliff twins."""
    space = make_system(kind).config_space
    configs = list(space.sample_configurations(n, np.random.default_rng(seed)))
    for config in configs[: n // 2]:
        try:
            configs.append(_cliff(kind, config))
        except Exception:  # the push left the feasible region
            continue
    return configs


@st.composite
def batches(draw, max_batches=3, max_size=8):
    """(kind, config batches with repeats, fidelity, seed)."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    pool = _pool(kind, seed)
    picks = st.lists(
        st.integers(min_value=0, max_value=len(pool) - 1),
        min_size=1, max_size=max_size,
    )
    drawn = draw(st.lists(picks, min_size=1, max_size=max_batches))
    fidelity = draw(st.sampled_from(FIDELITIES))
    return kind, [[pool[i] for i in b] for b in drawn], fidelity, seed


def _instrumented(kind, seed):
    return InstrumentedSystem(
        make_system(kind), noise=0.05, rng=np.random.default_rng(seed),
        eval_cache=EvaluationCache(),
    )


def _session(system, kind, runs, seed, execution=None):
    return TuningSession(
        system, _WORKLOADS[kind](), Budget(max_runs=runs),
        np.random.default_rng(seed), execution=execution,
    )


class TestAffordability:
    """A member at fidelity f runs only if charged + f <= max_runs."""

    def test_partial_charge_never_overshoots(self):
        session = _session(InstrumentedSystem(make_system("dbms")), "dbms",
                           runs=2, seed=0)
        a, b, c, d = _pool("dbms", seed=3, n=4)[:4]
        session.evaluate_batch([a, b, c], fidelity=0.5)
        assert session.charged_runs == 1.5
        # Half a run left: a full run does not fit, whatever the path.
        with pytest.raises(BudgetExhausted):
            session.evaluate(c)
        assert session.charged_runs == 1.5
        with pytest.raises(BudgetExhausted):
            session.evaluate_batch([a, b])
        with pytest.raises(BudgetExhausted):
            session.evaluate_workload(htap_mixed(0.1), c)
        assert session.evaluate_if_budget(c) is None
        assert session.charged_runs == 1.5
        # ...but two quarter-runs do.
        assert len(session.evaluate_batch([a, b, c, d], fidelity=0.25)) == 2
        assert session.charged_runs == 2.0
        assert not session.can_run()

    def test_finish_runs_when_budget_ends_on_partial_charge(self):
        class ThreeQuarterRuns(SearchTuner):
            name = "three-quarters"
            category = "search-based"
            evaluate_default_first = False

            def setup(self, state: SearchState) -> None:
                self.finished = False

            def ask(self, state: SearchState) -> List[Candidate]:
                config = state.space.sample_configuration(state.rng)
                return [Candidate(config, fidelity=0.75)]

            def tell(self, state: SearchState, results) -> None:
                pass

            def finish(self, state: SearchState) -> None:
                self.finished = True

        strategy = ThreeQuarterRuns()
        result = strategy.tune(
            InstrumentedSystem(make_system("dbms")), htap_mixed(0.3),
            Budget(max_runs=2), rng=np.random.default_rng(0),
        )
        assert strategy.finished
        # 0.75 + 0.75 fits; a third 0.75 would overshoot the budget.
        assert result.extras["resilience"]["charged_runs"] == 1.5
        assert result.n_real_runs == 2


class TestRetriesBelongToEvaluate:
    def test_one_config_batch_never_retries(self):
        chaos = ChaosSystem(make_system("dbms"), [TransientFaults(0.999)],
                            seed=1)
        policy = ExecutionPolicy(max_retries=2)
        config = chaos.default_configuration()
        batched = _session(chaos, "dbms", runs=10, seed=0, execution=policy)
        batched.evaluate_batch([config])
        assert (batched.real_runs, batched.retries) == (1, 0)
        single = _session(chaos, "dbms", runs=10, seed=0, execution=policy)
        single.evaluate(config)
        assert (single.real_runs, single.retries) == (3, 2)


class TestGeneratedParity:
    @given(drawn=batches())
    @settings(**_SETTINGS)
    def test_run_batch_equals_run_loop(self, drawn):
        kind, config_batches, fidelity, seed = drawn
        workload = _WORKLOADS[kind]()
        batched, looped = _instrumented(kind, seed), _instrumented(kind, seed)
        batched_view = with_fidelity(batched, fidelity)
        looped_view = with_fidelity(looped, fidelity)
        for configs in config_batches:
            got = batched_view.run_batch(workload, configs)
            want = [looped_view.run(workload, c) for c in configs]
            assert [repr(m) for m in got] == [repr(m) for m in want]
        for field in ("hits", "misses", "entries"):
            assert (batched.eval_cache.stats()[field]
                    == looped.eval_cache.stats()[field]), field

    @given(drawn=batches(max_batches=1, max_size=10),
           runs=st.integers(min_value=1, max_value=6))
    @settings(**_SETTINGS)
    def test_evaluate_batch_equals_evaluate_loop(self, drawn, runs):
        kind, (configs,), fidelity, seed = drawn
        tags = [f"c{i}" for i in range(len(configs))]
        batched = _session(_instrumented(kind, seed), kind, runs, seed)
        looped = _session(_instrumented(kind, seed), kind, runs, seed)
        try:
            batched.evaluate_batch(configs, tags=tags, fidelity=fidelity)
        except BudgetExhausted:
            pass
        for config, tag in zip(configs, tags):
            try:
                looped.evaluate(config, tag=tag, fidelity=fidelity)
            except BudgetExhausted:
                break
        assert batched.history.digest() == looped.history.digest()
        assert batched.charged_runs == looped.charged_runs

    @given(
        drawn=batches(max_batches=6, max_size=5),
        runs=st.integers(min_value=1, max_value=5),
        calls=st.lists(
            st.tuples(st.booleans(), st.sampled_from(FIDELITIES)),
            min_size=6, max_size=6,
        ),
    )
    @settings(**_SETTINGS)
    def test_charged_runs_never_exceed_budget(self, drawn, runs, calls):
        kind, config_batches, _, seed = drawn
        space = make_system(kind).config_space
        chaos = ChaosSystem(
            _instrumented(kind, seed),
            [TransientFaults(0.3),
             ConfigBlackout(knobs=tuple(space.names()[:2]), threshold=0.6)],
            seed=seed,
        )
        session = _session(
            chaos, kind, runs, seed,
            execution=ExecutionPolicy(
                max_retries=2, backoff_base_s=0.1, breaker_threshold=2,
            ),
        )
        for configs, (one, fidelity) in zip(config_batches, calls):
            before = session.charged_runs
            try:
                if one:
                    session.evaluate(configs[0], fidelity=fidelity)
                else:
                    session.evaluate_batch(configs, fidelity=fidelity)
            except BudgetExhausted:
                # Refused proposals charge nothing.
                assert session.charged_runs == before
            assert session.charged_runs <= runs + 1e-9
