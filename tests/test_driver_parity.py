"""Driver execution parity: every ask/tell tuner must observe the exact
same history — byte-identical digests — whether its proposals execute
serially, through a parallel runner, or through the evaluation cache,
and whether or not a transient chaos layer is injecting faults.

This is the acceptance contract of the SearchDriver refactor: batching,
caching, and fault injection are execution concerns the strategies never
see, so they cannot change what a search observes.
"""

import numpy as np
import pytest

from repro.bench.harness import standard_cluster
from repro.chaos import ChaosSystem
from repro.chaos.policies import TransientFaults
from repro.core import Budget, InstrumentedSystem
from repro.exec import EvaluationCache, ParallelRunner
from repro.obs.metrics import global_metrics
from repro.systems.dbms import DbmsSimulator, htap_mixed
from repro import make_tuner
from repro.tuners.ml.ottertune import build_repository

_BUDGET = Budget(max_runs=14)
_NOISE = 0.05
_TUNER_SEED = 7
_NOISE_SEED = 999
_CHAOS_SEED = 4242

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


# Every tuner family the driver refactor covers, sized so the whole
# matrix stays fast.  Factories are fresh per leg — strategy state must
# never leak across runs.
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

#: Tuners that propose one configuration at a time, so no batch of
#: theirs reaches the runner.
_UNBATCHED = {"default"}


def _tune_digest(name, runner=None, eval_cache=None, chaos_rate=0.0):
    # the DBMS kernel takes precedence over a runner in run_batch, so
    # the parallel leg turns it off to fan its batches out
    system = InstrumentedSystem(
        DbmsSimulator(standard_cluster()),
        noise=_NOISE,
        rng=np.random.default_rng(_NOISE_SEED),
        eval_cache=eval_cache,
        runner=runner,
        vectorize=runner is None,
    )
    fault_digest = None
    if chaos_rate > 0:
        system = ChaosSystem(
            system, [TransientFaults(rate=chaos_rate)], seed=_CHAOS_SEED
        )
    tuner = _SPECS[name]()
    result = tuner.tune(
        system, htap_mixed(0.3), _BUDGET,
        rng=np.random.default_rng(_TUNER_SEED),
    )
    if chaos_rate > 0:
        fault_digest = system.fault_digest()
    return result.history.digest(), result.n_real_runs, fault_digest


def _parallel_digest(name, chaos_rate=0.0):
    """``_tune_digest`` through a 4-thread runner, checking that the
    runner ran the batches."""
    before = global_metrics().value("exec.runner.tasks.thread")
    with ParallelRunner(jobs=4, mode="thread") as runner:
        outcome = _tune_digest(name, runner=runner, chaos_rate=chaos_rate)
    ran = global_metrics().value("exec.runner.tasks.thread") - before
    assert (ran > 0) == (name not in _UNBATCHED), ran
    return outcome


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_serial_parallel_cached_digests_identical(name):
    serial, runs, _ = _tune_digest(name)
    parallel, parallel_runs, _ = _parallel_digest(name)
    cached, cached_runs, _ = _tune_digest(name, eval_cache=EvaluationCache())

    assert runs > 0
    assert serial == parallel == cached
    assert runs == parallel_runs == cached_runs


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_chaos_digests_identical_serial_vs_parallel(name):
    serial, runs, serial_faults = _tune_digest(name, chaos_rate=0.1)
    parallel, parallel_runs, parallel_faults = _parallel_digest(
        name, chaos_rate=0.1
    )

    assert runs == parallel_runs
    assert serial == parallel
    assert serial_faults == parallel_faults
