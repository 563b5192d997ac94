"""The three tune workloads: one tuner on one system each.

Every session in a tune workload shares one tuner, system and budget, so
the median over sessions is taken over like units.  Session seeds come
from a fixed pool per workload; a run's ``--seed`` picks where in the
pool its window starts, so the digests of every session any run can make
are recorded once in ``digests.json``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class TuneSpec:
    """One tune workload.

    Attributes:
        system, workload: simulator and workload names (the CLI catalog's).
        tuner: registered tuner name; ``tuner_kwargs`` go to ``make_tuner``.
        budget: ``Budget.max_runs``.
        harness: ``plain`` (the bare simulator), ``batch`` (noisy
            ``InstrumentedSystem`` with an ``EvaluationCache``) or
            ``chaos`` (``ChaosSystem`` over a noisy ``InstrumentedSystem``
            under the bench-chaos execution policy).
        sessions_per_s: sessions one run makes per second of ``--seconds``;
            fixes the work of a run, sized from the session cost at the
            commit that added the benchmark.
        pool: number of distinct session seeds.
    """

    system: str
    workload: str
    tuner: str
    budget: int
    harness: str
    sessions_per_s: float
    pool: int
    tuner_kwargs: Dict[str, Any] = field(default_factory=dict)


TUNE_SPECS: Dict[str, TuneSpec] = {
    "tune-model": TuneSpec(
        system="dbms", workload="htap", tuner="ituned", budget=20,
        harness="plain", sessions_per_s=1.2, pool=20,
    ),
    "tune-batch": TuneSpec(
        system="spark", workload="join", tuner="genetic", budget=1000,
        harness="batch", sessions_per_s=2.0, pool=48,
        tuner_kwargs={"population": 64, "fidelity_rungs": 2,
                      "fidelity_min": 0.25},
    ),
    "tune-chaos": TuneSpec(
        system="dbms", workload="htap", tuner="rrs", budget=200,
        harness="chaos", sessions_per_s=8.0, pool=192,
    ),
}

#: Pool index of the untimed warm-up session (outside every run's window).
WARMUP = -1

#: Child processes a run's sessions are split over: each child's set-up
#: is one ``setup_s`` sample, and pooling sessions from several processes
#: evens out per-process luck (memory layout, allocator state).
PARTS = 3

#: Intensity of the chaos workload's standard fault mix.
CHAOS_INTENSITY = 0.3
#: Relative noise of the instrumented workloads' measurements.
NOISE = 0.05
#: bench-chaos's deadline: this multiple of the clean default runtime.
DEADLINE_FACTOR = 20.0


def session_seed(name: str, index: int) -> int:
    """Seed of pool entry ``index`` (``WARMUP`` for the warm-up)."""
    label = "warmup" if index == WARMUP else str(index)
    return zlib.crc32(f"perfbench/{name}/{label}".encode()) % (2**31)


def run_indices(name: str, seed: int, seconds: float) -> List[int]:
    """Pool indices of the sessions one run makes, in order.

    The count depends only on ``seconds`` (identical work on every
    commit); the window's start depends on ``seed``.
    """
    spec = TUNE_SPECS[name]
    count = max(PARTS, PARTS * math.ceil(seconds * spec.sessions_per_s / PARTS))
    start = zlib.crc32(f"perfbench/{name}/start/{seed}".encode()) % spec.pool
    return [(start + i) % spec.pool for i in range(count)]


def part_indices(indices: List[int], part: int) -> List[int]:
    """Sessions of child ``part`` (interleaved, so every child gets a
    similar mix)."""
    return indices[part::PARTS]


#: (system, workload) → the ``repro.workloads`` constructor call that the
#: CLI's catalog uses for it.  The tune workloads use two of them;
#: serve-mixed stores converged sessions of all of them and recommends
#: for them.
WORKLOADS = {
    ("dbms", "olap"): ("olap_analytics", ()),
    ("dbms", "oltp"): ("oltp_orders", ()),
    ("dbms", "htap"): ("htap_mixed", ()),
    ("spark", "sort"): ("spark_sort", (8.0,)),
    ("spark", "wordcount"): ("spark_wordcount", (8.0,)),
    ("spark", "join"): ("spark_sql_join", (6.0,)),
    ("hadoop", "wordcount"): ("wordcount", (8.0,)),
    ("hadoop", "terasort"): ("terasort", (8.0,)),
    ("hadoop", "join"): ("join", (8.0,)),
}

#: Workloads of the sessions serve-mixed ingests: new tenants, so the
#: index grows while recommends for ``WORKLOADS`` keep their answers.
INGEST_WORKLOADS = {
    ("dbms", "adhoc"): ("adhoc_query", (0,)),
    ("spark", "pagerank"): ("spark_pagerank", (3.0,)),
    ("spark", "kmeans"): ("spark_kmeans", (4.0,)),
    ("hadoop", "grep"): ("grep", (8.0,)),
    ("hadoop", "pagerank"): ("pagerank", (4.0,)),
}


def workload_object(system: str, workload: str) -> Any:
    import repro.workloads

    factory, args = {**WORKLOADS, **INGEST_WORKLOADS}[(system, workload)]
    return getattr(repro.workloads, factory)(*args)


@dataclass
class Session:
    """Everything one ``Tuner.tune`` call takes, built outside timing."""

    index: int
    tuner: Any
    target: Any
    workload: Any
    budget: Any
    rng: Any
    execution: Any
    chaos: Any = None

    def tune(self) -> Any:
        return self.tuner.tune(self.target, self.workload, self.budget,
                               rng=self.rng, execution=self.execution)


def build_session(name: str, index: int) -> Session:
    import numpy as np

    from repro.chaos import ChaosSystem, standard_policies
    from repro.core.registry import make_system, make_tuner
    from repro.core.system import InstrumentedSystem
    from repro.core.tuner import Budget
    from repro.exec.cache import EvaluationCache
    from repro.exec.resilience import ExecutionPolicy

    spec = TUNE_SPECS[name]
    seed = session_seed(name, index)
    simulator = make_system(spec.system)
    workload = workload_object(spec.system, spec.workload)
    execution, chaos = None, None
    if spec.harness == "plain":
        target = simulator
    elif spec.harness == "batch":
        target = InstrumentedSystem(
            simulator, noise=NOISE, rng=np.random.default_rng(seed),
            eval_cache=EvaluationCache(),
        )
    elif spec.harness == "chaos":
        baseline_s = simulator.run(
            workload, simulator.default_configuration()
        ).runtime_s
        chaos = ChaosSystem(
            InstrumentedSystem(simulator, noise=NOISE,
                               rng=np.random.default_rng(seed)),
            standard_policies(CHAOS_INTENSITY), seed=seed,
        )
        target = chaos
        execution = ExecutionPolicy(
            deadline_s=DEADLINE_FACTOR * baseline_s, max_retries=1,
            backoff_base_s=0.5, breaker_threshold=3,
            failure_policy="penalize",
        )
    else:
        raise ValueError(f"unknown harness {spec.harness!r}")
    return Session(
        index=index,
        tuner=make_tuner(spec.tuner, **spec.tuner_kwargs),
        target=target, workload=workload, budget=Budget(max_runs=spec.budget),
        rng=np.random.default_rng(seed), execution=execution, chaos=chaos,
    )


def plain_system(name: str) -> Any:
    """A fresh noiseless simulator for re-running recommendations."""
    from repro.core.registry import make_system

    return make_system(TUNE_SPECS[name].system)
