"""Vectorized evaluation benchmark: batch kernels vs the scalar loop.

``python -m repro bench-vec --json BENCH_vec.json`` measures the
headline payoff of the vectorized batch fast path: each simulator's
``run_batch_vectorized`` evaluates a whole candidate batch as one numpy
computation, so batch-heavy tuners (CEM, genetic, and friends asking
dozens of candidates per generation) stop paying the Python-level
cost-model interpreter once per configuration.

Each cell is one (system, batch tuner) pair run four times with
identical seeds: scalar and vectorized, noiseless and noisy.  Candidate
throughput (configurations evaluated per second of time spent inside
the system) is compared scalar-vs-vectorized on the noiseless pair, and
the report asserts that the scalar and vectorized
:meth:`~repro.core.measurement.TuningHistory.digest` values match under
*both* noise settings — the fast path must be invisible to the search.

The workloads are densified (replicated query/job templates) so the
scalar path's per-configuration cost resembles a realistic multi-query
analytics mix rather than a micro-benchmark floor.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.system import InstrumentedSystem
from repro.core.tuner import Budget
from repro.core.workload import Workload

__all__ = ["run_vec_benchmark", "VEC_BENCH_SYSTEMS", "VEC_BENCH_TUNERS"]

VEC_BENCH_SYSTEMS = ("dbms", "spark", "hadoop")
VEC_BENCH_TUNERS = ("cem", "genetic")


class _TimedSystem(InstrumentedSystem):
    """InstrumentedSystem that times evaluation wall-clock.

    Only outermost entries accumulate (``run_batch`` may replay through
    ``run``), so ``eval_wall_s`` is exactly the time spent inside the
    system regardless of path.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eval_wall_s = 0.0
        self._depth = 0

    def run(self, workload, config):
        self._depth += 1
        start = time.perf_counter()
        try:
            return super().run(workload, config)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.eval_wall_s += time.perf_counter() - start

    def run_batch(self, workload, configs):
        self._depth += 1
        start = time.perf_counter()
        try:
            return super().run_batch(workload, configs)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.eval_wall_s += time.perf_counter() - start


def _dense_dbms(density: int) -> Workload:
    from repro.systems.dbms.query import DbmsWorkload
    from repro.systems.dbms.workloads import htap_mixed

    base = htap_mixed()
    queries = [
        replace(q, name=f"{q.name}#{r}")
        for r in range(density)
        for q in base.queries
    ]
    return DbmsWorkload(
        name="htap-dense",
        tables=list(base.tables.values()),
        queries=queries,
        transactions=base.transactions,
        n_transactions=base.n_transactions,
        query_rounds=base.query_rounds,
        sessions=base.sessions,
    )


def _dense_spark(density: int) -> Workload:
    from repro.systems.spark.dag import SparkWorkload
    from repro.systems.spark.workloads import spark_sql_join

    base = spark_sql_join()
    return SparkWorkload("sqljoin-dense", base.jobs * density)


def _dense_hadoop(density: int) -> Workload:
    from repro.systems.hadoop.job import HadoopWorkload
    from repro.systems.hadoop.workloads import terasort

    base = terasort()
    return HadoopWorkload("terasort-dense", base.jobs * density)


_WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "dbms": _dense_dbms,
    "spark": _dense_spark,
    "hadoop": _dense_hadoop,
}


def _tuner_specs(batch: int) -> List[Tuple[str, Callable[[], Any]]]:
    from repro.tuners import CrossEntropyTuner, GeneticTuner

    return [
        ("cem", lambda: CrossEntropyTuner(batch=batch)),
        ("genetic", lambda: GeneticTuner(population=batch, elite=max(2, batch // 12))),
    ]


def _run_leg(
    system_kind: str,
    workload: Workload,
    factory: Callable[[], Any],
    max_runs: int,
    vectorize: bool,
    noise: float,
) -> Tuple[str, int, float]:
    """One fully seeded tuning session; returns (digest, runs, eval_s)."""
    from repro import make_system

    system = _TimedSystem(
        make_system(system_kind),
        noise=noise,
        rng=np.random.default_rng(7) if noise > 0 else None,
        vectorize=vectorize,
    )
    tuner = factory()
    result = tuner.tune(
        system, workload, Budget(max_runs=max_runs),
        rng=np.random.default_rng(42),
    )
    return result.history.digest(), result.n_real_runs, system.eval_wall_s


def run_vec_benchmark(
    quick: bool = True,
    json_path: Optional[str] = None,
    systems: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Measure scalar vs vectorized candidate throughput per cell.

    Args:
        quick: smaller batches/budgets (the CI setting).
        json_path: when given, the report is also written there.
        systems: subset of :data:`VEC_BENCH_SYSTEMS` to run.

    Returns:
        Report dict with one cell per (system, tuner).  Raises
        ``AssertionError`` if any vectorized history digest differs
        from its scalar one, noiseless or noisy.
    """
    batch = 256 if quick else 384
    max_runs = batch * 3
    density = 10 if quick else 12
    kinds = list(systems) if systems is not None else list(VEC_BENCH_SYSTEMS)
    cells: List[Dict[str, Any]] = []
    for kind in kinds:
        workload = _WORKLOADS[kind](density)
        for tuner_name, factory in _tuner_specs(batch):
            digest_s, runs_s, eval_s = _run_leg(
                kind, workload, factory, max_runs, vectorize=False, noise=0.0
            )
            digest_v, runs_v, eval_v = _run_leg(
                kind, workload, factory, max_runs, vectorize=True, noise=0.0
            )
            assert digest_s == digest_v, (
                f"{kind}/{tuner_name}: vectorized history diverged from "
                f"scalar ({digest_v} != {digest_s})"
            )
            assert runs_s == runs_v
            noisy_s, _, _ = _run_leg(
                kind, workload, factory, max_runs, vectorize=False, noise=0.05
            )
            noisy_v, _, _ = _run_leg(
                kind, workload, factory, max_runs, vectorize=True, noise=0.05
            )
            assert noisy_s == noisy_v, (
                f"{kind}/{tuner_name}: vectorized noisy history diverged "
                f"from scalar ({noisy_v} != {noisy_s})"
            )
            tp_scalar = runs_s / eval_s if eval_s > 0 else float("inf")
            tp_vec = runs_v / eval_v if eval_v > 0 else float("inf")
            cells.append({
                "system": kind,
                "tuner": tuner_name,
                "n_real_runs": runs_s,
                "digest": digest_s,
                "digests_identical": True,
                "noisy_digests_identical": True,
                "scalar_eval_s": round(eval_s, 4),
                "vectorized_eval_s": round(eval_v, 4),
                "scalar_throughput": round(tp_scalar, 1),
                "vectorized_throughput": round(tp_vec, 1),
                "speedup": round(tp_vec / tp_scalar, 2),
            })
    speedups = [c["speedup"] for c in cells]
    report: Dict[str, Any] = {
        "benchmark": "vec",
        "quick": quick,
        "batch": batch,
        "max_runs": max_runs,
        "density": density,
        "n_cells": len(cells),
        "n_cells_at_10x": sum(1 for s in speedups if s >= 10.0),
        "median_speedup": round(float(np.median(speedups)), 2)
        if speedups else None,
        "cells": cells,
    }
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
    return report
