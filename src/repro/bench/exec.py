"""Execution-engine benchmark: serial vs parallel, with cache stats.

``python -m repro bench exec --json BENCH_exec.json`` runs the full
experiment suite twice — once serial, once fanned out over a
:class:`~repro.exec.runner.ParallelRunner` — verifies the regenerated
tables are identical, and records per-experiment wall-clock and
evaluation-cache hit rates.  The JSON artifact is the perf trajectory
the ROADMAP's "make a hot path measurably faster" mandate is tracked
against.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.bench.matrix import bench_jobs, make_report
from repro.exec.cache import global_cache, reset_global_cache

__all__ = ["run"]

COLUMNS = (
    "id", "rows", "serial_s", "parallel_s", "cache_hits", "cache_misses",
    "cache_hit_rate",
)


def _rows_digest(results) -> Dict[str, Any]:
    """Per-experiment (headers, rows) in a comparable form."""
    return {
        key: (tuple(res.headers), tuple(tuple(map(repr, row)) for row in res.rows))
        for key, res, _ in results
    }


def run(quick: bool = True, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Benchmark the execution engine over the experiment suite.

    Args:
        quick: run experiments in quick mode (the tracked configuration).
        jobs: parallel worker count (``None`` → ``REPRO_JOBS`` → 4).

    Returns:
        The report dict: per-experiment serial/parallel seconds and
        cache hits/misses, totals, and the parallel speedup.  Raises
        ``AssertionError`` if parallel execution regenerates different
        tables than serial execution — the engine's core invariant.
    """
    from repro.bench.run_all import run_all_experiments

    start = time.perf_counter()
    jobs = bench_jobs(jobs, default=4)
    cache_enabled = global_cache() is not None

    reset_global_cache()
    serial = run_all_experiments(quick=quick, jobs=1)
    serial_wall_s = time.perf_counter() - start
    serial_cache = global_cache().stats() if cache_enabled else None

    reset_global_cache()
    parallel_start = time.perf_counter()
    parallel = run_all_experiments(quick=quick, jobs=jobs)
    parallel_wall_s = time.perf_counter() - parallel_start

    serial_digest = _rows_digest(serial)
    parallel_digest = _rows_digest(parallel)
    identical = serial_digest == parallel_digest
    assert identical, (
        "parallel execution changed experiment tables: "
        + ", ".join(
            k for k in serial_digest
            if serial_digest.get(k) != parallel_digest.get(k)
        )
    )

    parallel_by_key = {key: (res, sec) for key, res, sec in parallel}
    experiments = []
    for key, res, serial_s in serial:
        p_res, p_s = parallel_by_key[key]
        cache_delta = res.raw.get("eval_cache", {})
        hits = cache_delta.get("hits", 0)
        misses = cache_delta.get("misses", 0)
        experiments.append({
            "id": key,
            "title": res.title,
            "rows": len(res.rows),
            "serial_s": round(serial_s, 4),
            "parallel_s": round(p_s, 4),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
        })

    return make_report(
        "exec-engine", quick, experiments, start,
        jobs=jobs,
        cache_enabled=cache_enabled,
        n_experiments=len(experiments),
        speedup=round(serial_wall_s / parallel_wall_s, 3)
        if parallel_wall_s > 0 else 0.0,
        tables_identical=identical,
        serial_cache=serial_cache,
    )
