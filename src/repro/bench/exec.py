"""Execution-engine benchmark: per-experiment wall-clock and cache stats.

``python -m repro bench exec --json BENCH_exec.json`` runs the full
experiment suite once, serially, from a cold evaluation cache, and
records per-experiment wall-clock and evaluation-cache hit rates.
That serial and parallel runs regenerate identical tables is a tier-1
test (``tests/test_exec_engine.py``), not this bench's job.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.bench.matrix import make_report
from repro.exec.cache import global_cache, reset_global_cache

__all__ = ["run"]

COLUMNS = (
    "id", "rows", "serial_s", "cache_hits", "cache_misses", "cache_hit_rate",
)


def run(quick: bool = True) -> Dict[str, Any]:
    """Benchmark the execution engine over the experiment suite.

    Args:
        quick: run experiments in quick mode (the tracked configuration).

    Returns:
        The report dict: per-experiment seconds and cache hits/misses,
        plus the whole suite's cache stats.
    """
    from repro.bench.run_all import run_all_experiments

    start = time.perf_counter()
    cache_enabled = global_cache() is not None

    reset_global_cache()
    results = run_all_experiments(quick=quick, jobs=1)
    serial_cache = global_cache().stats() if cache_enabled else None

    experiments = []
    for key, res, serial_s in results:
        cache_delta = res.raw.get("eval_cache", {})
        hits = cache_delta.get("hits", 0)
        misses = cache_delta.get("misses", 0)
        experiments.append({
            "id": key,
            "title": res.title,
            "rows": len(res.rows),
            "serial_s": round(serial_s, 4),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0,
        })

    return make_report(
        "exec-engine", quick, experiments, start,
        cache_enabled=cache_enabled,
        n_experiments=len(experiments),
        serial_cache=serial_cache,
    )
