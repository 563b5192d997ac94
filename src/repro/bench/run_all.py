"""Run every experiment and assemble one report.

``python -m repro experiment all [--quick] [--jobs N]`` and
documentation regeneration both route through
:func:`run_all_experiments`.  Experiments are independent — each seeds
its own RNGs — so they fan out across a
:class:`~repro.exec.runner.ParallelRunner` process pool; parallel and
serial execution produce identical tables, in the caller's requested
order, regardless of completion order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.ablation import run_ituned_ablation, run_ottertune_ablation
from repro.bench.adhoc import run_adhoc
from repro.bench.cloud import run_cloud
from repro.bench.convergence import run_convergence
from repro.bench.hadoop_vs_dbms import run_hadoop_vs_dbms
from repro.bench.harness import ExperimentResult
from repro.bench.heterogeneity import run_heterogeneity
from repro.bench.interactions import run_interactions
from repro.bench.misconfig import run_misconfig
from repro.bench.noise import run_noise_robustness
from repro.bench.ranking import run_ranking
from repro.bench.realtime import run_realtime
from repro.bench.spark_significance import run_spark_significance
from repro.bench.table1 import run_table1
from repro.bench.timebudget import run_time_budget
from repro.bench.table2 import run_table2
from repro.bench.whatif import run_whatif
from repro.exec.cache import global_cache
from repro.exec.runner import ParallelRunner

__all__ = ["EXPERIMENT_REGISTRY", "run_all_experiments", "full_report"]

#: id -> runner; all runners accept ``quick`` (and most ``seed``).
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": run_table1,
    "E2": run_table2,
    "E3": run_misconfig,
    "E4": run_hadoop_vs_dbms,
    "E5": run_spark_significance,
    "E6": run_convergence,
    "E7": run_heterogeneity,
    "E8": run_adhoc,
    "E9": run_ranking,
    "E10": run_whatif,
    "E11": run_cloud,
    "E12": run_ituned_ablation,
    "E13": run_ottertune_ablation,
    "E14": run_noise_robustness,
    "E15": run_realtime,
    "E16": run_interactions,
    "E17": run_time_budget,
}


def _execute_experiment(task: Tuple[str, bool]) -> Tuple[str, ExperimentResult, float]:
    """Run one experiment (top-level so process pools can pickle it).

    Stashes the evaluation-cache hit/miss delta for this experiment in
    ``result.raw["eval_cache"]`` — in a worker process this is the only
    channel through which cache statistics travel back to the parent.
    """
    key, quick = task
    cache = global_cache()
    before = cache.stats() if cache is not None else None
    start = time.perf_counter()
    result = EXPERIMENT_REGISTRY[key](quick=quick)
    elapsed = time.perf_counter() - start
    if cache is not None:
        after = cache.stats()
        result.raw["eval_cache"] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        }
    return key, result, elapsed


def run_all_experiments(
    quick: bool = False,
    only: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
) -> List[Tuple[str, ExperimentResult, float]]:
    """Run (a subset of) the experiments; returns (id, result, seconds).

    Args:
        quick: pass ``quick=True`` to every experiment runner.
        only: experiment ids to run, honored *in the order given*
            (duplicates collapse to the first occurrence; unknown ids
            are ignored, as before).
        jobs: worker count for a fresh :class:`ParallelRunner`
            (``None`` → ``REPRO_JOBS`` → serial).
        runner: an existing runner to fan out on; overrides ``jobs``.

    The returned list is always in the requested order — registry order
    by default, ``only`` order otherwise — independent of how workers
    finish.
    """
    if only is not None:
        keys, seen = [], set()
        for key in only:
            if key in EXPERIMENT_REGISTRY and key not in seen:
                seen.add(key)
                keys.append(key)
    else:
        keys = list(EXPERIMENT_REGISTRY)
    if not keys:
        return []
    tasks = [(key, quick) for key in keys]
    own_runner = runner is None
    runner = runner or ParallelRunner(jobs=jobs)
    try:
        if runner.jobs <= 1:
            return [_execute_experiment(task) for task in tasks]
        return runner.map(_execute_experiment, tasks)
    finally:
        if own_runner:
            runner.close()


def full_report(quick: bool = False, jobs: Optional[int] = None) -> str:
    """All regenerated tables as one text document."""
    parts = ["# Regenerated experiment tables\n"]
    for key, result, elapsed in run_all_experiments(quick=quick, jobs=jobs):
        parts.append(result.to_text())
        parts.append(f"  ({elapsed:.1f}s)\n")
    return "\n".join(parts)
