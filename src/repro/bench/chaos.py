"""Chaos benchmark: tuner robustness under injected faults.

``python -m repro bench chaos --json BENCH_chaos.json`` runs one
representative tuner per taxonomy category on the DBMS and Spark
simulators wrapped in a :class:`~repro.chaos.ChaosSystem`, at fault
intensities {0, 10%, 30%}, under a resilient
:class:`~repro.exec.resilience.ExecutionPolicy` (deadline, one
budget-charged retry, circuit breaker).  Per (system, tuner, intensity)
cell it records:

* **crash-free completion** — no exception escaped ``tune()``;
* **regret inflation** — best runtime at this intensity divided by the
  best runtime the same tuner found on the clean system;
* **wasted-budget fraction** — share of runs / charged wall-clock spent
  on failures, hangs, retries, and quarantine skips.

Every cell is a self-contained seeded scenario: run in a freshly
spawned process, it injects the same faults and finds the same results
(``tests/test_bench_matrix.py`` checks one cell's ``COMPARE`` fields).
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.chaos import ChaosSystem, standard_policies
from repro.core.registry import make_system
from repro.core.tuner import Budget, Tuner
from repro.core.workload import Workload
from repro.bench.matrix import make_report
from repro.exec.resilience import ExecutionPolicy

__all__ = ["run", "run_cell", "CHAOS_CATEGORIES", "CHAOS_INTENSITIES"]

#: The six taxonomy categories, each mapped to one representative tuner.
CHAOS_CATEGORIES = (
    "rule-based",
    "cost-modeling",
    "simulation-based",
    "experiment-driven",
    "machine-learning",
    "adaptive",
)

CHAOS_INTENSITIES = (0.0, 0.1, 0.3)

CHAOS_SYSTEMS = ("dbms", "spark")

#: Fields a cell must reproduce in any process (not wall-clock).
COMPARE = (
    "system", "category", "intensity", "crash_free", "best_runtime_s",
    "n_real_runs", "fault_digest", "fault_counts",
)

COLUMNS = (
    "system", "tuner", "intensity", "best_runtime_s", "regret_inflation",
    "wasted_time_fraction",
)

#: Deadline multiple of the clean default runtime; generous enough that
#: only hangs (infinite runtime) and extreme stragglers are killed.
_DEADLINE_FACTOR = 20.0


def _cell_workload(system_name: str) -> Workload:
    from repro.workloads import htap_mixed, spark_sort

    return htap_mixed() if system_name == "dbms" else spark_sort()


def _cell_tuner(category: str, system, quick: bool, seed: int) -> Tuner:
    """Build the representative tuner for one category.

    The OtterTune repository is sampled from the *clean* system —
    historical tenant data predates the faults — and is seeded, so every
    process constructs the identical repository.
    """
    from repro.tuners import (
        ColtOnlineTuner,
        CostModelTuner,
        ITunedTuner,
        OtterTuneTuner,
        RuleBasedTuner,
        TraceSimulationTuner,
        build_repository,
    )

    if category == "rule-based":
        return RuleBasedTuner()
    if category == "cost-modeling":
        return CostModelTuner(n_model_samples=150 if quick else 2000)
    if category == "simulation-based":
        return TraceSimulationTuner(n_model_samples=150 if quick else 1500)
    if category == "experiment-driven":
        return ITunedTuner(n_init=5 if quick else 10)
    if category == "machine-learning":
        from repro.workloads import olap_analytics, spark_wordcount

        repo_workloads = (
            [olap_analytics()] if system.kind == "dbms" else [spark_wordcount()]
        )
        repo = build_repository(
            system, repo_workloads,
            n_samples=10 if quick else 25,
            rng=np.random.default_rng(seed),
        )
        return OtterTuneTuner(repo, n_init=4 if quick else 5)
    if category == "adaptive":
        return ColtOnlineTuner()
    raise ValueError(f"unknown category: {category}")


def run_cell(
    system_name: str, category: str, intensity: float, quick: bool
) -> Dict[str, Any]:
    """One fully self-contained (system, tuner, intensity) scenario.

    Top-level and argument-picklable, so it can run in another process;
    everything inside is derived from the arguments, so every process
    computes the identical cell.
    """
    # crc32, not hash(): builtin str hashing is salted per process, and
    # every process must derive the same seeds.
    seed = zlib.crc32(f"{system_name}/{category}".encode()) % (2**31)
    system = make_system(system_name)
    workload = _cell_workload(system_name)
    default = system.default_configuration()
    baseline_s = system.run(workload, default).runtime_s

    tuner = _cell_tuner(category, system, quick, seed)
    chaos = ChaosSystem(
        system,
        standard_policies(intensity),
        seed=seed + int(round(intensity * 100)),
    )
    policy = ExecutionPolicy(
        deadline_s=_DEADLINE_FACTOR * baseline_s,
        max_retries=1,
        backoff_base_s=0.5,
        breaker_threshold=3,
        failure_policy="penalize",
    )
    budget = Budget(max_runs=12 if quick else 30)

    cell: Dict[str, Any] = {
        "system": system_name,
        "category": category,
        "tuner": tuner.name,
        "intensity": intensity,
        "baseline_s": round(baseline_s, 4),
    }
    start = time.perf_counter()
    try:
        result = tuner.tune(
            chaos, workload, budget, rng=np.random.default_rng(seed),
            execution=policy,
        )
    except Exception as exc:  # noqa: BLE001 — crash-free is the metric
        cell.update({
            "crash_free": False,
            "error": f"{type(exc).__name__}: {exc}",
            "best_runtime_s": math.inf,
            "n_real_runs": None,
            "resilience": None,
        })
    else:
        resilience = result.extras.get("resilience", {})
        cell.update({
            "crash_free": True,
            "error": None,
            "best_runtime_s": result.best_runtime_s,
            "n_real_runs": result.n_real_runs,
            "budget_respected": result.n_real_runs <= budget.max_runs,
            "wasted_run_fraction": resilience.get("wasted_run_fraction"),
            "wasted_time_fraction": resilience.get("wasted_time_fraction"),
            "resilience": resilience,
        })
    cell["wall_s"] = round(time.perf_counter() - start, 3)
    cell["fault_counts"] = dict(chaos.fault_counts)
    cell["injected_failures"] = chaos.injected_failures
    cell["fault_digest"] = chaos.fault_digest()
    return cell


def _attach_regret(cells: List[Dict[str, Any]]) -> None:
    """Regret inflation: best runtime vs the same tuner's clean best."""
    clean: Dict[Tuple[str, str], float] = {
        (c["system"], c["category"]): c["best_runtime_s"]
        for c in cells if c["intensity"] == 0.0
    }
    for c in cells:
        base = clean.get((c["system"], c["category"]), math.inf)
        best = c["best_runtime_s"]
        if math.isfinite(base) and base > 0 and math.isfinite(best):
            c["regret_inflation"] = round(best / base, 4)
        else:
            c["regret_inflation"] = None



def run(quick: bool = True) -> Dict[str, Any]:
    """Run the tuner-robustness matrix.

    Args:
        quick: reduced budgets / model sample counts (the CI setting).

    Returns:
        The report dict with one entry per (system, tuner, intensity)
        cell.  Raises ``AssertionError`` if any cell crashed or if any
        tuner overran its run budget.
    """
    start = time.perf_counter()
    cells = [
        run_cell(system, category, intensity, quick)
        for system in CHAOS_SYSTEMS
        for category in CHAOS_CATEGORIES
        for intensity in CHAOS_INTENSITIES
    ]

    _attach_regret(cells)
    crashed = [
        f"{c['system']}/{c['tuner']}@{c['intensity']}: {c['error']}"
        for c in cells if not c["crash_free"]
    ]
    assert not crashed, "tuners crashed under chaos: " + "; ".join(crashed)
    overran = [
        f"{c['system']}/{c['tuner']}@{c['intensity']}"
        for c in cells if not c.get("budget_respected", True)
    ]
    assert not overran, "tuners overran their budget: " + ", ".join(overran)

    return make_report(
        "chaos", quick, cells, start,
        systems=list(CHAOS_SYSTEMS),
        intensities=list(CHAOS_INTENSITIES),
        all_crash_free=True,
    )
