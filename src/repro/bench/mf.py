"""Multi-fidelity benchmark: successive-halving screening vs full price.

``python -m repro bench mf --json BENCH_mf.json`` measures the headline
claim of the fidelity axis (ROADMAP item 3, MFTune-grounded): a search
tuner that screens its ask batches on cheap low-fidelity runs reaches a
good configuration for *less charged budget* than the same tuner paying
full price for every probe.

Per (system, tuner) cell, over several seeds with identical budgets:

1. Tune the workload single-fidelity (the tuner exactly as registered).
2. Tune it multi-fidelity: same tuner built with the rung settings,
   which turn screening on, so the
   :class:`~repro.core.driver.PromotionScheduler` screens each
   generation through successive-halving rungs.
3. Score **charged-budget-to-threshold**: per seed, the threshold is
   within 5% of that seed's single-fidelity final best; the metric is
   the fidelity-weighted charge (:meth:`~repro.core.measurement
   .TuningHistory.charged_trajectory`) at which each arm's incumbent
   first meets it (arms that never do are charged the full budget).
   ``charged_savings`` is ``1 - mean(mf)/mean(sf)`` across the seeds.

Every cell is a pure function of its (system, tuner, quick) arguments —
seeds come from ``crc32``, simulators are deterministic — so run in a
freshly spawned process it reproduces every ``COMPARE`` field,
including each arm's ``TuningHistory.digest()``
(``tests/test_bench_matrix.py`` checks one cell).  The benchmark
asserts that at least four cells achieve ≥30% charged-budget
savings while landing within the 5% threshold.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.core.registry import make_system, make_tuner
from repro.core.tuner import Budget, TuningResult
from repro.core.workload import Workload

__all__ = ["run", "run_cell", "MF_CELLS", "charged_to_threshold"]

#: The tuner × system matrix: the two population-based strategies whose
#: whole-generation asks are the natural screening unit, across all
#: three simulators.
MF_CELLS: Tuple[Tuple[str, str], ...] = (
    ("dbms", "cem"),
    ("dbms", "genetic"),
    ("spark", "cem"),
    ("spark", "genetic"),
    ("hadoop", "cem"),
    ("hadoop", "genetic"),
)

#: Within 5% of the single-fidelity run's final best counts as "good".
_THRESHOLD_FACTOR = 1.05

#: Minimum charged-budget savings and how many cells must achieve it.
_REQUIRED_SAVINGS = 0.30
_REQUIRED_CELLS = 4

#: Seeds per cell: charged-to-threshold on one seed is dominated by
#: sampling luck; averaging a handful is what makes the ≥30% assert
#: stable (the whole matrix is still deterministic end to end).
_SEEDS_PER_CELL = 5

#: Aggressive screening won the schedule sweep: probe the whole
#: generation at 10% fidelity, promote only its best survivor to a
#: full-price run.  Shallower ladders (25%/50% rungs, eta=2) spend too
#: much on screening to clear the 30% savings bar on these simulators.
_FIDELITY_OPTS = {
    "fidelity_rungs": 2,
    "fidelity_min": 0.1,
    "fidelity_eta": 8.0,
}

#: Fields a cell must reproduce in any process (not wall-clock).
COMPARE = (
    "system", "tuner", "seed", "sf_best_s", "mf_best_s",
    "sf_charged_to_threshold", "mf_charged_to_threshold", "charged_savings",
    "sf_digest", "mf_digest",
)

COLUMNS = (
    "system", "tuner", "sf_best_s", "mf_best_s", "sf_charged_to_threshold",
    "mf_charged_to_threshold", "charged_savings", "mf_within_threshold",
)


def _target(system_name: str) -> Workload:
    from repro.workloads import htap_mixed, spark_sort, terasort

    if system_name == "dbms":
        return htap_mixed()
    if system_name == "spark":
        return spark_sort()
    if system_name == "hadoop":
        return terasort()
    raise ValueError(f"no multi-fidelity scenario for {system_name!r}")


def _tuner_kwargs(tuner_name: str) -> Dict[str, Any]:
    if tuner_name == "cem":
        return {"batch": 8}
    if tuner_name == "genetic":
        return {"population": 8, "elite": 2}
    raise ValueError(f"no multi-fidelity arm for tuner {tuner_name!r}")


def charged_to_threshold(
    result: TuningResult, threshold: float
) -> Optional[float]:
    """Charged budget at which the incumbent first meets ``threshold``.

    Fidelity-weighted: a 10% screening run advances the charge axis by
    0.1.  For a single-fidelity history this is exactly the 1-based
    real-run index.
    """
    for charged, best in result.history.charged_trajectory():
        if best <= threshold:
            return round(charged, 4)
    return None


def run_cell(system_name: str, tuner_name: str, quick: bool) -> Dict[str, Any]:
    """One self-contained (system, tuner) multi-fidelity scenario.

    Top-level and argument-picklable, so it can run in another process;
    crc32 seeds (not salted ``hash()``) are the same in every process.
    """
    base_seed = zlib.crc32(f"mf/{system_name}/{tuner_name}".encode()) % (2**31)
    workload = _target(system_name)
    budget = Budget(max_runs=28 if quick else 40)
    kwargs = _tuner_kwargs(tuner_name)

    sf_charges: List[float] = []
    mf_charges: List[float] = []
    sf_bests: List[float] = []
    mf_bests: List[float] = []
    sf_digests: List[str] = []
    mf_digests: List[str] = []
    mf_reached = 0
    sf_wall_s = mf_wall_s = 0.0
    rung_evals = full_evals = screened_asks = 0
    charged_runs = 0.0
    ladder: List[float] = []
    for offset in range(_SEEDS_PER_CELL):
        seed = base_seed + offset
        system = make_system(system_name)

        start = time.perf_counter()
        sf = make_tuner(tuner_name, **kwargs).tune(
            system, workload, budget, rng=np.random.default_rng(seed)
        )
        sf_wall_s += time.perf_counter() - start

        start = time.perf_counter()
        mf = make_tuner(tuner_name, **kwargs, **_FIDELITY_OPTS).tune(
            system, workload, budget, rng=np.random.default_rng(seed)
        )
        mf_wall_s += time.perf_counter() - start

        threshold = (
            sf.best_runtime_s * _THRESHOLD_FACTOR
            if math.isfinite(sf.best_runtime_s) else math.inf
        )
        sf_charged = charged_to_threshold(sf, threshold)
        mf_charged = charged_to_threshold(mf, threshold)
        if mf_charged is not None:
            mf_reached += 1
        # An arm that never meets the threshold is charged the full
        # budget, so "never got there" costs exactly what it spent.
        sf_charges.append(sf_charged if sf_charged else float(budget.max_runs))
        mf_charges.append(mf_charged if mf_charged else float(budget.max_runs))
        sf_bests.append(sf.best_runtime_s)
        mf_bests.append(mf.best_runtime_s)
        sf_digests.append(sf.history.digest())
        mf_digests.append(mf.history.digest())
        mf_summary = mf.extras.get("multi_fidelity", {})
        rung_evals += mf_summary.get("rung_evals", 0)
        full_evals += mf_summary.get("full_evals", 0)
        screened_asks += mf_summary.get("screened_asks", 0)
        charged_runs += mf.extras["resilience"]["charged_runs"]
        ladder = mf_summary.get("ladder", ladder)

    n = float(_SEEDS_PER_CELL)
    sf_mean = sum(sf_charges) / n
    mf_mean = sum(mf_charges) / n
    savings = round(1.0 - mf_mean / sf_mean, 4) if sf_mean > 0 else None
    return {
        "system": system_name,
        "tuner": tuner_name,
        "seed": base_seed,
        "n_seeds": _SEEDS_PER_CELL,
        "workload": workload.name,
        "budget_runs": budget.max_runs,
        "sf_best_s": round(sum(sf_bests) / n, 6),
        "mf_best_s": round(sum(mf_bests) / n, 6),
        "sf_charged_to_threshold": round(sf_mean, 4),
        "mf_charged_to_threshold": round(mf_mean, 4),
        "charged_savings": savings,
        "mf_within_threshold": mf_reached * 2 >= _SEEDS_PER_CELL,
        "mf_seeds_reaching_threshold": mf_reached,
        "mf_charged_runs": round(charged_runs / n, 4),
        "mf_rung_evals": rung_evals,
        "mf_full_evals": full_evals,
        "mf_screened_asks": screened_asks,
        "fidelity_ladder": ladder,
        "sf_digest": sf_digests,
        "mf_digest": mf_digests,
        "sf_wall_s": round(sf_wall_s, 3),
        "mf_wall_s": round(mf_wall_s, 3),
    }


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the single-vs-multi-fidelity matrix.

    Args:
        quick: reduced budgets (the CI setting).

    Returns:
        The report dict, one entry per cell.  Raises ``AssertionError``
        if fewer than four cells achieve ≥30% charged-budget savings at
        the 5% threshold.
    """
    start = time.perf_counter()
    results = [run_cell(system, tuner, quick) for system, tuner in MF_CELLS]

    winners = [
        c for c in results
        if c["mf_within_threshold"]
        and c["charged_savings"] is not None
        and c["charged_savings"] >= _REQUIRED_SAVINGS
    ]
    assert len(winners) >= _REQUIRED_CELLS, (
        "multi-fidelity reached the 5% threshold with "
        f">={_REQUIRED_SAVINGS:.0%} less charged budget in only "
        f"{len(winners)} cell(s); need {_REQUIRED_CELLS}. Cells: "
        + ", ".join(
            f"{c['system']}/{c['tuner']}={c['charged_savings']}"
            for c in results
        )
    )

    return make_report(
        "mf", quick, results, start,
        threshold_factor=_THRESHOLD_FACTOR,
        required_savings=_REQUIRED_SAVINGS,
        fidelity_opts=dict(_FIDELITY_OPTS),
        n_cells_meeting_savings=len(winners),
    )
