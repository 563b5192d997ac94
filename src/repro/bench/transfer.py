"""Transfer benchmark: cold-start vs knowledge-base warm-start tuning.

``python -m repro bench transfer --json BENCH_transfer.json`` measures
the headline claim of the knowledge base: a tuner seeded with mapped
prior sessions reaches a good configuration in fewer real experiments
than the same tuner starting cold.

Per (system, tuner) cell:

1. Build a fresh in-memory knowledge base and populate it by tuning
   two *prior* workloads of the system (seeded, budgeted sessions —
   the "other tenants").
2. Tune the *target* workload cold: same tuner, no prior.
3. Tune the target warm: ``warm_start=True`` with a
   :func:`~repro.kb.warmstart.warm_start_prior` built strictly from
   the other workloads' sessions.
4. Score **evaluations-to-threshold**: the threshold is within 5% of
   the cold run's final best; the metric is the 1-based real-run index
   at which each trajectory first meets it
   (:meth:`~repro.core.measurement.TuningHistory.incumbent_trajectory`).
   ``eval_savings`` is ``1 - warm/cold``.

Every cell is a pure function of its (system, tuner, quick) arguments —
seeds come from ``crc32``, simulators are deterministic, the KB lives
in memory — so run in a freshly spawned process it reproduces every
``COMPARE`` field (``tests/test_bench_matrix.py`` checks one cell).
The benchmark asserts that at least two cells achieve ≥30% evaluation
savings.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.core.registry import make_system
from repro.core.system import SystemUnderTune
from repro.core.tuner import Budget, Tuner, TuningResult
from repro.core.workload import Workload
from repro.kb import KnowledgeBase, warm_start_prior

__all__ = ["run", "run_cell", "TRANSFER_CELLS", "evals_to_threshold"]

#: The tuner × system matrix: every warm-start-capable offline tuner on
#: the DBMS simulator, plus the surrogate-model ones on Spark.
TRANSFER_CELLS: Tuple[Tuple[str, str], ...] = (
    ("dbms", "ituned"),
    ("dbms", "sard"),
    ("dbms", "bayesopt"),
    ("dbms", "ottertune"),
    ("spark", "ituned"),
    ("spark", "bayesopt"),
)

#: Within 5% of the cold run's final best counts as "converged".
_THRESHOLD_FACTOR = 1.05

#: Minimum evaluation savings and how many cells must achieve it.
_REQUIRED_SAVINGS = 0.30
_REQUIRED_CELLS = 2

#: Fields a cell must reproduce in any process (not wall-clock).
COMPARE = (
    "system", "tuner", "seed", "n_prior_observations", "cold_best_s",
    "warm_best_s", "cold_evals_to_threshold", "warm_evals_to_threshold",
    "eval_savings",
)

COLUMNS = (
    "system", "tuner", "cold_best_s", "warm_best_s",
    "cold_evals_to_threshold", "warm_evals_to_threshold", "eval_savings",
)


def _prior_and_target(system_name: str) -> Tuple[List[Workload], Workload]:
    from repro.workloads import (
        htap_mixed,
        olap_analytics,
        oltp_orders,
        spark_sort,
        spark_sql_join,
        spark_wordcount,
    )

    if system_name == "dbms":
        return [olap_analytics(), oltp_orders()], htap_mixed()
    if system_name == "spark":
        return [spark_wordcount(), spark_sql_join()], spark_sort()
    raise ValueError(f"no transfer scenario for system {system_name!r}")


def _populate_kb(
    kb: KnowledgeBase,
    system: SystemUnderTune,
    priors: Sequence[Workload],
    quick: bool,
    seed: int,
) -> None:
    """Tune each prior workload and ingest the session (the history
    that exists before the target session starts)."""
    from repro.tuners import ITunedTuner

    budget = Budget(max_runs=16 if quick else 30)
    for i, workload in enumerate(priors):
        tuner = ITunedTuner(n_init=6 if quick else 10)
        result = tuner.tune(
            system, workload, budget, rng=np.random.default_rng(seed + i)
        )
        kb.ingest_result(system, workload, result, seed=seed + i)


def _cell_tuners(
    name: str, kb: KnowledgeBase, system: SystemUnderTune, target: Workload,
    quick: bool,
) -> Tuple[Tuner, Tuner]:
    """(cold, warm) instances of one tuner — identical except for the
    warm-start flag, so the prior is the only difference measured."""
    from repro.tuners import (
        BayesOptTuner,
        ITunedTuner,
        OtterTuneRepository,
        OtterTuneTuner,
        SardTuner,
    )

    if name == "ituned":
        kwargs = {"n_init": 8 if quick else 10}
        return ITunedTuner(**kwargs), ITunedTuner(warm_start=True, **kwargs)
    if name == "sard":
        return SardTuner(), SardTuner(warm_start=True)
    if name == "bayesopt":
        kwargs = {"n_init": 6 if quick else 8}
        return (
            BayesOptTuner(**kwargs),
            BayesOptTuner(warm_start=True, **kwargs),
        )
    if name == "ottertune":
        # Both arms share the KB-backed repository (satellite history);
        # the warm arm additionally seeds from the transfer prior.
        repo = OtterTuneRepository.from_kb(
            kb, system, exclude_workloads=(target.name,)
        )
        kwargs = {"n_init": 5}
        return (
            OtterTuneTuner(repo, **kwargs),
            OtterTuneTuner(repo, warm_start=True, **kwargs),
        )
    raise ValueError(f"no transfer arm for tuner {name!r}")


def evals_to_threshold(
    result: TuningResult, threshold: float
) -> Optional[int]:
    """First real-run index whose incumbent meets ``threshold``."""
    for idx, best in result.history.incumbent_trajectory():
        if best <= threshold:
            return idx
    return None


def run_cell(system_name: str, tuner_name: str, quick: bool) -> Dict[str, Any]:
    """One self-contained (system, tuner) transfer scenario.

    Top-level and argument-picklable, so it can run in another process;
    crc32 seeds (not salted ``hash()``) are the same in every process.
    """
    seed = zlib.crc32(f"transfer/{system_name}/{tuner_name}".encode()) % (2**31)
    system = make_system(system_name)
    priors, target = _prior_and_target(system_name)

    with KnowledgeBase(":memory:") as kb:
        _populate_kb(kb, system, priors, quick, seed)
        prior = warm_start_prior(
            kb, system, target, exclude_workloads=(target.name,)
        )
        cold_tuner, warm_tuner = _cell_tuners(
            tuner_name, kb, system, target, quick
        )
        budget = Budget(max_runs=24 if quick else 40)
        start = time.perf_counter()
        cold = cold_tuner.tune(
            system, target, budget, rng=np.random.default_rng(seed)
        )
        warm = warm_tuner.tune(
            system, target, budget, rng=np.random.default_rng(seed),
            prior=prior,
        )
        wall_s = time.perf_counter() - start

    threshold = (
        cold.best_runtime_s * _THRESHOLD_FACTOR
        if math.isfinite(cold.best_runtime_s) else math.inf
    )
    cold_evals = evals_to_threshold(cold, threshold)
    warm_evals = evals_to_threshold(warm, threshold)
    savings = None
    if cold_evals and warm_evals:
        savings = round(1.0 - warm_evals / cold_evals, 4)
    return {
        "system": system_name,
        "tuner": tuner_name,
        "seed": seed,
        "prior_workloads": [w.name for w in priors],
        "target_workload": target.name,
        "n_prior_observations": len(prior),
        "matched_workloads": prior.summary()["matched_workloads"],
        "cold_best_s": cold.best_runtime_s,
        "warm_best_s": warm.best_runtime_s,
        "threshold_s": threshold,
        "cold_evals_to_threshold": cold_evals,
        "warm_evals_to_threshold": warm_evals,
        "eval_savings": savings,
        "cold_runs": cold.n_real_runs,
        "warm_runs": warm.n_real_runs,
        "warm_reached_threshold": warm_evals is not None,
        "wall_s": round(wall_s, 3),
    }


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the cold-vs-warm matrix.

    Args:
        quick: reduced budgets (the CI setting).

    Returns:
        The report dict, one entry per cell.  Raises ``AssertionError``
        if fewer than two cells achieve ≥30% evaluation savings.
    """
    start = time.perf_counter()
    results = [
        run_cell(system, tuner, quick) for system, tuner in TRANSFER_CELLS
    ]

    winners = [
        c for c in results
        if c["eval_savings"] is not None
        and c["eval_savings"] >= _REQUIRED_SAVINGS
    ]
    assert len(winners) >= _REQUIRED_CELLS, (
        f"warm start reached the 5% threshold with >={_REQUIRED_SAVINGS:.0%} "
        f"fewer evaluations in only {len(winners)} cell(s); "
        f"need {_REQUIRED_CELLS}. Cells: "
        + ", ".join(
            f"{c['system']}/{c['tuner']}={c['eval_savings']}" for c in results
        )
    )

    return make_report(
        "transfer", quick, results, start,
        threshold_factor=_THRESHOLD_FACTOR,
        required_savings=_REQUIRED_SAVINGS,
        n_cells_meeting_savings=len(winners),
    )
