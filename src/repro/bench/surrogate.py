"""Surrogate-serving benchmark: zero-probe recommendations vs similarity.

``python -m repro bench surrogate --json BENCH_surrogate.json`` measures
the headline claim of the surrogate subsystem: once the knowledge base
has seen a workload family, a learned per-family model recommends a
better configuration than replaying the most similar stored session's
best — and does it with **zero live probe runs** (a contract
``tests/test_surrogate.py`` pins by making every simulator entry point
raise while the service answers).

Per (system, family) cell:

1. Populate a fresh in-memory KB with well-explored LHS sessions for
   two sibling scale variants of the family (e.g. ``wordcount-6g`` and
   ``wordcount-12g``) and one *thin* session for the target variant
   (``wordcount-8g``, a handful of runs) — the classic serving
   scenario: the family is well known, the target workload itself was
   only lightly explored.  Each session opens with a default-config run
   so ingest recovers its fingerprint without probing.
2. Ask the real :class:`~repro.kb.service.RecommendationService` (the
   exact code path behind ``POST /recommend``) for the target workload,
   once in ``similarity`` mode and once in ``surrogate`` mode.
3. Evaluate both recommended configurations for real, plus a cold
   ``bayesopt`` tuning run (the "no KB at all" reference arm) and an
   oracle pool (a large snapped LHS sweep of the target), and score
   **regret**: ``true_runtime / oracle_runtime - 1``.

Every cell is a pure function of its (system, family, quick) arguments —
crc32 seeds, deterministic simulators, in-memory KB — so run in a
freshly spawned process it reproduces every ``COMPARE`` field
(``tests/test_bench_matrix.py`` checks one cell).  The benchmark asserts the surrogate arm strictly
beats the similarity arm's true runtime in at least four of the six
cells.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.core.measurement import Observation, TuningHistory
from repro.core.registry import make_system
from repro.core.tuner import Budget
from repro.core.workload import Workload
from repro.kb import KnowledgeBase
from repro.kb.service import RecommendationService
from repro.mlkit.sampling import latin_hypercube

__all__ = ["run", "run_cell", "SURROGATE_CELLS"]

#: The system × workload-family matrix: two families per simulator.
SURROGATE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("dbms", "olap-analytics"),
    ("dbms", "htap-mixed"),
    ("hadoop", "wordcount"),
    ("hadoop", "terasort"),
    ("spark", "spark-sort"),
    ("spark", "spark-kmeans"),
)

#: Cells where the surrogate's true runtime must strictly beat the
#: similarity arm's.
_REQUIRED_WINS = 4

#: KB population: sibling variants get _SIBLING_SESSIONS well-explored
#: LHS sessions each; the target variant gets one thin session.
_SIBLING_SESSIONS = 2
_SIBLING_ROWS = 24
_TARGET_ROWS = 6

#: Fields a cell must reproduce in any process (not wall-clock).
COMPARE = (
    "system", "family", "seed", "served_by", "model_kind", "similarity_s",
    "surrogate_s", "oracle_s", "surrogate_wins",
)

COLUMNS = (
    "system", "family", "served_by", "model_kind", "surrogate_s",
    "similarity_s", "cold_best_s",
)


def _scenario(system_name: str, family: str) -> Tuple[List[Workload], Workload]:
    """(sibling scale variants, target variant) for one cell.

    The target's own (thin) exploration session is stored too — the
    benchmark measures the KB-hit path, where serving beats replaying
    because the model pools every variant's evidence instead of
    parroting the target session's best row.
    """
    from repro.workloads import (
        htap_mixed,
        olap_analytics,
        spark_kmeans,
        spark_sort,
        terasort,
        wordcount,
    )

    scenarios = {
        ("dbms", "olap-analytics"): (
            [olap_analytics(scale=0.5), olap_analytics(scale=2.0)],
            olap_analytics(scale=1.0),
        ),
        ("dbms", "htap-mixed"): (
            [htap_mixed(scale=0.5), htap_mixed(scale=2.0)],
            htap_mixed(scale=1.0),
        ),
        ("hadoop", "wordcount"): (
            [wordcount(input_gb=6), wordcount(input_gb=12)],
            wordcount(input_gb=8),
        ),
        ("hadoop", "terasort"): (
            [terasort(input_gb=6), terasort(input_gb=12)],
            terasort(input_gb=8),
        ),
        ("spark", "spark-sort"): (
            [spark_sort(input_gb=4), spark_sort(input_gb=12)],
            spark_sort(input_gb=8),
        ),
        ("spark", "spark-kmeans"): (
            [spark_kmeans(input_gb=3), spark_kmeans(input_gb=9)],
            spark_kmeans(input_gb=6),
        ),
    }
    try:
        return scenarios[(system_name, family)]
    except KeyError:
        raise ValueError(
            f"no surrogate scenario for cell ({system_name!r}, {family!r})"
        ) from None


def _explore(system: Any, workload: Workload, n_rows: int,
             seed: int) -> TuningHistory:
    """One stored exploration session: default probe + LHS sweep."""
    space = system.config_space
    rng = np.random.default_rng(seed)
    history = TuningHistory()
    default = space.default_configuration()
    history.record(Observation(
        config=default, measurement=system.run(workload, default),
        tag="default", workload=workload.name,
    ))
    for i, row in enumerate(latin_hypercube(n_rows, space.dimension, rng)):
        try:
            config = space.from_array(row)
        except Exception:
            continue
        history.record(Observation(
            config=config, measurement=system.run(workload, config),
            tag=f"lhs-{i}", workload=workload.name,
        ))
    return history


def _true_runtime(system: Any, workload: Workload, values: Any) -> float:
    space = system.config_space
    measurement = system.run(workload, space.configuration(values))
    return measurement.runtime_s if measurement.ok else math.inf


def _oracle_runtime(system: Any, workload: Workload, quick: bool,
                    seed: int) -> float:
    """Best true runtime over a snapped LHS sweep + default — the
    regret reference.  A proxy for the global optimum, but the same
    proxy for every arm."""
    space = system.config_space
    rng = np.random.default_rng(seed)
    best = _true_runtime(
        system, workload, space.default_configuration().to_dict()
    )
    n = 128 if quick else 256
    for row in latin_hypercube(n, space.dimension, rng):
        try:
            config = space.from_array(row)
        except Exception:
            continue
        measurement = system.run(workload, config)
        if measurement.ok and measurement.runtime_s < best:
            best = measurement.runtime_s
    return best


def run_cell(system_name: str, family: str, quick: bool) -> Dict[str, Any]:
    """One self-contained (system, family) serving scenario.

    Top-level and argument-picklable, so it can run in another process;
    crc32 seeds (not salted ``hash()``) are the same in every process.
    """
    seed = zlib.crc32(f"surrogate/{system_name}/{family}".encode()) % (2**31)
    system = make_system(system_name)
    variants, target = _scenario(system_name, family)

    with KnowledgeBase(":memory:") as kb:
        session = 0
        for workload in variants:
            for _ in range(_SIBLING_SESSIONS):
                history = _explore(
                    system, workload, _SIBLING_ROWS, seed + session
                )
                kb.ingest_history(
                    system, workload, history,
                    tuner_name="bench-surrogate", seed=seed + session,
                )
                session += 1
        history = _explore(system, target, _TARGET_ROWS, seed + session)
        kb.ingest_history(
            system, target, history,
            tuner_name="bench-surrogate", seed=seed + session,
        )

        service = RecommendationService(kb)
        request = {"workload": target.name, "system_kind": system_name}
        similarity = service.recommend(dict(request, mode="similarity"))
        surrogate = service.recommend(dict(request, mode="surrogate"))
        status = service.surrogate_status()

    similarity_values = similarity["recommended"]["config"]
    surrogate_values = surrogate["recommended"]["config"]
    similarity_s = _true_runtime(system, target, similarity_values)
    surrogate_s = _true_runtime(system, target, surrogate_values)

    # Cold reference arm: tune the target live with no KB at all.
    from repro.tuners import BayesOptTuner

    start = time.perf_counter()
    cold = BayesOptTuner(n_init=6).tune(
        system, target, Budget(max_runs=16 if quick else 24),
        rng=np.random.default_rng(seed),
    )
    oracle_s = _oracle_runtime(system, target, quick, seed)
    oracle_s = min(oracle_s, similarity_s, surrogate_s, cold.best_runtime_s)
    wall_s = time.perf_counter() - start

    def regret(runtime_s: float) -> Optional[float]:
        if not (math.isfinite(runtime_s) and oracle_s > 0):
            return None
        return round(runtime_s / oracle_s - 1.0, 4)

    model = (status["models"] or [{}])[0]
    return {
        "system": system_name,
        "family": family,
        "seed": seed,
        "stored_workloads": [w.name for w in variants] + [target.name],
        "target_workload": target.name,
        "sibling_rows": _SIBLING_ROWS,
        "target_rows": _TARGET_ROWS,
        "served_by": surrogate["served_by"],
        "fallback_reason": surrogate["fallback_reason"],
        "model_kind": model.get("model_kind"),
        "top_knobs": model.get("top_knobs", []),
        "n_training_rows": model.get("n_rows"),
        "predicted_runtime_s": (surrogate.get("surrogate") or {}).get(
            "predicted_runtime_s"
        ),
        "relative_std": (surrogate.get("surrogate") or {}).get(
            "relative_std"
        ),
        "similarity_s": similarity_s,
        "surrogate_s": surrogate_s,
        "cold_best_s": cold.best_runtime_s,
        "cold_runs": cold.n_real_runs,
        "oracle_s": oracle_s,
        "similarity_regret": regret(similarity_s),
        "surrogate_regret": regret(surrogate_s),
        "cold_regret": regret(cold.best_runtime_s),
        "surrogate_wins": surrogate_s < similarity_s,
        "wall_s": round(wall_s, 3),
    }


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the serving matrix.

    Args:
        quick: reduced oracle/cold budgets (the CI setting).

    Returns:
        The report dict, one entry per cell.  Raises ``AssertionError``
        if the surrogate beats similarity in fewer than four cells.
    """
    start = time.perf_counter()
    results = [
        run_cell(system, family, quick) for system, family in SURROGATE_CELLS
    ]

    winners = [c for c in results if c["surrogate_wins"]]
    assert len(winners) >= _REQUIRED_WINS, (
        f"surrogate beat similarity in only {len(winners)} cell(s); "
        f"need {_REQUIRED_WINS}. Cells: "
        + ", ".join(
            f"{c['system']}/{c['family']}="
            f"{c['surrogate_s']:.2f}v{c['similarity_s']:.2f}"
            for c in results
        )
    )

    return make_report(
        "surrogate", quick, results, start,
        required_wins=_REQUIRED_WINS,
        n_surrogate_wins=len(winners),
    )
