"""Fleet benchmark: continuous vs one-shot tuning under drift + chaos.

``python -m repro bench fleet --json BENCH_fleet.json`` measures the
headline claim of the fleet layer: a controller that *keeps* tuning —
drift-triggered re-tunes, KB warm starts, safety-gated exploration —
accumulates less regret than tuning each tenant once and walking away,
and its guardrails demonstrably prevent bad deployments.

Per (system, fault-intensity) cell:

1. Build a fleet of tenants, each cycling through phased workload
   shifts (the drift), optionally wrapped in chaos at the cell's
   intensity (the standing adversary).
2. Run the same fleet twice from identical seeds: **continuous**
   (``retune_on_drift=True``) and **one-shot** (tune at epoch 0 only).
3. Score **cumulative regret** over deployed monitor runs: per epoch,
   the deployed runtime minus an empirical oracle — the best finite
   deployed runtime either arm ever achieved for that (tenant,
   workload), floored by the default config's clean runtime.  A failed
   deployment is priced as a detected failure plus a rerun at the safe
   default (2x the workload's clean default runtime) — realistic, and
   it keeps randomly-injected crash faults from swamping the tuning
   signal the way a raw deadline penalty would.
4. Audit the guardrails: **zero bypasses** (no admitted proposal was
   predicted worse than ``MAX_REGRESSION`` over the incumbent — the
   gate's own certificate) and **guardrail saves** — rejected raw
   proposals re-executed *counterfactually* on the clean simulator (or
   checked against the deterministic chaos blackout region) that really
   would have failed or regressed past the bar.

Every cell is a pure function of its arguments (in-memory KB, crc32
seeds, deterministic simulators and chaos): run in a freshly spawned
process, it reproduces every per-tenant history digest
(``tests/test_bench_matrix.py`` checks one cell's ``COMPARE`` fields).
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.matrix import make_report
from repro.chaos.policies import ConfigBlackout
from repro.core.registry import make_system
from repro.core.workload import Workload
from repro.fleet import FleetController, TenantSpec
from repro.fleet.safety import MAX_REGRESSION, VetoRecord
from repro.kb import KnowledgeBase

__all__ = ["run", "run_cell", "FLEET_CELLS"]

#: The cell matrix: both simulator families × fault intensities.
FLEET_CELLS: Tuple[Tuple[str, float], ...] = (
    ("dbms", 0.0),
    ("dbms", 0.1),
    ("dbms", 0.3),
    ("spark", 0.0),
    ("spark", 0.1),
    ("spark", 0.3),
)

#: Fraction of cells the continuous arm must win on cumulative regret.
_REQUIRED_WIN_FRACTION = 2 / 3

#: Fields a cell must reproduce in any process (not wall-clock).
COMPARE = (
    "system", "intensity", "seed", "regret_continuous", "regret_oneshot",
    "gate_allowed", "gate_clipped", "gate_vetoes", "saves",
    "digests_continuous", "digests_oneshot",
)

COLUMNS = (
    "system", "intensity", "regret_continuous", "regret_oneshot",
    "continuous_wins", "saves", "gate_vetoes",
)


def _tenant_workloads(system_name: str, index: int) -> List[Workload]:
    """The phase cycle for tenant ``index`` — scales and phase order
    vary per tenant so the fleet is heterogeneous."""
    from repro.workloads import (
        htap_mixed,
        olap_analytics,
        oltp_orders,
        spark_sort,
        spark_sql_join,
        spark_wordcount,
    )

    if system_name == "dbms":
        scale = 0.3 + 0.1 * (index % 3)
        catalog: List[Workload] = [
            olap_analytics(scale),
            oltp_orders(min(0.9, scale + 0.2)),
            htap_mixed(scale),
        ]
    elif system_name == "spark":
        gb = 4.0 + 2.0 * (index % 3)
        catalog = [
            spark_wordcount(gb),
            spark_sort(gb),
            spark_sql_join(gb),
        ]
    else:
        raise ValueError(f"no fleet scenario for system {system_name!r}")
    rotation = index % len(catalog)
    return catalog[rotation:] + catalog[:rotation]


def _build_specs(
    system_name: str, intensity: float, n_tenants: int,
    phase_length: int, episode_budget: int,
) -> List[TenantSpec]:
    return [
        TenantSpec(
            name=f"{system_name}-{i}",
            system=make_system(system_name),
            workloads=_tenant_workloads(system_name, i),
            phase_length=phase_length,
            chaos_intensity=intensity,
            episode_budget=episode_budget,
        )
        for i in range(n_tenants)
    ]


def _cell_deadline(specs: Sequence[TenantSpec]) -> float:
    """Per-run deadline: a generous multiple of the slowest default-
    config clean runtime in the cell (also the failed-monitor penalty)."""
    worst = 0.0
    for spec in specs:
        for workload in spec.workloads:
            m = spec.system.run(workload, spec.system.default_configuration())
            if m.ok and math.isfinite(m.runtime_s):
                worst = max(worst, m.runtime_s)
    return max(1.0, 25.0 * worst)


def _cumulative_regret(
    report: Dict[str, Any],
    oracle: Dict[Tuple[str, str], float],
    defaults: Dict[Tuple[str, str], float],
) -> float:
    """Sum of (experienced - oracle) runtime over deployed runs.

    A failed deployment costs the detected failure plus a rerun at the
    safe default: 2x the workload's clean default runtime.
    """
    total = 0.0
    for tenant_name, tenant in report["tenants"].items():
        for entry in tenant["deployed"]:
            key = (tenant_name, entry["workload"])
            runtime = entry["runtime_s"]
            if not entry["ok"] or runtime == "inf" or not math.isfinite(runtime):
                runtime = 2.0 * defaults[key]
            total += runtime - oracle[key]
    return total


def _oracle_table(
    reports: Sequence[Dict[str, Any]],
    defaults: Dict[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """Best finite deployed runtime per (tenant, workload) across all
    arms, floored by the clean default runtime."""
    oracle = dict(defaults)
    for report in reports:
        for tenant_name, tenant in report["tenants"].items():
            for entry in tenant["deployed"]:
                runtime = entry["runtime_s"]
                if not entry["ok"] or runtime == "inf":
                    continue
                key = (tenant_name, entry["workload"])
                oracle[key] = min(oracle.get(key, math.inf), runtime)
    return oracle


def _count_saves(
    reports: Sequence[Dict[str, Any]],
    clean_system,
    workloads: Dict[str, Workload],
    blackout: Optional[ConfigBlackout],
) -> Dict[str, int]:
    """Counterfactual audit of every gate rejection in the cell.

    A *save* is a rejected raw proposal that, re-run on the clean
    deterministic simulator, actually fails or regresses past the
    gate's bar — or (for quarantine vetoes under chaos) falls in the
    deterministic blackout region the breaker quarantined.
    """
    space = clean_system.config_space
    stats = {"rejections": 0, "saves": 0, "save_failures": 0,
             "save_regressions": 0, "save_blackouts": 0}
    for report in reports:
        for tenant in report["tenants"].values():
            records = [
                VetoRecord.from_jsonable(v)
                for v in tenant["vetoes"] + tenant["clip_records"]
            ]
            for record in records:
                stats["rejections"] += 1
                workload = workloads.get(record.workload)
                if workload is None:
                    continue
                config = space.configuration(record.values)
                measurement = clean_system.run(workload, config)
                if measurement.failed:
                    stats["saves"] += 1
                    stats["save_failures"] += 1
                    continue
                if blackout is not None and blackout.blacked_out(config):
                    stats["saves"] += 1
                    stats["save_blackouts"] += 1
                    continue
                bar = record.incumbent_runtime_s
                if (
                    bar is not None
                    and math.isfinite(bar)
                    and measurement.runtime_s > bar * (1.0 + MAX_REGRESSION)
                ):
                    stats["saves"] += 1
                    stats["save_regressions"] += 1
    return stats


def run_cell(system_name: str, intensity: float, quick: bool) -> Dict[str, Any]:
    """One self-contained (system, intensity) fleet scenario.

    Top-level and argument-picklable, so it can run in another process;
    crc32 seeds (not salted ``hash()``) are the same in every process.
    """
    seed = zlib.crc32(f"fleet/{system_name}/{intensity}".encode()) % (2**31)
    n_tenants = 6 if quick else 24
    epochs = 9 if quick else 18
    phase_length = 3
    episode_budget = 6 if quick else 10
    strategy_kwargs = {"n_init": 4, "n_candidates": 200}

    probe_specs = _build_specs(
        system_name, intensity, n_tenants, phase_length, episode_budget
    )
    deadline_s = _cell_deadline(probe_specs)
    defaults: Dict[Tuple[str, str], float] = {}
    workloads: Dict[str, Workload] = {}
    for spec in probe_specs:
        for workload in spec.workloads:
            workloads[workload.name] = workload
            m = spec.system.run(workload, spec.system.default_configuration())
            if m.ok and math.isfinite(m.runtime_s):
                defaults[(spec.name, workload.name)] = m.runtime_s

    start = time.perf_counter()
    arms: Dict[str, Dict[str, Any]] = {}
    for mode, retune in (("continuous", True), ("oneshot", False)):
        specs = _build_specs(
            system_name, intensity, n_tenants, phase_length, episode_budget
        )
        with KnowledgeBase(":memory:") as kb:
            controller = FleetController(
                specs,
                epochs=epochs,
                seed=seed,
                kb=kb,
                strategy="bayesopt",
                strategy_kwargs=strategy_kwargs,
                deadline_s=deadline_s,
                retune_on_drift=retune,
            )
            arms[mode] = controller.run()
    wall_s = time.perf_counter() - start

    oracle = _oracle_table(list(arms.values()), defaults)
    regret = {
        mode: _cumulative_regret(report, oracle, defaults)
        for mode, report in arms.items()
    }

    clean_system = make_system(system_name)
    blackout = ConfigBlackout() if intensity > 0 else None
    saves = _count_saves(list(arms.values()), clean_system, workloads, blackout)

    def _gate_stat(key: str) -> int:
        return sum(
            t["gate"][key]
            for report in arms.values()
            for t in report["tenants"].values()
        )

    max_allowed_delta = max(
        (
            t["gate"]["max_allowed_delta"]
            for report in arms.values()
            for t in report["tenants"].values()
            if t["gate"]["max_allowed_delta"] is not None
        ),
        default=None,
    )
    return {
        "system": system_name,
        "intensity": intensity,
        "seed": seed,
        "n_tenants": n_tenants,
        "epochs": epochs,
        "deadline_s": round(deadline_s, 3),
        "regret_continuous": round(regret["continuous"], 3),
        "regret_oneshot": round(regret["oneshot"], 3),
        "continuous_wins": regret["continuous"] < regret["oneshot"],
        "retunes_continuous": sum(
            t["retunes"] for t in arms["continuous"]["tenants"].values()
        ),
        "retunes_oneshot": sum(
            t["retunes"] for t in arms["oneshot"]["tenants"].values()
        ),
        "runs_continuous": sum(
            t["total_real_runs"] for t in arms["continuous"]["tenants"].values()
        ),
        "runs_oneshot": sum(
            t["total_real_runs"] for t in arms["oneshot"]["tenants"].values()
        ),
        "gate_allowed": _gate_stat("allowed"),
        "gate_clipped": _gate_stat("clipped"),
        "gate_vetoes": _gate_stat("vetoes"),
        "max_allowed_delta": max_allowed_delta,
        "max_regression": MAX_REGRESSION,
        **saves,
        "digests_continuous": {
            name: t["history_digest"]
            for name, t in arms["continuous"]["tenants"].items()
        },
        "digests_oneshot": {
            name: t["history_digest"]
            for name, t in arms["oneshot"]["tenants"].items()
        },
        "wall_s": round(wall_s, 3),
    }


def run(quick: bool = True) -> Dict[str, Any]:
    """Run the continuous-vs-one-shot fleet matrix.

    Args:
        quick: reduced fleet sizes (the CI setting).

    Returns:
        The report dict.  Raises ``AssertionError`` if continuous
        tuning wins fewer than 2/3 of the cells, any admitted proposal
        bypassed the gate's regression bar, or a chaos cell recorded no
        guardrail save.
    """
    start = time.perf_counter()
    results = [
        run_cell(system, intensity, quick)
        for system, intensity in FLEET_CELLS
    ]

    winners = [c for c in results if c["continuous_wins"]]
    required = math.ceil(_REQUIRED_WIN_FRACTION * len(results))
    assert len(winners) >= required, (
        f"continuous tuning won only {len(winners)}/{len(results)} cells "
        f"on cumulative regret (need {required}): "
        + ", ".join(
            f"{c['system']}@{c['intensity']}="
            f"{c['regret_continuous']:.0f}v{c['regret_oneshot']:.0f}"
            for c in results
        )
    )

    bypasses = [
        c for c in results
        if c["max_allowed_delta"] is not None
        and c["max_allowed_delta"] > c["max_regression"] + 1e-9
    ]
    assert not bypasses, (
        "guardrail bypass: admitted proposals predicted past the bar in "
        + ", ".join(f"{c['system']}@{c['intensity']}" for c in bypasses)
    )

    dry_chaos = [
        c for c in results if c["intensity"] > 0 and c["saves"] < 1
    ]
    assert not dry_chaos, (
        "chaos cells with no recorded guardrail save: "
        + ", ".join(f"{c['system']}@{c['intensity']}" for c in dry_chaos)
    )

    return make_report(
        "fleet", quick, results, start,
        max_regression=MAX_REGRESSION,
        n_cells_continuous_wins=len(winners),
        total_guardrail_saves=sum(c["saves"] for c in results),
    )
