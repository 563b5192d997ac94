"""Command-line interface: ``python -m repro <command>``.

Commands:
    list                   — tuners (by category), systems, workloads
    tune                   — run one tuning session and print the result
    experiment             — run a benchmark experiment (E1–E17) and
                             print its regenerated table
    sweep                  — one-at-a-time knob sweep on a system
    bench NAME             — run one benchmark (``repro.bench.NAME``),
                             print its cells and write its JSON report
    surrogate              — train per-family KB surrogates and print
                             their knob-importance reports
    fleet                  — run a multi-tenant continuous-tuning fleet
                             (drift-triggered re-tunes, safety gate,
                             optional chaos and checkpoint/resume)
    serve                  — HTTP recommendation service over a tuning
                             knowledge base

Examples::

    python -m repro list
    python -m repro tune --system dbms --workload htap --tuner ituned --runs 30
    python -m repro tune --system dbms --workload olap --save tuning.kb
    python -m repro tune --system dbms --workload htap --warm-start tuning.kb
    python -m repro tune --system dbms --workload htap --trace trace.jsonl
    python -m repro experiment E3
    python -m repro experiment all --quick --jobs 4
    python -m repro sweep --system spark --workload sort --knob shuffle_partitions
    python -m repro tune --system dbms --workload htap --tuner cem \
        --fidelity-rungs 3 --fidelity-min 0.25
    python -m repro bench chaos --json BENCH_chaos.json
    python -m repro bench mf --json BENCH_mf.json
    python -m repro surrogate --kb tuning.kb --system dbms
    python -m repro fleet --system dbms --tenants 4 --epochs 9 --chaos 0.1
    python -m repro fleet --system spark --kb fleet.kb --checkpoint fleet.ckpt
    python -m repro serve --kb tuning.kb --port 8350 --surrogate-dir models/
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["main"]

#: Modules under ``repro.bench`` that ``python -m repro bench NAME`` runs.
BENCHES = ("chaos", "fleet", "mf", "obs", "surrogate", "transfer", "vec")


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0 (0 = all cores)")
    return jobs


def _int_in(
    expected: str, minimum: int, maximum: Optional[int] = None
) -> Callable[[str], int]:
    """An argparse type: an integer in ``[minimum, maximum]``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = minimum - 1
        if number < minimum or (maximum is not None and number > maximum):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number

    return parse


_seed_arg = _int_in("a non-negative integer", 0)
_positive_arg = _int_in("a positive integer", 1)
_port_arg = _int_in("a port in 0-65535", 0, 65535)


def _workload_catalog() -> Dict[str, Dict[str, object]]:
    from repro import workloads as w

    return {
        "dbms": {
            "olap": w.olap_analytics(),
            "oltp": w.oltp_orders(),
            "htap": w.htap_mixed(),
            "adhoc": w.adhoc_query(0),
        },
        "hadoop": {
            "wordcount": w.wordcount(8.0),
            "terasort": w.terasort(8.0),
            "join": w.join(8.0),
            "grep": w.grep(8.0),
            "pagerank": w.pagerank(4.0),
        },
        "spark": {
            "sort": w.spark_sort(8.0),
            "wordcount": w.spark_wordcount(8.0),
            "join": w.spark_sql_join(6.0),
            "pagerank": w.spark_pagerank(3.0),
            "kmeans": w.spark_kmeans(4.0),
        },
    }


def _experiments() -> Dict[str, object]:
    from repro.bench import EXPERIMENT_REGISTRY

    return dict(EXPERIMENT_REGISTRY)


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro import tuner_names, tuners_in_category
    from repro.core.tuner import CATEGORIES

    print("tuners by category:")
    for category in CATEGORIES:
        print(f"  {category:18s} {', '.join(tuners_in_category(category))}")
    uncategorized = set(tuner_names()) - {
        n for c in CATEGORIES for n in tuners_in_category(c)
    }
    if uncategorized:
        print(f"  {'(other)':18s} {', '.join(sorted(uncategorized))}")
    print("\nsystems and workloads:")
    for system, workloads in _workload_catalog().items():
        print(f"  {system:8s} {', '.join(workloads)}")
    print("\nexperiments:", ", ".join(_experiments()))
    return 0


def _make_tuner_for(name: str, system, fidelity: dict) -> object:
    """Instantiate a tuner, satisfying special constructor needs."""
    from repro import make_tuner

    if name == "ottertune":
        from repro.tuners import build_repository

        kind = system.kind
        catalog = _workload_catalog()[kind]
        history = [wl for key, wl in catalog.items() if key != "htap"][:3]
        repo = build_repository(system, history, n_samples=20,
                                rng=np.random.default_rng(7))
        return make_tuner(name, repository=repo, **fidelity)
    return make_tuner(name, **fidelity)


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro import Budget, ReproError, make_system

    system = make_system(args.system)
    catalog = _workload_catalog()[args.system]
    if args.workload not in catalog:
        print(f"unknown workload {args.workload!r}; choose from {sorted(catalog)}",
              file=sys.stderr)
        return 2
    workload = catalog[args.workload]
    if args.warm_start and not os.path.exists(args.warm_start):
        # KnowledgeBase() would create an empty store at a mistyped path
        print(f"error: no knowledge base at {args.warm_start!r}", file=sys.stderr)
        return 2

    baseline = system.run(workload, system.default_configuration())
    print(f"{args.system}/{workload.name}: default {baseline.runtime_s:.1f}s")

    prior = None
    if args.warm_start:
        from repro.kb import KnowledgeBase, warm_start_prior

        with KnowledgeBase(args.warm_start) as kb:
            prior = warm_start_prior(kb, system, workload)
        matched = ", ".join(
            m["workload"] for m in prior.summary()["matched_workloads"]
        ) or "nothing"
        print(f"warm start: {len(prior)} prior observations from {matched} "
              f"({args.warm_start})")

    fidelity = {}
    if args.fidelity_rungs is not None:
        fidelity["fidelity_rungs"] = args.fidelity_rungs
    if args.fidelity_min is not None:
        fidelity["fidelity_min"] = args.fidelity_min
    try:
        tuner = _make_tuner_for(args.tuner, system, fidelity)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if prior is not None and not tuner.uses_prior:
        print(f"note: {args.tuner} does not support warm starts; "
              "the prior will be ignored", file=sys.stderr)
    from repro.obs.trace import Tracer, set_tracer, span

    tracer = None
    if args.trace:
        tracer = Tracer()
        set_tracer(tracer)
    try:
        with span("session", system=args.system, workload=workload.name,
                  tuner=args.tuner, runs=args.runs, seed=args.seed):
            result = tuner.tune(
                system, workload, Budget(max_runs=args.runs),
                rng=np.random.default_rng(args.seed),
                prior=prior,
            )
    finally:
        if tracer is not None:
            set_tracer(None)
            n_spans = tracer.export_jsonl(args.trace)
            print(f"trace: {n_spans} spans written to {args.trace}"
                  + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))
    speedup = baseline.runtime_s / result.best_runtime_s
    print(f"{args.tuner}: best {result.best_runtime_s:.1f}s "
          f"(speedup {speedup:.2f}x) in {result.n_real_runs} runs "
          f"({result.experiment_time_s:.0f}s of experiments)")
    mf = result.extras.get("multi_fidelity")
    if mf:
        charged = result.extras.get("resilience", {}).get("charged_runs")
        ladder = "/".join(f"{f:g}" for f in mf["ladder"])
        rate = (mf["rung_promotions"] / mf["rung_evals"]
                if mf["rung_evals"] else 0.0)
        print(f"multi-fidelity: ladder {ladder}, "
              f"{mf['rung_evals']} screening runs across "
              f"{mf['screened_asks']} asks "
              f"(promotion rate {rate:.0%}), "
              f"{mf['full_evals']} promoted to full fidelity"
              + (f"; charged {charged:g}/{args.runs} runs"
                 if charged is not None else ""))
    if args.save:
        from repro.kb import KnowledgeBase

        with KnowledgeBase(args.save) as kb:
            session_id = kb.ingest_result(
                system, workload, result, seed=args.seed
            )
            total = len(kb)
        print(f"saved as session {session_id} in {args.save} "
              f"({total} sessions stored)")
    if args.show_config:
        default = system.default_configuration()
        print("changed knobs:")
        for knob, value in sorted(result.best_config.to_dict().items()):
            if value != default[knob]:
                print(f"  {knob:28s} {default[knob]} -> {value}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    experiments = _experiments()
    key = args.id.upper()
    if key == "ALL":
        from repro.bench import full_report

        print(full_report(quick=args.quick, jobs=args.jobs))
        return 0
    if key not in experiments:
        print(f"unknown experiment {args.id!r}; choose from {sorted(experiments)}",
              file=sys.stderr)
        return 2
    kwargs = {}
    if args.quick:
        kwargs["quick"] = True
    result = experiments[key](**kwargs)
    print(result.to_text())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    from repro.analysis.report import format_table
    from repro.bench.matrix import write_report

    bench = importlib.import_module(f"repro.bench.{args.name}")
    report = bench.run(quick=not args.full)
    summary = ", ".join(
        f"{key}={value}" for key, value in report.items()
        if key != "benchmark" and not isinstance(value, (dict, list))
    )
    rows = [[cell[column] for column in bench.COLUMNS]
            for cell in report["cells"]]
    print(format_table(bench.COLUMNS, rows,
                       title=f"{report['benchmark']}: {summary}"))
    if args.json:
        write_report(report, args.json)
        print(f"report written to {args.json}")
    return 0


def _cmd_surrogate(args: argparse.Namespace) -> int:
    from repro import make_system
    from repro.kb import KnowledgeBase
    from repro.surrogate import SurrogateStore

    store = SurrogateStore(args.surrogate_dir)
    with KnowledgeBase(args.kb) as kb:
        system = make_system(args.system)
        trained = store.train_all(kb, args.system, system.config_space)
        if not trained:
            print(f"no trainable workload families for {args.system!r} "
                  f"in {args.kb} (need sessions with fingerprints and "
                  "enough successful rows)")
            return 1
        for family, model in sorted(trained.items()):
            info = model.describe()
            print(f"{args.system}/{family}: model={info['model_kind']} "
                  f"rows={info['n_rows']} ({info['n_failed']} failed) "
                  f"sessions={info['n_sessions']} "
                  f"kb_version={info['kb_version']}")
            print(f"  workloads: {', '.join(info['workloads'])}")
            print(f"  {'knob':28s} {'forest':>8s} {'lasso':>8s} "
                  f"{'combined':>9s}")
            for row in model.importance.to_jsonable()["knobs"][: args.top]:
                marker = "*" if row["name"] in model.top_knobs else " "
                print(f"  {marker}{row['name']:27s} {row['forest']:8.3f} "
                      f"{row['lasso']:8.3f} {row['combined']:9.3f}")
        if args.surrogate_dir:
            print(f"models written to {args.surrogate_dir}/")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import contextlib

    from repro.bench.fleet import _build_specs, _cell_deadline
    from repro.fleet import FleetController
    from repro.kb import KnowledgeBase

    specs = _build_specs(
        args.system, args.chaos, args.tenants, args.phase_length, args.budget
    )
    with contextlib.ExitStack() as stack:
        kb = None
        if args.kb is not None:
            kb = stack.enter_context(KnowledgeBase(args.kb))
        elif args.checkpoint is None:
            kb = stack.enter_context(KnowledgeBase(":memory:"))
        try:
            controller = FleetController(
                specs,
                epochs=args.epochs,
                seed=args.seed,
                kb=kb,
                deadline_s=_cell_deadline(specs),
                checkpoint_path=args.checkpoint,
                log=print,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if controller.resumed_from_epoch is not None:
            print(f"resumed from {args.checkpoint} at epoch "
                  f"{controller.resumed_from_epoch}")
        report = controller.run()
    print(f"\nfleet of {args.tenants} {args.system} tenants, "
          f"{report['epochs_done']} epochs, chaos {args.chaos:.0%}:")
    for name, tenant in report["tenants"].items():
        gate = tenant["gate"]
        print(f"  {name:10s} retunes={tenant['retunes']:<3d} "
              f"demotions={tenant['demotions']:<3d} "
              f"drift_events={tenant['drift_events']:<3d} "
              f"gate: {gate['allowed']} allowed / {gate['clipped']} clipped "
              f"/ {gate['vetoes']} vetoed")
        for workload, entry in tenant["incumbents"].items():
            runtime = entry["runtime_s"]
            shown = "-" if runtime in (None, "inf") else f"{runtime:.1f}s"
            flag = " (demoted)" if entry["stale"] else ""
            print(f"    {workload:24s} incumbent {shown}{flag}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.kb import KnowledgeBase
    from repro.kb.service import serve_forever
    from repro.kb.serving import ServingConfig

    config = ServingConfig(
        max_inflight=args.max_inflight,
        surrogate_retrain_debounce_s=args.retrain_debounce,
    )
    with KnowledgeBase(args.kb) as kb:
        serve_forever(kb, args.host, args.port,
                      surrogate_dir=args.surrogate_dir, config=config)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import make_system

    system = make_system(args.system)
    catalog = _workload_catalog()[args.system]
    workload = catalog[args.workload]
    space = system.config_space
    if args.knob not in space:
        print(f"unknown knob {args.knob!r}; knobs: {space.names()}", file=sys.stderr)
        return 2
    param = space[args.knob]
    print(f"{args.knob} sweep on {args.system}/{workload.name}:")
    for value in param.grid(args.levels):
        try:
            config = space.partial({args.knob: value})
        except Exception as exc:
            print(f"  {value!r:>12}: infeasible ({exc})")
            continue
        m = system.run(workload, config)
        status = f"{m.runtime_s:10.1f}s" if m.ok else "     FAILED"
        print(f"  {value!r:>12}: {status}")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic parameter tuning for databases and big data systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list tuners, systems, workloads, experiments")

    tune = sub.add_parser("tune", help="run one tuning session")
    tune.add_argument("--system", choices=["dbms", "hadoop", "spark"], required=True)
    tune.add_argument("--workload", required=True)
    tune.add_argument("--tuner", default="ituned")
    tune.add_argument("--runs", type=int, default=25)
    tune.add_argument("--seed", type=_seed_arg, default=0)
    tune.add_argument("--show-config", action="store_true")
    tune.add_argument("--save", default=None, metavar="KB_PATH",
                      help="persist the completed session into this "
                           "knowledge base (SQLite file, created on demand)")
    tune.add_argument("--warm-start", default=None, metavar="KB_PATH",
                      help="seed the tuner with a transfer prior mapped "
                           "from similar sessions in this knowledge base")
    tune.add_argument("--trace", default=None, metavar="JSONL_PATH",
                      help="record a hierarchical span trace of the session "
                           "(batches, evaluations, retries, faults) and "
                           "write it as JSON Lines to this path")
    tune.add_argument("--fidelity-rungs", type=int, default=None,
                      metavar="R",
                      help="enable multi-fidelity screening with R "
                           "successive-halving rungs (ask/tell tuners "
                           "only; default: screening off)")
    tune.add_argument("--fidelity-min", type=float, default=None,
                      metavar="F",
                      help="fidelity of the cheapest screening rung, in "
                           "(0, 1); implies multi-fidelity screening "
                           "(default 0.25 when screening is on)")

    experiment = sub.add_parser("experiment", help="run a benchmark experiment")
    experiment.add_argument("id", help="experiment id, e.g. E3, or 'all'")
    experiment.add_argument("--quick", action="store_true")
    experiment.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="parallel workers for 'all' (0 = all cores; default REPRO_JOBS or 1)",
    )

    bench = sub.add_parser(
        "bench", help="run one benchmark and report its cells"
    )
    bench.add_argument("name", choices=BENCHES)
    bench.add_argument("--json", default=None, metavar="PATH",
                       help="write the JSON report here, e.g. BENCH_mf.json")
    bench.add_argument("--full", action="store_true",
                       help="full budgets instead of quick mode")

    surrogate = sub.add_parser(
        "surrogate",
        help="train KB surrogates and print knob-importance reports",
    )
    surrogate.add_argument("--kb", required=True, metavar="KB_PATH",
                           help="knowledge base to train from (SQLite file)")
    surrogate.add_argument("--system", choices=["dbms", "hadoop", "spark"],
                           required=True)
    surrogate.add_argument("--surrogate-dir", default=None, metavar="DIR",
                           help="persist trained models to this directory "
                                "(default: in-memory only)")
    surrogate.add_argument("--top", type=int, default=10,
                           help="importance rows to print per family "
                                "(default 10; * marks search-pruned knobs)")

    fleet = sub.add_parser(
        "fleet",
        help="run a multi-tenant continuous-tuning fleet",
    )
    fleet.add_argument("--system", choices=["dbms", "spark"], default="dbms")
    fleet.add_argument("--tenants", type=int, default=4,
                       help="number of tenant slots (default 4)")
    fleet.add_argument("--epochs", type=int, default=9,
                       help="monitor/re-tune epochs to run (default 9)")
    fleet.add_argument("--seed", type=_seed_arg, default=0)
    fleet.add_argument("--chaos", type=float, default=0.0, metavar="INTENSITY",
                       help="standing-fault intensity in [0, 1] (default 0)")
    fleet.add_argument("--budget", type=int, default=8,
                       help="real runs per re-tuning episode (default 8)")
    fleet.add_argument("--phase-length", type=int, default=3,
                       help="epochs per workload phase (default 3)")
    fleet.add_argument("--kb", default=None, metavar="KB_PATH",
                       help="knowledge base for cross-tenant warm starts "
                            "(default: in-memory; required file-backed "
                            "when --checkpoint is set)")
    fleet.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file; if it exists, the fleet "
                            "resumes from it")

    serve = sub.add_parser(
        "serve", help="HTTP recommendation service over a knowledge base"
    )
    serve.add_argument("--kb", required=True, metavar="KB_PATH",
                       help="knowledge base to serve (SQLite file)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port_arg, default=8350,
                       help="0 picks a free port (default 8350)")
    serve.add_argument("--surrogate-dir", default=None, metavar="DIR",
                       help="disk-backed surrogate registry so trained "
                            "models survive restarts (default: in-memory)")
    serve.add_argument("--max-inflight", type=_positive_arg, default=256,
                       help="requests that may run at once before 429 "
                            "load shedding (default 256)")
    serve.add_argument("--retrain-debounce", type=float, default=30.0,
                       metavar="SECONDS",
                       help="min seconds between surrogate retrains per "
                            "workload family under continuous ingest; "
                            "0 retrains on every KB change (default 30)")

    sweep = sub.add_parser("sweep", help="one-at-a-time knob sweep")
    sweep.add_argument("--system", choices=["dbms", "hadoop", "spark"], required=True)
    sweep.add_argument("--workload", required=True)
    sweep.add_argument("--knob", required=True)
    sweep.add_argument("--levels", type=int, default=5)

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "tune": _cmd_tune,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "surrogate": _cmd_surrogate,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
