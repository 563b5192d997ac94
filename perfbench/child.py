"""One measuring child process of a benchmark run.

``run.py`` starts this script in a fresh interpreter with a controlled
environment.  For a tune workload it runs one part of the run's sessions
(``--part``); for serve-mixed it drives the whole closed loop (see
``serve.py``).  It writes its raw measurements as JSON to ``--out``.
"""

import time

# set-up is timed from here, before anything imports repro
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

from machine import probe  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _screens(history: Any) -> Dict[str, float]:
    """Rung screens and promotions, read from the history's tags: a
    promoted candidate is a full-fidelity run of a config screened
    earlier in the session."""
    screened = set()
    screens = promoted = 0
    for obs in history:
        if "rung-" in obs.tag:
            screens += 1
            screened.add(obs.config)
        elif obs.full_fidelity and obs.config in screened:
            promoted += 1
    return {"driver.screens": screens, "driver.promoted": promoted}


def _measure(name: str, index: int, plain: Any, tracer: Any) -> Dict[str, Any]:
    """Build, time and check one session (only ``Tuner.tune`` is timed)."""
    from checks import check_session
    from workloads import build_session

    session = build_session(name, index)
    before = probe()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = session.tune()
        error: Optional[str] = None
    except Exception as exc:  # noqa: BLE001 — a raising session is a failed one
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    record: Dict[str, Any] = {
        "index": index, "wall_s": wall_s, "probe_s": (before + probe()) / 2,
    }
    if result is None:
        record.update(problems=[f"raised {error}"], n_real_runs=0,
                      speedup=None, digest=None)
        return record
    default = plain.run(session.workload, plain.default_configuration())
    rerun = plain.run(session.workload, result.best_config)
    record.update(
        problems=check_session(result, session.budget.max_runs, rerun),
        n_real_runs=result.n_real_runs,
        speedup=(default.runtime_s / rerun.runtime_s
                 if rerun.ok and math.isfinite(rerun.runtime_s) else None),
        digest=result.history.digest(),
    )
    if tracer is not None:
        # counts read from outside: the result and the chaos wrapper the
        # benchmark built
        resilience = result.extras.get("resilience", {})
        tracer.add("session.retries", resilience.get("retries", 0))
        tracer.add("session.quarantine_skips",
                   resilience.get("quarantine_skips", 0))
        for key, value in _screens(result.history).items():
            tracer.add(key, value)
        if session.chaos is not None:
            tracer.add("chaos.faults", len(session.chaos.fault_log))
    return record


def run_tune(args: argparse.Namespace) -> Dict[str, Any]:
    """One part of a tune run.

    Traced (``--trace 1``), every session runs twice in this process, once
    with the layer wrappers installed and once without, alternating which
    goes first: the pair shares the machine's state of the moment, so the
    tracing overhead is not lost in the machine's own drift.
    """
    from workloads import WARMUP, build_session, part_indices, plain_system, run_indices

    indices = part_indices(
        run_indices(args.workload, args.seed, args.seconds), args.part
    )
    plain = plain_system(args.workload)
    build_session(args.workload, WARMUP).tune()
    # the only forced collection: sessions then pay for their own
    # garbage as a long-lived tuning process would
    gc.collect()
    setup_s = time.perf_counter() - _T0

    out: Dict[str, Any] = {"setup_s": setup_s, "setup_probe_s": probe(),
                           "sessions": []}
    if not args.trace:
        out["sessions"] = [_measure(args.workload, i, plain, None) for i in indices]
        out["peak_rss_mb"] = _peak_rss_mb()
        return out

    from layers import install_tune_layers
    from tracer import Tracer

    tracer = Tracer()
    tracer.active = False  # on only inside a traced session's tune()
    out["traced_sessions"] = []
    for n, index in enumerate(indices):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                install_tune_layers(tracer)
                out["traced_sessions"].append(
                    _measure(args.workload, index, plain, tracer))
                tracer.uninstall()
            else:
                out["sessions"].append(_measure(args.workload, index, plain, None))
    out["peak_rss_mb"] = _peak_rss_mb()
    out["trace"] = tracer.totals()
    return out


def record_digests(path: str) -> None:
    """Write the digest of every pool session of every tune workload."""
    from workloads import TUNE_SPECS, build_session

    recorded = {
        name: {
            str(index): build_session(name, index).tune().history.digest()
            for index in range(spec.pool)
        }
        for name, spec in TUNE_SPECS.items()
    }
    with open(path, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--record-digests"]:
        record_digests(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.workload == "serve-mixed":
        from serve import run_serve

        out = run_serve(args)
    else:
        out = run_tune(args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
