"""Benchmark entry point: one run of one workload, measured from outside.

    python3 perfbench/run.py --workload tune-model --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes (``child.py``) that call ``repro``'s
public functions, in an environment with ``REPRO_*`` knobs removed and
BLAS/OpenMP pools at one thread.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes an untraced and a traced pass of the same
sessions and prints the per-layer metrics.  The last stdout line is one
JSON object; the lines before it are a readable report, including the
machine's state (``nproc``, load, steal ticks) before and after the run.

    python3 perfbench/run.py --workload tune-model --steady 10 --seconds 20

runs one workload ten times on seeds 1..10 and prints, per end-to-end
metric, the median, quartiles and largest deviation, flagging metrics
whose spread exceeds the bound in BENCHMARK.json.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER, merge_totals, serve_metrics, tune_metrics  # noqa: E402
from machine import PROBE_REF_S, machine_state  # noqa: E402
from workloads import PARTS, TUNE_SPECS  # noqa: E402

WORKLOADS = tuple(TUNE_SPECS) + ("serve-mixed",)
#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("latency_ms_p50", "ms"), ("throughput_per_s", "1/s"),
    ("best_speedup", "x"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
#: Knobs that would change which code path the program takes.
_REPRO_KNOBS = ("REPRO_JOBS", "REPRO_EVAL_CACHE", "REPRO_VECTORIZE",
                "REPRO_CHEAP_TASK_S")
#: A run must end within 180 s; its children get this long.
RUN_DEADLINE_S = 170.0
DIGESTS = os.path.join(HERE, "digests.json")


class RunFailed(RuntimeError):
    """A child process failed: the run has no result."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _REPRO_KNOBS}
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"),
    )
    return env


def _spawn(args: List[str], rundir: str, tag: str) -> Tuple[subprocess.Popen, str]:
    err_path = os.path.join(rundir, f"{tag}.err")
    with open(err_path, "wb") as err, \
            open(os.path.join(rundir, f"{tag}.out"), "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py")] + args,
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
    return proc, err_path


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             rundir: str, deadline: float) -> List[Dict[str, Any]]:
    """One pass: every child of the run, one after the other."""
    parts = 1 if workload == "serve-mixed" else PARTS
    outputs = []
    for part in range(parts):
        tag = f"{'traced' if traced else 'plain'}-{part}"
        out_path = os.path.join(rundir, f"{tag}.json")
        proc, err_path = _spawn([
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
            "--part", str(part), "--rundir", rundir, "--out", out_path,
        ], rundir, tag)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"{tag}: child ran past the run deadline")
        if code != 0:
            with open(err_path, errors="replace") as fh:
                raise RunFailed(f"{tag}: child exited {code}\n{fh.read()[-3000:]}")
        with open(out_path) as fh:
            outputs.append(json.load(fh))
    return outputs


# -- summaries -----------------------------------------------------------------
def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _rescaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference machine speed (see machine.py)."""
    return seconds * PROBE_REF_S / probe_s


def _speed_line(probes: List[float]) -> str:
    med = statistics.median(probes)
    return (f"machine speed: probe p50 {med * 1000:.3f} ms "
            f"(reference {PROBE_REF_S * 1000:g} ms), so times x{PROBE_REF_S / med:.3f}")


def _recorded_digests(workload: str) -> Dict[str, str]:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {})


def summarize_tune(workload: str, outputs: List[Dict[str, Any]],
                   key: str = "sessions") -> Dict[str, Any]:
    """End-to-end metrics of a tune pass.  ``best_speedup`` is a geometric
    mean: one workload's sessions find speedups from 1.5x to 7x, with gaps
    a median jumps across when the seed window shifts."""
    sessions = [s for out in outputs for s in out[key]]
    raw_walls = [s["wall_s"] for s in sessions]
    walls = [_rescaled(s["wall_s"], s["probe_s"]) for s in sessions]
    speedups = [s["speedup"] for s in sessions if s["speedup"] is not None]
    recorded = _recorded_digests(workload)
    changed = sum(
        1 for s in sessions if recorded.get(str(s["index"])) != s["digest"]
    )
    failed = [s for s in sessions if s["problems"]]
    return {
        "attempted": len(sessions),
        "failed": len(failed),
        "problems": [p for s in failed for p in s["problems"]][:10],
        "metrics": {
            "latency_ms_p50": statistics.median(walls) * 1000.0,
            "throughput_per_s": sum(s["n_real_runs"] for s in sessions) / sum(walls),
            "best_speedup": statistics.geometric_mean(speedups) if speedups else 0.0,
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outputs),
            "setup_s": statistics.median(
                _rescaled(o["setup_s"], o["setup_probe_s"]) for o in outputs),
        },
        "digests": [s["digest"] for s in sessions],
        "digests_changed": changed,
        "session_wall_s": sum(raw_walls),  # layer self times are raw too
        "report": [
            f"sessions {len(sessions)} over {len(outputs)} child processes, "
            f"failed {len(failed)}",
            f"digests differing from digests.json: {changed}/{len(sessions)}"
            if recorded else "digests.json missing: no recorded digests",
            f"as measured: session wall p50 {statistics.median(raw_walls) * 1000:.1f} ms, "
            f"evals/s {sum(s['n_real_runs'] for s in sessions) / sum(raw_walls):.1f}, "
            "setup_s " + ", ".join(f"{o['setup_s']:.3f}" for o in outputs),
            _speed_line([s["probe_s"] for s in sessions]),
        ],
    }


def summarize_serve(outputs: List[Dict[str, Any]]) -> Dict[str, Any]:
    (out,) = outputs
    segments = out["segments"]
    requests = [r for seg in segments for r in seg["requests"]]
    ok = [r for r in requests if r[3]]
    recommend = [r[2] * 1000.0 for r in ok if r[0] == "recommend"]
    ingest = [r[2] * 1000.0 for r in ok if r[0] == "ingest"]
    speedups = [r[4] for r in ok if r[4] is not None]
    loop_s = sum(seg["loop_s"] for seg in segments)
    failed = len(requests) - len(ok) + sum(
        0 if seg["accounting_ok"] else 1 for seg in segments
    )

    def tail(values: List[float]) -> str:
        if len(values) < 2:
            return "n/a"
        return f"p50 {statistics.median(values):.2f} ms, p90 {_p90(values):.2f} ms"

    return {
        "attempted": len(requests),
        "failed": failed,
        "problems": out["problems"],
        "metrics": {
            "latency_ms_p50": statistics.median(recommend) if recommend else 0.0,
            "throughput_per_s": len(ok) / loop_s,
            # geometric: replies come from nine workloads whose speedups
            # differ tenfold
            "best_speedup": statistics.geometric_mean(speedups) if speedups else 0.0,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in segments),
            "setup_s": statistics.median(
                _rescaled(s["setup_s"], s["setup_probe_s"]) for s in segments),
        },
        "segments": segments,
        "report": [
            f"requests {len(requests)} over {len(segments)} server processes, "
            f"failed {len(requests) - len(ok)}",
            f"recommend ({len(recommend)}): {tail(recommend)}",
            f"ingest ({len(ingest)}): {tail(ingest)}",
            "acked ingests vs KB growth per server: " + ", ".join(
                f"{s['acked']}/{s['kb_after'] - s['kb_before']}" for s in segments
            ),
            "setup_s as measured: " + ", ".join(f"{s['setup_s']:.3f}" for s in segments),
            _speed_line([s["setup_probe_s"] for s in segments]),
        ],
    }


def summarize(workload: str, outputs: List[Dict[str, Any]],
              key: str = "sessions") -> Dict[str, Any]:
    if workload == "serve-mixed":
        return summarize_serve(outputs)
    return summarize_tune(workload, outputs, key)


def layer_metrics(workload: str, plain: Dict[str, Any], traced: Dict[str, Any],
                  outputs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of the traced pass, plus how the trace compares
    with the untraced pass of the same work."""
    if workload == "serve-mixed":
        segments = traced["segments"]
        totals = merge_totals([s["trace"] for s in segments])
        recommends = sum(1 for s in segments for r in s["requests"]
                         if r[0] == "recommend") + sum(s["warm_sent"] for s in segments)
        ingests = sum(1 for s in segments for r in s["requests"] if r[0] == "ingest")
        client_s = sum(r[2] for s in segments for r in s["requests"]) + sum(
            s["warm_latency_s"] for s in segments)
        metrics = serve_metrics(
            totals, client_s, int(totals["calls"].get("http.handler", 0)),
            recommends, ingests,
        )
        metrics["trace.overhead"] = (
            plain["metrics"]["throughput_per_s"]
            / traced["metrics"]["throughput_per_s"] - 1.0
        )
        return metrics
    totals = merge_totals([o["trace"] for o in outputs])
    metrics = tune_metrics(totals, traced["attempted"], traced["session_wall_s"])
    metrics["trace.overhead"] = (
        traced["metrics"]["latency_ms_p50"] / plain["metrics"]["latency_ms_p50"]
        - 1.0
    )
    metrics["trace.digest_mismatches"] = float(sum(
        1 for a, b in zip(plain["digests"], traced["digests"]) if a != b
    ))
    metrics["trace.digests_changed"] = float(plain["digests_changed"])
    return metrics


# -- one run -----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Returns (the result object, report lines)."""
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    base = os.path.join(ROOT, ".perfbench_run")
    rundir = os.path.join(base, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(rundir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    before = machine_state()
    traced = None
    try:
        if not trace:
            plain = summarize(workload, run_pass(
                workload, seed, seconds, False, rundir, deadline))
        elif workload == "serve-mixed":
            # two passes: an untraced and a traced server per segment
            plain = summarize(workload, run_pass(
                workload, seed, seconds, False, rundir, deadline))
            traced_out = run_pass(workload, seed, seconds, True, rundir, deadline)
            traced = summarize(workload, traced_out)
        else:
            # one pass whose children run each session untraced and traced
            traced_out = run_pass(workload, seed, seconds, True, rundir, deadline)
            plain = summarize(workload, traced_out)
            traced = summarize(workload, traced_out, "traced_sessions")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    after = machine_state()
    ticks = max(1, after["cpu_ticks"] - before["cpu_ticks"])
    steal = after["steal_ticks"] - before["steal_ticks"]
    report = [
        f"workload {workload}, seed {seed}, seconds {seconds:g}, trace {int(trace)}",
        f"machine: nproc {before['nproc']}, load {before['loadavg_1m']:.2f} -> "
        f"{after['loadavg_1m']:.2f}, steal ticks +{steal} "
        f"({100.0 * steal / ticks:.2f}% of all cpu ticks)",
    ] + plain["report"]
    if traced is None:
        result = {
            "correct": plain["failed"] == 0,
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "metrics": {
                name: {"value": plain["metrics"][name], "unit": unit}
                for name, unit in END_TO_END
            },
        }
        report += [f"{name}: {plain['metrics'][name]:.6g} {unit}"
                   for name, unit in END_TO_END]
    else:
        metrics = layer_metrics(workload, plain, traced, traced_out)
        mismatches = metrics["trace.digest_mismatches"]
        failed = plain["failed"] + traced["failed"]
        result = {
            "correct": failed == 0 and mismatches == 0,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in PER_LAYER
            },
        }
        report += ["traced: " + line for line in traced["report"]]
        report += [
            f"{name}: untraced {plain['metrics'][name]:.6g}, "
            f"traced {traced['metrics'][name]:.6g} {unit}"
            for name, unit in END_TO_END[:3]
        ]
        report += [f"{name}: {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    for problem in plain["problems"] + (traced["problems"] if traced else []):
        report.append(f"FAILED: {problem}")
    return result, report


# -- steadiness report ---------------------------------------------------------------
def _bounds() -> Dict[str, float]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def steadiness(workload: str, runs: int, first_seed: int, seconds: float) -> int:
    bounds = _bounds()
    values: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
    failed = 0
    for i in range(runs):
        result, report = run_once(workload, first_seed + i, seconds, False)
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"# run {i + 1}/{runs} seed {first_seed + i}: " + ", ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()) + f"; {report[1]}",
            flush=True)
    flagged = []
    print(f"# {workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
          f"failed operations {failed}")
    print(f"# {'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'iqr/med':>8s} {'maxdev':>8s} {'bound':>6s}")
    for name, unit in END_TO_END:
        data = values[name]
        med = statistics.median(data)
        q1, _, q3 = statistics.quantiles(data, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        maxdev = max(abs(v - med) for v in data) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        # setup_s is gated on its median only, not on its spread
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OUTSIDE BOUND"
            flagged.append(name)
        elif bound is not None and spread > bound / 3:
            flag = "  above bound/3"
        print(f"# {name:18s} {med:10.5g} {q1:10.5g} {q3:10.5g} {spread:8.2%} "
              f"{maxdev:8.2%} {bound if bound is not None else '-':>6}{flag}")
    print(json.dumps({"workload": workload, "runs": runs, "values": values,
                      "outside_bound": flagged}))
    return 1 if flagged else 0


# -- digest recording ------------------------------------------------------------------
def record_digests() -> int:
    """Re-record ``digests.json``: every pool session of every tune workload."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--record-digests", DIGESTS],
        cwd=ROOT, env=child_env(),
    )
    return proc.returncode


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness report over N runs (seeds SEED..)")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record digests.json and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steadiness(args.workload, args.steady, args.seed, args.seconds)
    try:
        result, report = run_once(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for line in report:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
