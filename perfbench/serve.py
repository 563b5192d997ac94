"""serve-mixed: a closed loop against ``python -m repro serve``.

One process drives two keep-alive ``http.client`` connections, each
sending its next request only after the previous reply's last byte
(tuning clients wait for each answer).  About four similarity
``/recommend`` requests go out per ``/ingest`` of a ``kb_session``
document, so group commits and the writer thread's index rebuilds
contend with reads.  The client keeps ``http.client``'s own socket
options and sets none of its own.

The run is split into segments.  Each segment starts a fresh server on a
copy of one KB snapshot seeded from the workload seed; the time from
spawning it until it answers a ``/recommend`` with its index warm is one
``setup_s`` sample.  After each segment the server is stopped with
SIGINT (which drains its write-behind queue) and the KB file is
re-opened: acked ingests must equal its growth.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from checks import check_ingest_accounting, check_reply
from machine import probe
from workloads import INGEST_WORKLOADS, PARTS, WORKLOADS, workload_object

#: Keep-alive connections: one per CPU of the 2-vCPU target.
CONNECTIONS = 2
#: Recommends sent per ingest.
RECOMMENDS_PER_INGEST = 4
#: Requests one run makes per second of ``--seconds`` (the closed loop's
#: rate at the commit that added the benchmark), fixing a run's work.
REQUESTS_PER_S = 45
#: ``k`` of every recommend.
K = 3
#: Stored sessions per recommend workload in the seeded snapshot.
SESSIONS_PER_PAIR = 2
#: Tuner, its options and budget of the stored sessions: a budget at which
#: each workload's best config has nearly converged, so what the service
#: serves depends little on the seed.
STORED_TUNER, STORED_KWARGS, STORED_BUDGET = "genetic", {"population": 32}, 400
#: Ingest documents per ingest workload, and the tuner and budget behind them.
PAYLOADS_PER_PAIR = 2
INGEST_TUNER, INGEST_BUDGET = "rrs", 24
#: Longest a server may take to start or to stop.
SERVER_WAIT_S = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _tuned(system_name: str, workload_name: str, tuner: str, kwargs: Dict[str, Any],
           budget: int, seed: int) -> Tuple[Any, Any, Any]:
    import numpy as np

    from repro.core.registry import make_system, make_tuner
    from repro.core.tuner import Budget

    system = make_system(system_name)
    workload = workload_object(system_name, workload_name)
    result = make_tuner(tuner, **kwargs).tune(
        system, workload, Budget(max_runs=budget),
        rng=np.random.default_rng(seed),
    )
    return system, workload, result


def seed_kb(path: str, seed: int) -> Tuple[List[Dict[str, Any]], List[bytes], int]:
    """Write the KB snapshot; return (fingerprint pool, ingest bodies,
    stored sessions).  Everything derives from ``seed``."""
    from repro.kb import KnowledgeBase

    payloads: List[bytes] = []
    with KnowledgeBase(path) as kb:
        for n, pair in enumerate(sorted(WORKLOADS)):
            for i in range(SESSIONS_PER_PAIR):
                session_seed = seed * 1000 + n * 10 + i
                system, workload, result = _tuned(
                    *pair, STORED_TUNER, STORED_KWARGS, STORED_BUDGET,
                    session_seed)
                kb.ingest_result(system, workload, result, seed=session_seed)
        for n, pair in enumerate(sorted(INGEST_WORKLOADS)):
            for i in range(PAYLOADS_PER_PAIR):
                session_seed = seed * 1000 + 500 + n * 10 + i
                system, workload, result = _tuned(
                    *pair, INGEST_TUNER, {}, INGEST_BUDGET, session_seed)
                payload = kb.session_payload(system, workload, result,
                                             seed=session_seed)
                payloads.append(json.dumps(payload).encode())
        fingerprints = {
            record.workload_name: record.fingerprint.to_jsonable()
            for record in kb.sessions()
        }
        stored = len(kb)
    return [fingerprints[k] for k in sorted(fingerprints)], payloads, stored


def plan(seed: int, seconds: float, fingerprints: List[Dict[str, Any]],
         payloads: List[bytes]) -> List[List[List[Tuple[str, bytes]]]]:
    """``plan[segment][connection]`` → the (endpoint, body) steps, in
    blocks of four recommends and one ingest at a seeded position."""
    block = RECOMMENDS_PER_INGEST + 1
    per_conn = max(1, math.ceil(seconds * REQUESTS_PER_S
                                / (PARTS * CONNECTIONS * block)))
    rng = random.Random(seed)
    out = []
    for _ in range(PARTS):
        segment = []
        for _ in range(CONNECTIONS):
            steps: List[Tuple[str, bytes]] = []
            for _ in range(per_conn):
                ingest_at = rng.randrange(block)
                for j in range(block):
                    if j == ingest_at:
                        steps.append(("ingest", rng.choice(payloads)))
                    else:
                        body = {"fingerprint": rng.choice(fingerprints), "k": K}
                        steps.append(("recommend", json.dumps(body).encode()))
            segment.append(steps)
        out.append(segment)
    return out


# -- server process ------------------------------------------------------------
class Server:
    """One ``repro serve`` process on ``kb_path`` (traced: through
    ``serve_child.py``, which installs the layer wrappers)."""

    def __init__(self, kb_path: str, rundir: str, tag: str, env: Dict[str, str],
                 trace_out: Optional[str]) -> None:
        self.stdout_path = os.path.join(rundir, f"server-{tag}.out")
        self.stderr_path = os.path.join(rundir, f"server-{tag}.err")
        self.trace_out = trace_out
        serve_args = ["serve", "--kb", kb_path, "--host", "127.0.0.1",
                      "--port", "0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"] + serve_args
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_child.py"),
                    trace_out] + serve_args
        env = dict(env, PYTHONUNBUFFERED="1")
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

    def wait_port(self, deadline: float) -> int:
        marker = "kb service on http://127.0.0.1:"
        while time.perf_counter() < deadline:
            with open(self.stdout_path) as fh:
                text = fh.read()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: {self.tail()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGINT, wait, and return the traced server's totals."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=SERVER_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not stop on SIGINT")
        if code != 0:
            raise RuntimeError(f"server exited {code}: {self.tail()}")
        if self.trace_out is None:
            return None
        with open(self.trace_out) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def tail(self) -> str:
        with open(self.stderr_path, errors="replace") as fh:
            return fh.read()[-2000:]


# -- client --------------------------------------------------------------------
_HEADERS = {"Content-Type": "application/json"}


def _send(conn: http.client.HTTPConnection, endpoint: str, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", "/" + endpoint, body=body, headers=_HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def _drive(port: int, steps: List[Tuple[str, bytes]], out: List[Any]) -> None:
    """Closed loop over one keep-alive connection: latency is send to last
    byte; a transport error is a failed request and a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for endpoint, body in steps:
            start = time.perf_counter()
            try:
                status, data = _send(conn, endpoint, body)
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, repr(exc).encode()
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            out.append((endpoint, status, time.perf_counter() - start, data))
    finally:
        conn.close()


def _warm(port: int, body: bytes, deadline: float) -> Tuple[float, int]:
    """Send recommends until one answers 200; (client latency of the
    answered ones, requests sent)."""
    latency, sent = 0.0, 0
    while time.perf_counter() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            start = time.perf_counter()
            status, _ = _send(conn, "recommend", body)
            latency += time.perf_counter() - start
            sent += 1
            if status == 200:
                return latency, sent
        except OSError:
            time.sleep(0.01)
        finally:
            conn.close()
    raise RuntimeError("server never answered a recommend")


def run_segment(kb_path: str, steps: List[List[Tuple[str, bytes]]], warm_body: bytes,
                rundir: str, tag: str, env: Dict[str, str], traced: bool) -> Dict[str, Any]:
    trace_out = os.path.join(rundir, f"trace-{tag}.json") if traced else None
    start = time.perf_counter()
    server = Server(kb_path, rundir, tag, env, trace_out)
    try:
        deadline = start + SERVER_WAIT_S
        port = server.wait_port(deadline)
        warm_latency, warm_sent = _warm(port, warm_body, deadline)
        setup_s = time.perf_counter() - start
        setup_probe_s = probe()
        results: List[List[Any]] = [[] for _ in steps]
        threads = [
            threading.Thread(target=_drive, args=(port, conn_steps, out))
            for conn_steps, out in zip(steps, results)
        ]
        loop_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop_s = time.perf_counter() - loop_start
        peak = server.peak_rss_mb()
        trace = server.stop()
    finally:
        server.kill()
    return {
        "setup_s": setup_s, "setup_probe_s": setup_probe_s,
        "loop_s": loop_s, "peak_rss_mb": peak,
        "replies": [r for conn in results for r in conn],
        "warm_latency_s": warm_latency, "warm_sent": warm_sent,
        "trace": trace,
    }


def _speedup(reply: Dict[str, Any], by_name: Dict[str, Any],
             cache: Dict[str, float]) -> float:
    """Default runtime ÷ served config's runtime on the noiseless
    simulator of the recommended session's workload."""
    recommended = reply["recommended"]
    key = json.dumps([recommended["from_workload"], recommended["config"]],
                     sort_keys=True)
    if key not in cache:
        system, workload = by_name[recommended["from_workload"]]
        config = system.config_space.configuration(recommended["config"])
        default = system.run(workload, system.default_configuration()).runtime_s
        cache[key] = default / system.run(workload, config).runtime_s
    return cache[key]


def run_serve(args: Any) -> Dict[str, Any]:
    from repro.core.registry import make_system
    from repro.kb import KnowledgeBase

    snapshot = os.path.join(args.rundir, "snapshot.kb")
    fingerprints, payloads, stored = seed_kb(snapshot, args.seed)
    segments = plan(args.seed, args.seconds, fingerprints, payloads)
    warm_body = json.dumps({"fingerprint": fingerprints[0], "k": K}).encode()
    env = dict(os.environ)

    by_name = {}
    for system_name, workload_name in {**WORKLOADS, **INGEST_WORKLOADS}:
        workload = workload_object(system_name, workload_name)
        by_name[workload.name] = (make_system(system_name), workload)

    out_segments = []
    problems: List[str] = []
    speedup_cache: Dict[str, float] = {}
    for n, steps in enumerate(segments):
        kb_path = os.path.join(args.rundir, f"segment-{n}.kb")
        shutil.copyfile(snapshot, kb_path)
        segment = run_segment(kb_path, steps, warm_body, args.rundir, str(n),
                              env, bool(args.trace))
        acked = 0
        records = []
        for endpoint, status, latency, data in segment.pop("replies"):
            payload, problem = check_reply(endpoint, status, data)
            speedup = None
            if problem is None and endpoint == "ingest":
                acked += 1
            if problem is None and endpoint == "recommend":
                speedup = _speedup(payload, by_name, speedup_cache)
            if problem is not None:
                problems.append(problem)
            records.append((endpoint, status, latency, problem is None, speedup))
        with KnowledgeBase(kb_path) as kb:
            grown_to = len(kb)
        accounting = check_ingest_accounting(acked, stored, grown_to)
        if accounting is not None:
            problems.append(accounting)
        segment.update(requests=records, acked=acked, kb_before=stored,
                       kb_after=grown_to, accounting_ok=accounting is None)
        out_segments.append(segment)
    return {"segments": out_segments, "problems": problems[:20]}
