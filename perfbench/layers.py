"""Which ``repro`` calls belong to which layer, and the per-layer metrics.

Layers are named by module.  ``install_tune_layers`` and
``install_serve_layers`` put the :class:`tracer.Tracer` wrappers on the
calls listed in README.md; ``tune_metrics`` and ``serve_metrics`` turn a
traced pass's totals into the per-layer metrics named in
``BENCHMARK.json``.  Every metric is reported on every workload; a layer
that a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from tracer import Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("parameters.self_ms", "ms"), ("parameters.calls", "count"),
    ("tuners.ask_ms", "ms"), ("tuners.tell_ms", "ms"),
    ("tuners.asks", "count"), ("tuners.ask_size", "count"),
    ("mlkit.self_ms", "ms"), ("mlkit.fits", "count"),
    ("driver.self_ms", "ms"), ("driver.screens", "count"),
    ("driver.promoted", "count"),
    ("session.self_ms", "ms"), ("session.evaluations", "count"),
    ("session.retries", "count"), ("session.quarantine_skips", "count"),
    ("exec.self_ms", "ms"), ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"), ("exec.cache_hit_ratio", "ratio"),
    ("fidelity.self_ms", "ms"),
    ("chaos.self_ms", "ms"), ("chaos.faults", "count"),
    ("systems.scalar_ms", "ms"), ("systems.scalar_calls", "count"),
    ("systems.vector_ms", "ms"), ("systems.vector_rows", "count"),
    ("http.wire_ms", "ms"), ("http.handler_ms", "ms"),
    ("serving.queue_wait_ms", "ms"), ("serving.ack_wait_ms", "ms"),
    ("serving.coalesced", "count"), ("serving.shed", "count"),
    ("service.recommend_ms", "ms"), ("service.serialize_ms", "ms"),
    ("fingerprint.rank_ms", "ms"),
    ("store.scan_ms", "ms"), ("store.scans", "count"),
    ("store.commit_ms", "ms"), ("store.commits", "count"),
    ("store.commit_batch", "count"),
    ("trace.unattributed_share", "ratio"), ("trace.overhead", "ratio"),
    ("trace.digest_mismatches", "count"), ("trace.digests_changed", "count"),
)

#: Tracer keys whose self time is one tune-workload layer.
_TUNE_KEYS = {
    "parameters": "parameters.self_ms",
    "tuners.ask": "tuners.ask_ms",
    "tuners.tell": "tuners.tell_ms",
    "mlkit": "mlkit.self_ms",
    "driver": "driver.self_ms",
    "session": "session.self_ms",
    "exec": "exec.self_ms",
    "fidelity": "fidelity.self_ms",
    "chaos": "chaos.self_ms",
    "systems.scalar": "systems.scalar_ms",
    "systems.vector": "systems.vector_ms",
}


def _wrap_all(tracer: Tracer, owner: Any, names: Iterable[str], key: str,
              observe=None) -> None:
    for name in names:
        tracer.wrap(owner, name, key, observe)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _ask_size(tracer: Tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.add("tuners.ask_size", float(len(result or ())))


def _fit(tracer: Tracer, args, kwargs, result, exc) -> None:
    tracer.add("mlkit.fits")


def _evaluated(tracer: Tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.add("session.evaluations",
                   float(len(result)) if isinstance(result, list) else 1.0)


def _lookup(tracer: Tracer, args, kwargs, result, exc) -> None:
    tracer.add("exec.cache_misses" if result is None else "exec.cache_hits")


def _vector_rows(tracer: Tracer, args, kwargs, result, exc) -> None:
    configs = args[2] if len(args) > 2 else kwargs.get("configs", ())
    tracer.add("systems.vector_rows", float(len(configs)))


def install_tune_layers(tracer: Tracer) -> None:
    """Wrap every call that the tune workloads' layers are timed by."""
    import repro.tuners  # noqa: F401  (registers every SearchTuner)
    from repro.chaos.system import ChaosSystem
    from repro.core.driver import SearchDriver, SearchTuner
    from repro.core.fidelity import FidelitySystem
    from repro.core.parameters import Configuration, ConfigurationSpace
    from repro.core.session import TuningSession
    from repro.core.system import InstrumentedSystem
    from repro.exec.cache import EvaluationCache
    from repro.mlkit.gp import GaussianProcess
    from repro.systems import DbmsSimulator, HadoopSimulator, SparkSimulator

    _wrap_all(tracer, ConfigurationSpace, (
        "sample_configuration", "sample_configurations", "to_array",
        "from_array", "from_array_feasible", "configuration", "partial",
    ), "parameters")
    _wrap_all(tracer, Configuration, ("to_array", "replace"), "parameters")
    for cls in _subclasses(SearchTuner):
        # only a strategy's own ask/tell: inherited ones are wrapped once
        # on the class that defines them
        if "ask" in vars(cls):
            tracer.wrap(cls, "ask", "tuners.ask", _ask_size)
        if "tell" in vars(cls):
            tracer.wrap(cls, "tell", "tuners.tell")
    tracer.wrap(GaussianProcess, "fit", "mlkit", _fit)
    _wrap_all(tracer, GaussianProcess, ("add_observation", "predict"), "mlkit")
    tracer.wrap(SearchDriver, "run", "driver")
    _wrap_all(tracer, TuningSession, ("evaluate", "evaluate_batch"),
              "session", _evaluated)
    tracer.wrap(TuningSession, "predict", "session")
    _wrap_all(tracer, InstrumentedSystem, ("run", "run_batch"), "exec")
    _wrap_all(tracer, EvaluationCache, ("key_for", "store"), "exec")
    tracer.wrap(EvaluationCache, "lookup", "exec", _lookup)
    _wrap_all(tracer, FidelitySystem,
              ("run", "run_batch", "run_batch_vectorized"), "fidelity")
    _wrap_all(tracer, ChaosSystem, ("run", "run_batch"), "chaos")
    for cls in (DbmsSimulator, HadoopSimulator, SparkSimulator):
        tracer.wrap(cls, "run", "systems.scalar")
        tracer.wrap(cls, "run_batch_vectorized", "systems.vector",
                    _vector_rows)


def _queue_wait(tracer: Tracer, args: tuple, kwargs: dict):
    """Swap the submitted thunk for one that records when a worker
    picks it up; submit-to-start is the request's queue wait."""
    args = list(args)
    if len(args) > 1:
        thunk = args[1]
    else:
        thunk = kwargs.pop("thunk")
        args.append(None)
    submitted = tracer.clock()

    def timed() -> Any:
        tracer.add("serving.queue_wait_s", tracer.clock() - submitted)
        tracer.add("serving.executed")
        return thunk()

    args[1] = timed
    return tuple(args), kwargs


def _submitted(tracer: Tracer, args, kwargs, result, exc) -> None:
    from repro.kb.serving import Overloaded

    if isinstance(exc, Overloaded):
        tracer.add("serving.shed")
    tracer.add("serving.submits")


def _commit(tracer: Tracer, args, kwargs, result, exc) -> None:
    payloads = args[1] if len(args) > 1 else kwargs.get("payloads", ())
    tracer.add("store.payloads", float(len(payloads)))


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap every call that serve-mixed's server-side layers are timed by."""
    import repro.kb.service as service_module
    from repro.kb.service import RecommendationService, _Handler
    from repro.kb.serving import IngestAck, IngestWriter, RequestExecutor
    from repro.kb.store import KnowledgeBase

    # do_GET/do_POST, not the inherited handle_one_request: that one
    # also waits in readline for the keep-alive connection's next request
    _wrap_all(tracer, _Handler, ("do_GET", "do_POST"), "http.handler")
    tracer.wrap(RequestExecutor, "submit", "serving.submit", _submitted,
                adapt=_queue_wait)
    tracer.wrap(IngestWriter, "submit", "serving.ingest_submit")
    tracer.wrap(IngestAck, "wait", "serving.ack_wait")
    tracer.wrap(RecommendationService, "recommend", "service.recommend")
    # module-level functions are wrapped where the handler looks them up
    tracer.wrap(service_module, "dumps_strict", "service.serialize")
    tracer.wrap(service_module, "rank_similar", "fingerprint.rank")
    tracer.wrap(KnowledgeBase, "sessions", "store.scan")
    tracer.wrap(KnowledgeBase, "ingest_many", "store.commit", _commit)


# -- metrics -----------------------------------------------------------------
def _zeroed() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def tune_metrics(totals: Dict[str, Dict[str, float]], sessions: int,
                 session_wall_s: float) -> Dict[str, float]:
    """Per-session layer metrics from a traced tune pass."""
    self_s, calls = totals["self_s"], totals["calls"]
    counters = totals["counters"]
    per = 1.0 / sessions
    out = _zeroed()
    for key, metric in _TUNE_KEYS.items():
        out[metric] = self_s.get(key, 0.0) * 1000.0 * per
    out["parameters.calls"] = calls.get("parameters", 0.0) * per
    asks = calls.get("tuners.ask", 0.0)
    out["tuners.asks"] = asks * per
    out["tuners.ask_size"] = counters.get("tuners.ask_size", 0.0) / asks if asks else 0.0
    out["systems.scalar_calls"] = calls.get("systems.scalar", 0.0) * per
    for name in ("mlkit.fits", "driver.screens", "driver.promoted",
                 "session.evaluations", "session.retries",
                 "session.quarantine_skips", "exec.cache_hits",
                 "exec.cache_misses", "chaos.faults", "systems.vector_rows"):
        out[name] = counters.get(name, 0.0) * per
    lookups = counters.get("exec.cache_hits", 0.0) + counters.get("exec.cache_misses", 0.0)
    out["exec.cache_hit_ratio"] = (
        counters.get("exec.cache_hits", 0.0) / lookups if lookups else 0.0
    )
    attributed = sum(self_s.values())
    out["trace.unattributed_share"] = (
        max(0.0, session_wall_s - attributed) / session_wall_s
        if session_wall_s > 0 else 0.0
    )
    return out


def serve_metrics(totals: Dict[str, Dict[str, float]],
                  client_latency_s: float, requests: int, recommends: int,
                  ingests: int) -> Dict[str, float]:
    """Per-request layer metrics from a traced serve pass.

    ``totals`` are the servers' own totals; ``client_latency_s`` is the
    summed latency the client saw for the ``requests`` those servers
    handled, so ``http.wire_ms`` is what the client waited outside the
    server's handler.
    """
    self_s, wall_s, calls = totals["self_s"], totals["wall_s"], totals["calls"]
    counters = totals["counters"]
    out = _zeroed()
    per = 1.0 / requests
    handler_wall = wall_s.get("http.handler", 0.0)
    out["http.wire_ms"] = (client_latency_s - handler_wall) * 1000.0 * per
    out["http.handler_ms"] = self_s.get("http.handler", 0.0) * 1000.0 * per
    executed = counters.get("serving.executed", 0.0)
    out["serving.queue_wait_ms"] = (
        counters.get("serving.queue_wait_s", 0.0) * 1000.0 / executed
        if executed else 0.0
    )
    out["serving.ack_wait_ms"] = (
        wall_s.get("serving.ack_wait", 0.0) * 1000.0 / ingests if ingests else 0.0
    )
    submits = counters.get("serving.submits", 0.0)
    shed = counters.get("serving.shed", 0.0)
    out["serving.shed"] = shed * per
    out["serving.coalesced"] = max(0.0, submits - shed - executed) * per
    out["service.recommend_ms"] = (
        self_s.get("service.recommend", 0.0) * 1000.0 / recommends
        if recommends else 0.0
    )
    out["service.serialize_ms"] = self_s.get("service.serialize", 0.0) * 1000.0 * per
    out["fingerprint.rank_ms"] = (
        self_s.get("fingerprint.rank", 0.0) * 1000.0 / recommends
        if recommends else 0.0
    )
    out["store.scan_ms"] = self_s.get("store.scan", 0.0) * 1000.0 * per
    out["store.scans"] = calls.get("store.scan", 0.0) * per
    out["store.commit_ms"] = self_s.get("store.commit", 0.0) * 1000.0 * per
    commits = calls.get("store.commit", 0.0)
    out["store.commits"] = commits * per
    out["store.commit_batch"] = (
        counters.get("store.payloads", 0.0) / commits if commits else 0.0
    )
    # the handler's own share: request handling outside every layer below
    out["trace.unattributed_share"] = (
        self_s.get("http.handler", 0.0) / handler_wall if handler_wall else 0.0
    )
    return out


def merge_totals(parts: List[Optional[Dict[str, Dict[str, float]]]]) -> Dict[str, Dict[str, float]]:
    """Sum several processes' ``Tracer.totals()``."""
    merged: Dict[str, Dict[str, float]] = {
        "self_s": {}, "wall_s": {}, "calls": {}, "counters": {},
    }
    for part in parts:
        for section, values in (part or {}).items():
            into = merged[section]
            for key, value in values.items():
                into[key] = into.get(key, 0.0) + value
    return merged
