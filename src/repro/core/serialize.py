"""JSON-friendly serialization of configurations, results, and reports.

Tuning sessions are expensive; users persist their outcomes.  These
helpers convert the core objects into plain dicts (``to_jsonable``) and
rebuild configurations against a space (``configuration_from_dict``),
with explicit versioning so stored artifacts stay loadable.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Optional

from repro.core.measurement import Measurement, Observation, TuningHistory
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.tuner import StreamResult, TuningResult

__all__ = [
    "FORMAT_VERSION",
    "encode_runtime",
    "decode_runtime",
    "to_jsonable",
    "dumps",
    "configuration_from_dict",
    "measurement_from_jsonable",
    "observation_from_jsonable",
    "history_from_jsonable",
]

FORMAT_VERSION = 1


def encode_runtime(value: Optional[float]) -> Any:
    """A runtime for strict JSON: infinity (a failed or never measured
    run) becomes the string ``"inf"``; ``None`` passes through."""
    if value is not None and math.isinf(value):
        return "inf"
    return value


def decode_runtime(value: Any) -> Optional[float]:
    """Inverse of :func:`encode_runtime`."""
    if value is None:
        return None
    return math.inf if value == "inf" else float(value)


def to_jsonable(obj: Any) -> Dict[str, Any]:
    """Convert a core object into a JSON-serializable dict."""
    if isinstance(obj, Configuration):
        return {"version": FORMAT_VERSION, "kind": "configuration",
                "values": dict(obj.to_dict())}
    if isinstance(obj, Measurement):
        return {
            "version": FORMAT_VERSION,
            "kind": "measurement",
            "runtime_s": encode_runtime(obj.runtime_s),
            "failed": obj.failed,
            "cost_units": obj.cost_units,
            "metrics": dict(obj.metrics),
        }
    if isinstance(obj, Observation):
        payload = {
            "version": FORMAT_VERSION,
            "kind": "observation",
            "config": dict(obj.config.to_dict()),
            "measurement": to_jsonable(obj.measurement),
            "source": obj.source,
            "tag": obj.tag,
            "workload": obj.workload,
        }
        if obj.fidelity != 1.0:
            # Full-fidelity rows omit the key so pre-fidelity payloads
            # (and their byte-level diffs) are unchanged.
            payload["fidelity"] = obj.fidelity
        return payload
    if isinstance(obj, TuningHistory):
        return {
            "version": FORMAT_VERSION,
            "kind": "history",
            "observations": [to_jsonable(o) for o in obj],
        }
    if isinstance(obj, TuningResult):
        return {
            "version": FORMAT_VERSION,
            "kind": "tuning_result",
            "tuner_name": obj.tuner_name,
            "category": obj.category,
            "best_config": dict(obj.best_config.to_dict()),
            "best_runtime_s": encode_runtime(obj.best_runtime_s),
            "n_real_runs": obj.n_real_runs,
            "experiment_time_s": obj.experiment_time_s,
            "history": to_jsonable(obj.history),
            "extras": _jsonable_extras(obj.extras),
        }
    if isinstance(obj, StreamResult):
        return {
            "version": FORMAT_VERSION,
            "kind": "stream_result",
            "tuner_name": obj.tuner_name,
            "steps": [
                {
                    "index": s.index,
                    "workload": s.workload_name,
                    "config": dict(s.config.to_dict()),
                    "measurement": to_jsonable(s.measurement),
                    "reconfigured": s.reconfigured,
                }
                for s in obj.steps
            ],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _jsonable_extras(extras: Mapping[str, Any]) -> Dict[str, Any]:
    """Best-effort conversion of tuner extras; non-JSON values become
    their repr rather than breaking the export."""
    out: Dict[str, Any] = {}
    for key, value in extras.items():
        try:
            json.dumps(value)
            out[key] = value
        except (TypeError, ValueError):
            out[key] = repr(value)
    return out


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize a core object to a JSON string."""
    return json.dumps(to_jsonable(obj), indent=indent, default=str)


def configuration_from_dict(
    space: ConfigurationSpace, payload: Mapping[str, Any]
) -> Configuration:
    """Rebuild a configuration from a ``to_jsonable`` payload (or a bare
    value mapping) against the given space — values are re-validated."""
    values = payload.get("values", payload) if isinstance(payload, Mapping) else payload
    return space.configuration(dict(values))


def measurement_from_jsonable(payload: Mapping[str, Any]) -> Measurement:
    """Rebuild a measurement from its ``to_jsonable`` payload.

    Failed and hung runs encode their infinite runtime as the string
    ``"inf"`` (strict JSON has no Infinity); metric bags round-trip
    verbatim, including the hardening extras the resilience layer
    attaches (``elapsed_before_failure_s``, ``deadline_exceeded``,
    ``metrics_dropped``, ...).
    """
    return Measurement(
        runtime_s=decode_runtime(payload["runtime_s"]),
        metrics=dict(payload.get("metrics", {})),
        failed=payload["failed"],
        cost_units=payload.get("cost_units", 0.0),
    )


def observation_from_jsonable(
    space: ConfigurationSpace, payload: Mapping[str, Any]
) -> Observation:
    """Rebuild one observation against ``space`` (values re-validated).

    Pre-fidelity payloads (and full-fidelity rows, which omit the key)
    load with the 1.0 default — older KBs round-trip unchanged.
    """
    return Observation(
        config=space.configuration(payload["config"]),
        measurement=measurement_from_jsonable(payload["measurement"]),
        source=payload["source"],
        tag=payload["tag"],
        workload=payload.get("workload", ""),
        fidelity=float(payload.get("fidelity", 1.0)),
    )


def history_from_jsonable(
    space: ConfigurationSpace, payload: Mapping[str, Any]
) -> TuningHistory:
    """Rebuild a tuning history from its serialized form."""
    if payload.get("kind") != "history":
        raise ValueError("payload is not a serialized history")
    history = TuningHistory()
    for entry in payload["observations"]:
        history.record(observation_from_jsonable(space, entry))
    return history
