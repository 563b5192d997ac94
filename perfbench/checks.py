"""Output checks: a tune session or a serve request that fails one of
these counts as a failed operation."""

from __future__ import annotations

import json
import math
from typing import Any, List, Optional, Tuple

#: Slack for fidelity-weighted charge sums (0.25 + 0.25 + ... in floats).
_CHARGE_EPS = 1e-9


def check_session(result: Any, max_runs: int, rerun: Any) -> List[str]:
    """Problems with one completed ``Tuner.tune`` result.

    Args:
        result: the ``TuningResult``.
        max_runs: the session's ``Budget.max_runs``.
        rerun: the ``Measurement`` of the recommended config re-run on
            the plain noiseless simulator.
    """
    from repro.core.measurement import REAL

    problems = []
    trajectory = result.history.charged_trajectory()
    charged = trajectory[-1][0] if trajectory else 0.0
    if charged > max_runs + _CHARGE_EPS:
        problems.append(f"charged {charged} runs of a {max_runs}-run budget")
    best = result.best_config
    if not any(
        o.source == REAL and o.config == best and o.ok and o.full_fidelity
        and math.isfinite(o.runtime_s)
        for o in result.history
    ):
        problems.append("recommended config has no finite, successful, "
                        "full-fidelity observation")
    if not (rerun.ok and math.isfinite(rerun.runtime_s)):
        problems.append("recommended config fails on the plain simulator")
    return problems


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(body: bytes) -> Any:
    """Parse RFC 8259 JSON; ``NaN``/``Infinity`` raise ``ValueError``."""
    return json.loads(body.decode("utf-8"), parse_constant=_reject_constant)


def check_reply(endpoint: str, status: int, body: bytes) -> Tuple[Optional[Any], Optional[str]]:
    """``(payload, problem)`` for one serve reply; ``problem`` is None
    when the reply passes."""
    if status != 200:
        return None, f"{endpoint}: HTTP {status}"
    try:
        payload = strict_json(body)
    except ValueError as exc:  # JSONDecodeError and non-finite numbers
        return None, f"{endpoint}: body is not strict JSON ({exc})"
    if not isinstance(payload, dict):
        return None, f"{endpoint}: body is not a JSON object"
    if endpoint == "recommend" and payload.get("recommended") is None:
        return payload, "recommend: null recommendation"
    if endpoint == "ingest" and not isinstance(payload.get("session_id"), int):
        return payload, "ingest: ack without a session id"
    return payload, None


def check_ingest_accounting(acked: int, before: int, after: int) -> Optional[str]:
    """Acked ingests must equal the KB's growth across the server's life."""
    grown = after - before
    if acked != grown:
        return f"{acked} ingests acked but the KB grew by {grown}"
    return None
