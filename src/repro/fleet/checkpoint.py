"""Crash-safe checkpoint I/O for the fleet controller.

A fleet checkpoint is one JSON document holding the controller's epoch
cursor plus every tenant's mutable state — RNG, cumulative history
(via :mod:`repro.core.serialize`), incumbent, drift-detector internals,
circuit-breaker regions, chaos injection cursor, safety-gate audit
trail, and budget counters.  Writes are atomic (temp file +
``os.replace``) so a kill can never leave a torn checkpoint: resume
either sees the previous complete epoch or the new one, and replaying
from either produces byte-identical histories (asserted by digest
parity in the tests).

NaN is allowed in the payload (chaos metric corruption records NaN
metrics into histories); checkpoints are a Python-to-Python format, so
the stdlib's NaN literals are fine — unlike the strict wire format of
:mod:`repro.kb.service`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_KIND = "fleet_checkpoint"
CHECKPOINT_VERSION = 1


def write_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist a checkpoint document.

    The document is written to ``<path>.tmp`` and renamed into place, so
    a crash mid-write leaves the previous checkpoint intact.
    """
    if payload.get("kind") != CHECKPOINT_KIND:
        raise ValueError("checkpoint payload must carry kind="
                         f"{CHECKPOINT_KIND!r}, got {payload.get('kind')!r}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint document."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path} is not a fleet checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload
