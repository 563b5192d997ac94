"""The one bench harness behind ``python -m repro bench NAME``.

A bench is a module ``repro.bench.NAME`` with ``run(quick)``, which
returns a report built by :func:`make_report`, and a ``COLUMNS`` tuple
naming the cell fields the command prints.  A *matrix* bench is a list
of argument tuples (its cells), a top-level ``run_cell`` that turns one
tuple into one cell dict, a ``COMPARE`` tuple of the fields that must
not depend on where a cell ran, and a gate that asserts on the cells.
Everything a cell needs derives from its arguments (crc32 seeds,
in-memory knowledge bases, deterministic simulators), so a cell run in
a freshly spawned process must reproduce its ``COMPARE`` fields
exactly; ``tests/test_bench_matrix.py`` checks that for one cell of
each matrix bench.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, List

__all__ = ["json_safe", "make_report", "write_report"]


def json_safe(value: Any) -> Any:
    """Replace non-finite floats (JSON has no inf/nan) with ``None``,
    recursively."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def make_report(
    benchmark: str,
    quick: bool,
    cells: List[Dict[str, Any]],
    start: float,
    **summary: Any,
) -> Dict[str, Any]:
    """The report schema every bench shares: ``benchmark``, ``quick``,
    the bench's summary fields, ``n_cells``, ``wall_s`` (seconds since
    the ``time.perf_counter()`` stamp ``start``) and ``cells``."""
    return {
        "benchmark": benchmark,
        "quick": quick,
        **summary,
        "n_cells": len(cells),
        "wall_s": round(time.perf_counter() - start, 3),
        "cells": cells,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write ``report`` as strict JSON (non-finite floats become null)."""
    with open(path, "w") as fh:
        json.dump(json_safe(report), fh, indent=2, allow_nan=False)
