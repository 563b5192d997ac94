"""The one bench harness behind ``python -m repro bench NAME``.

A bench is a module ``repro.bench.NAME`` with ``run(quick, jobs)``,
which returns a report built by :func:`make_report`, and a ``COLUMNS``
tuple naming the cell fields the command prints.  A *matrix* bench is
a list of argument tuples (its cells), a top-level ``run_cell`` that
turns one tuple into one cell dict, a ``COMPARE`` tuple of the fields
that must not depend on where a cell ran, and a gate that asserts on
the cells.  :func:`run_matrix` runs the cells; everything a cell needs
derives from its arguments (crc32 seeds, in-memory knowledge bases,
deterministic simulators), so a pool re-run must reproduce the serial
pass exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.runner import ParallelRunner, resolve_jobs

__all__ = ["bench_jobs", "json_safe", "make_report", "run_matrix", "write_report"]


def bench_jobs(jobs: Optional[int], default: int = 2) -> int:
    """Worker count: ``jobs``, else ``REPRO_JOBS``, else ``default``."""
    if jobs is None:
        return resolve_jobs(None) if os.environ.get("REPRO_JOBS") else default
    return jobs


def _compared(cell: Dict[str, Any], compare: Sequence[str]) -> List[str]:
    # repr, so inf and nan compare equal to themselves; sorted items, so
    # a dict's insertion order is not part of the contract
    return [
        repr(sorted(cell[f].items()) if isinstance(cell[f], dict) else cell[f])
        for f in compare
    ]


def run_matrix(
    name: str,
    run_cell: Callable[..., Dict[str, Any]],
    tasks: Sequence[Sequence[Any]],
    compare: Sequence[str],
    jobs: int,
) -> List[Dict[str, Any]]:
    """Run every cell serially and, when ``jobs > 1``, once more in a
    :class:`~repro.exec.runner.ParallelRunner`.

    Returns the serial pass's cells.  Raises ``AssertionError`` naming
    each cell whose ``compare`` fields differ between the two passes.
    """
    cells = [run_cell(*task) for task in tasks]
    if jobs > 1:
        with ParallelRunner(jobs=jobs) as runner:
            pooled = runner.starmap(run_cell, tasks)
        diverged = [
            "/".join(map(str, task))
            for task, serial, pool in zip(tasks, cells, pooled)
            if _compared(serial, compare) != _compared(pool, compare)
        ]
        assert not diverged, (
            f"parallel {name} pass diverged from serial: " + ", ".join(diverged)
        )
    return cells


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
