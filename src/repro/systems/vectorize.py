"""Exact-parity helpers for the simulators' vectorized batch kernels.

The vectorized fast paths (``run_batch_vectorized`` on the DBMS, Spark,
and Hadoop simulators) promise *bit-for-bit* agreement with the scalar
``run()`` loop.  Elementwise float64 arithmetic (``+ - * /``),
``np.sqrt``, ``np.minimum``/``np.maximum``, ``np.floor``/``np.ceil``,
and ``np.where`` reproduce IEEE-754 scalar results exactly, so kernels
use numpy freely for those.  numpy's SIMD transcendentals do **not**:
``np.log``/``np.log2``/``np.exp`` and array ``**`` may differ from
CPython's ``math.*``/``float.__pow__`` (which call libm per element) in
the last ulp.  Every config-dependent transcendental therefore goes
through :func:`emap`/:func:`emap_where`, which apply the scalar
function per element — slower than a SIMD call but still one Python
loop per *call site* instead of one per configuration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration

__all__ = [
    "emap",
    "emap_where",
    "knob_floats",
    "knob_bools",
    "knob_values",
    "knob_table",
    "metric_columns",
    "put_counts",
    "measurements_from_columns",
]


def emap(fn: Callable[..., float], *args) -> np.ndarray:
    """Apply a scalar float function elementwise, bit-identically.

    ``args`` are 1-D arrays (or scalars, broadcast); each output element
    is ``fn(*row)`` computed on Python floats, exactly as the scalar
    engine would.
    """
    arrs = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrs))
    count = int(np.prod(shape)) if shape else 1
    if len(arrs) == 1:
        col = np.broadcast_to(arrs[0], shape).tolist()
        return np.fromiter(map(fn, col), dtype=float, count=count)
    cols = [np.broadcast_to(a, shape).tolist() for a in arrs]
    return np.fromiter(map(fn, *cols), dtype=float, count=count)


def emap_where(
    mask, fn: Callable[..., float], *args, fill: float = 0.0
) -> np.ndarray:
    """:func:`emap` restricted to ``mask`` rows; ``fill`` elsewhere.

    Lets kernels mirror scalar branches guarded by conditions under
    which ``fn`` may be undefined (``log`` of values <= 1, division by a
    dead row's zero denominator).
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.full(mask.shape, fill, dtype=float)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return out
    arrs = [
        np.broadcast_to(np.asarray(a, dtype=float), mask.shape) for a in args
    ]
    cols = [a[idx].tolist() for a in arrs]
    out[idx] = np.fromiter(map(fn, *cols), dtype=float, count=idx.size)
    return out


def knob_floats(configs: Sequence[Configuration], name: str) -> np.ndarray:
    """One knob as a float64 column over the config batch."""
    return np.array([c[name] for c in configs], dtype=float)


def knob_bools(configs: Sequence[Configuration], name: str) -> np.ndarray:
    """One boolean knob as a bool column over the config batch."""
    return np.array([bool(c[name]) for c in configs], dtype=bool)


def knob_values(configs: Sequence[Configuration], name: str) -> List:
    """One (categorical) knob as a plain value list over the batch."""
    return [c[name] for c in configs]


def knob_table(
    configs: Sequence[Configuration],
    name: str,
    table: Dict,
    column: int,
) -> np.ndarray:
    """Per-config lookup of one component of a choice table.

    ``table`` maps categorical values to tuples (e.g., codec ->
    (ratio, cpu_ms)); returns the ``column``-th component per config.
    """
    return np.array([table[c[name]][column] for c in configs], dtype=float)


def metric_columns(names: Sequence[str], n: int) -> Dict[str, np.ndarray]:
    """Zero-initialized metric accumulators, one column per metric."""
    return {k: np.zeros(n, dtype=float) for k in names}


def put_counts(
    columns: Dict[str, np.ndarray], key: str, mask: np.ndarray, counts
) -> None:
    """Write integer ``counts`` into metric column ``key`` where ``mask``
    holds, as Python ints.

    The scalar engines store a count (executors, slots) as an int over
    its metric's 0.0 default, which rows that never reach the count
    keep.  The column becomes object dtype holding both, so every row's
    metric has its scalar run's type and repr.
    """
    columns[key] = np.where(
        mask,
        np.asarray(counts, dtype=np.int64).astype(object),
        columns[key].astype(object),
    )


def measurements_from_columns(
    metric_cols: Dict[str, np.ndarray],
    names: Sequence[str],
    runtime: np.ndarray,
    cost: np.ndarray,
    failed: np.ndarray,
    failure_elapsed: np.ndarray,
    failure_cost: np.ndarray,
) -> List[Measurement]:
    """Assemble per-config Measurements from kernel output columns.

    Failed rows get ``runtime_s=inf``, the frozen metric values, an
    ``elapsed_before_failure_s`` entry, and the per-row failure cost —
    the exact shape the scalar engines produce on their early returns.
    """
    names_l = list(names)
    value_cols = [metric_cols[k].tolist() for k in names_l]
    runtime_l = runtime.tolist()
    cost_l = cost.tolist()
    failed_arr = np.asarray(failed, dtype=bool)
    rows = (
        [dict(zip(names_l, vals)) for vals in zip(*value_cols)]
        if value_cols
        else [{} for _ in runtime_l]
    )
    if not failed_arr.any():
        return [
            Measurement(runtime_s=rt, metrics=m, cost_units=cu)
            for rt, m, cu in zip(runtime_l, rows, cost_l)
        ]
    failed_l = failed_arr.tolist()
    f_elapsed_l = np.asarray(failure_elapsed, dtype=float).tolist()
    f_cost_l = np.asarray(failure_cost, dtype=float).tolist()
    out: List[Measurement] = []
    for i, m in enumerate(rows):
        if failed_l[i]:
            m["elapsed_before_failure_s"] = f_elapsed_l[i]
            out.append(
                Measurement(
                    runtime_s=float("inf"),
                    metrics=m,
                    failed=True,
                    cost_units=f_cost_l[i],
                )
            )
        else:
            out.append(
                Measurement(runtime_s=runtime_l[i], metrics=m, cost_units=cost_l[i])
            )
    return out
