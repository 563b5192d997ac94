"""DBMS knob catalog.

A PostgreSQL-flavoured catalog of ~28 configuration parameters.  As in
real systems (and as OtterTune's knob-ranking experiments assume), only
a minority of knobs materially affect performance; the rest are inert or
nearly so.  :data:`GROUND_TRUTH_IMPACT` records the simulator's designed
impact tiers, giving ranking experiments an oracle to score against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    NumericParameter,
    make_constraint,
)

__all__ = [
    "build_dbms_space",
    "build_screening_space",
    "GROUND_TRUTH_IMPACT",
    "DBMS_TUNING_KNOBS",
]

#: Designed impact of each knob on the simulator's cost model:
#: 2 = high, 1 = moderate, 0 = inert (exists but does ~nothing).
GROUND_TRUTH_IMPACT: Dict[str, int] = {
    "buffer_pool_mb": 2,
    "work_mem_mb": 2,
    "max_parallel_workers": 2,
    "checkpoint_interval_s": 2,
    "log_flush_policy": 2,
    "compression": 2,
    "compression_algo": 1,
    "random_page_cost": 2,
    "io_concurrency": 1,
    "hash_mem_multiplier": 1,
    "wal_buffers_mb": 1,
    "deadlock_timeout_ms": 1,
    "temp_buffers_mb": 1,
    "prefetch_depth": 1,
    "bgwriter_delay_ms": 1,
    "max_connections": 1,
    "commit_delay_us": 1,
    "stats_target": 0,
    "join_collapse_limit": 0,
    "autovacuum_naptime_s": 0,
    "cursor_tuple_fraction": 0,
    "geqo_threshold": 0,
    "track_io_timing": 0,
    "ssl_enabled": 0,
    "archive_timeout_s": 0,
    "idle_session_timeout_s": 0,
    "tcp_keepalive_s": 0,
    "extra_float_digits": 0,
    "log_temp_files_mb": 0,
}

#: The knobs a focused tuning session usually exposes (impact >= 1).
DBMS_TUNING_KNOBS = [k for k, v in GROUND_TRUTH_IMPACT.items() if v >= 1]


@dataclass(frozen=True)
class StaticMemoryBudget:
    """The ``static_memory_budget`` predicate: the buffer pool, WAL
    buffers and temp buffers fit in 97% of ``memory_mb``.

    A module-level callable rather than a closure, so the space pickles
    and the evaluation cache's fingerprint sees the limit.
    """

    memory_mb: float

    def __call__(self, v: Mapping[str, Any]) -> bool:
        return (
            v["buffer_pool_mb"] + v["wal_buffers_mb"] + v["temp_buffers_mb"]
            <= self.memory_mb * 0.97
        )


def build_dbms_space(memory_mb: int = 16384) -> ConfigurationSpace:
    """Build the DBMS configuration space for a node with ``memory_mb``.

    Memory-related bounds scale with the node so the same catalog works
    on small and large machines.  A static feasibility constraint keeps
    statically-allocated regions within physical memory; dynamic
    (per-session) memory can still exceed it at runtime, which the
    simulator reports as an out-of-memory failure — tuners must learn to
    avoid that region.
    """
    max_pool = max(256, int(memory_mb * 0.95))
    space = ConfigurationSpace(name="dbms")
    space.add(NumericParameter(
        "buffer_pool_mb", default=min(1024, max_pool), low=64, high=max_pool,
        integer=True, log_scale=True, unit="MiB",
        description="Shared buffer pool caching data pages.",
    ))
    space.add(NumericParameter(
        "work_mem_mb", default=4, low=1, high=4096, integer=True, log_scale=True,
        unit="MiB", description="Per-operator sort/hash memory.",
    ))
    space.add(NumericParameter(
        "hash_mem_multiplier", default=1.0, low=1.0, high=8.0,
        description="Hash tables may use work_mem times this factor.",
    ))
    space.add(NumericParameter(
        "temp_buffers_mb", default=8, low=1, high=1024, integer=True,
        log_scale=True, unit="MiB", description="Session temp-table buffers.",
    ))
    space.add(NumericParameter(
        "wal_buffers_mb", default=16, low=1, high=1024, integer=True,
        log_scale=True, unit="MiB", description="Write-ahead-log buffers.",
    ))
    space.add(NumericParameter(
        "max_parallel_workers", default=2, low=1, high=64, integer=True,
        description="Workers a single query may use.",
    ))
    space.add(NumericParameter(
        "io_concurrency", default=8, low=1, high=512, integer=True, log_scale=True,
        description="Outstanding async I/O requests.",
    ))
    space.add(NumericParameter(
        "prefetch_depth", default=16, low=1, high=256, integer=True, log_scale=True,
        description="Sequential read-ahead pages.",
    ))
    space.add(NumericParameter(
        "checkpoint_interval_s", default=300, low=30, high=3600, integer=True,
        log_scale=True, unit="s", description="Seconds between checkpoints.",
    ))
    space.add(NumericParameter(
        "bgwriter_delay_ms", default=200, low=10, high=10000, integer=True,
        log_scale=True, unit="ms", description="Background writer sleep.",
    ))
    space.add(CategoricalParameter(
        "log_flush_policy", default="commit", choices=["commit", "batch", "async"],
        description="WAL durability: flush per commit, batched, or async.",
    ))
    space.add(NumericParameter(
        "commit_delay_us", default=0, low=0, high=10000, integer=True, unit="us",
        description="Group-commit window (only effective with batch flush).",
    ))
    space.add(NumericParameter(
        "deadlock_timeout_ms", default=1000, low=10, high=10000, integer=True,
        log_scale=True, unit="ms", description="Wait before deadlock check.",
    ))
    space.add(NumericParameter(
        "max_connections", default=100, low=10, high=1000, integer=True,
        description="Connection slots (each reserves session memory).",
    ))
    space.add(BooleanParameter(
        "compression", default=False,
        description="Compress on-disk pages (trades CPU for I/O).",
    ))
    space.add(CategoricalParameter(
        "compression_algo", default="lz4", choices=["lz4", "zlib"],
        description="Page compression codec when compression is on.",
    ))
    space.add(NumericParameter(
        "random_page_cost", default=4.0, low=1.0, high=10.0,
        description="Planner's relative cost of a random page fetch.",
    ))
    # ---- inert / near-inert knobs (realistic catalog noise) -------------
    space.add(NumericParameter(
        "stats_target", default=100, low=10, high=1000, integer=True,
        description="Statistics histogram resolution.",
    ))
    space.add(NumericParameter(
        "join_collapse_limit", default=8, low=1, high=32, integer=True,
        description="Planner join-reordering window.",
    ))
    space.add(NumericParameter(
        "autovacuum_naptime_s", default=60, low=10, high=3600, integer=True,
        log_scale=True, unit="s", description="Autovacuum wake-up interval.",
    ))
    space.add(NumericParameter(
        "cursor_tuple_fraction", default=0.1, low=0.01, high=1.0,
        description="Planner assumption about cursor consumption.",
    ))
    space.add(NumericParameter(
        "geqo_threshold", default=12, low=2, high=32, integer=True,
        description="Genetic planner activation threshold.",
    ))
    space.add(BooleanParameter(
        "track_io_timing", default=False, description="Collect I/O timing stats.",
    ))
    space.add(BooleanParameter(
        "ssl_enabled", default=False, description="TLS on client connections.",
    ))
    space.add(NumericParameter(
        "archive_timeout_s", default=0, low=0, high=3600, integer=True, unit="s",
        description="Force WAL segment switch interval.",
    ))
    space.add(NumericParameter(
        "idle_session_timeout_s", default=0, low=0, high=86400, integer=True,
        unit="s", description="Kill idle sessions after this long.",
    ))
    space.add(NumericParameter(
        "tcp_keepalive_s", default=60, low=10, high=7200, integer=True, unit="s",
        description="TCP keepalive interval.",
    ))
    space.add(NumericParameter(
        "extra_float_digits", default=1, low=0, high=3, integer=True,
        description="Float output precision.",
    ))
    space.add(NumericParameter(
        "log_temp_files_mb", default=0, low=0, high=1024, integer=True,
        unit="MiB", description="Log temp files larger than this.",
    ))

    space.add_constraint(make_constraint(
        "static_memory_budget",
        touches=("buffer_pool_mb", "wal_buffers_mb", "temp_buffers_mb"),
        predicate=StaticMemoryBudget(memory_mb),
        description="Statically allocated memory must fit in RAM.",
    ))
    return space


def build_screening_space(memory_mb: int = 16384) -> ConfigurationSpace:
    """A conservative screening space over the impactful knobs.

    Design-of-experiments screening (SARD) sets every knob to an extreme
    simultaneously, so a DBA narrows the ranges to levels that cannot
    crash the server: operator memory and connection counts get safe
    highs, everything else keeps its catalog range.
    """
    full = build_dbms_space(memory_mb)
    safe_highs = {
        "work_mem_mb": 128,
        "hash_mem_multiplier": 4.0,
        "max_connections": 200,
        "temp_buffers_mb": 64,
        "buffer_pool_mb": max(256, int(memory_mb * 0.5)),
    }
    space = ConfigurationSpace(name="dbms.screening")
    for name in DBMS_TUNING_KNOBS:
        param = full[name]
        if isinstance(param, NumericParameter) and name in safe_highs:
            space.add(NumericParameter(
                name,
                default=param.default,
                low=param.low,
                high=safe_highs[name],
                integer=param.integer,
                log_scale=param.log_scale,
                description=param.description,
                unit=param.unit,
            ))
        else:
            space.add(param)
    return space
