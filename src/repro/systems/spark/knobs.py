"""Spark knob catalog.

~26 parameters modeled on ``spark.*`` settings (dots → underscores).
Tiers mirror the tutorial's observation that of Spark's 200+ parameters
"about 30 can have a significant impact": executor sizing, parallelism,
memory fractions, serialization, and shuffle behaviour dominate, while a
long tail of knobs is inert.
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
    "build_spark_space",
    "build_spark_space_extended",
    "GROUND_TRUTH_IMPACT",
    "SPARK_TUNING_KNOBS",
]

GROUND_TRUTH_IMPACT: Dict[str, int] = {
    "executor_memory_mb": 2,
    "executor_cores": 2,
    "num_executors": 2,
    "shuffle_partitions": 2,
    "memory_fraction": 2,
    "serializer": 2,
    "broadcast_threshold_mb": 2,
    "storage_fraction": 1,
    "shuffle_compress": 1,
    "io_compression_codec": 1,
    "locality_wait_s": 1,
    "speculation": 1,
    "rdd_compress": 1,
    "reducer_max_inflight_mb": 1,
    "shuffle_file_buffer_kb": 1,
    "kryo_buffer_mb": 0,
    "network_timeout_s": 0,
    "scheduler_mode": 0,
    "eventlog_enabled": 0,
    "ui_retained_stages": 0,
    "heartbeat_interval_s": 0,
    "max_result_size_mb": 0,
    "rpc_io_threads": 0,
    "cleaner_period_s": 0,
    "port_max_retries": 0,
    "dynamic_allocation": 1,
}

SPARK_TUNING_KNOBS = [k for k, v in GROUND_TRUTH_IMPACT.items() if v >= 1]


@dataclass(frozen=True)
class ExecutorFitsNode:
    """The ``executor_fits_node`` predicate: one executor's memory fits
    in 95% of ``node_memory_mb``.

    A module-level callable rather than a closure, so the space pickles
    and the evaluation cache's fingerprint sees the limit.
    """

    node_memory_mb: float

    def __call__(self, v: Mapping[str, Any]) -> bool:
        return v["executor_memory_mb"] <= self.node_memory_mb * 0.95


def build_spark_space(node_memory_mb: int = 16384) -> ConfigurationSpace:
    """Spark configuration space for nodes with ``node_memory_mb`` RAM."""
    max_exec_mem = max(1024, int(node_memory_mb * 0.9))
    space = ConfigurationSpace(name="spark")
    space.add(NumericParameter(
        "executor_memory_mb", default=1024, low=512, high=max_exec_mem,
        integer=True, log_scale=True, unit="MiB",
        description="Heap size of each executor.",
    ))
    space.add(NumericParameter(
        "executor_cores", default=1, low=1, high=8, integer=True,
        description="Concurrent tasks per executor.",
    ))
    space.add(NumericParameter(
        "num_executors", default=2, low=1, high=64, integer=True, log_scale=True,
        description="Executors requested for the application.",
    ))
    space.add(NumericParameter(
        "memory_fraction", default=0.6, low=0.3, high=0.9,
        description="Heap fraction for execution+storage (unified).",
    ))
    space.add(NumericParameter(
        "storage_fraction", default=0.5, low=0.1, high=0.9,
        description="Unified-memory share protected for cached data.",
    ))
    space.add(NumericParameter(
        "shuffle_partitions", default=200, low=8, high=2000, integer=True,
        log_scale=True, description="Partitions for shuffled stages.",
    ))
    space.add(CategoricalParameter(
        "serializer", default="java", choices=["java", "kryo"],
        description="Object serialization library.",
    ))
    space.add(BooleanParameter(
        "rdd_compress", default=False, description="Compress cached RDD blocks.",
    ))
    space.add(BooleanParameter(
        "shuffle_compress", default=True, description="Compress shuffle output.",
    ))
    space.add(CategoricalParameter(
        "io_compression_codec", default="lz4", choices=["lz4", "snappy", "zstd"],
        description="Codec for shuffle/RDD compression.",
    ))
    space.add(NumericParameter(
        "broadcast_threshold_mb", default=10, low=1, high=512, integer=True,
        log_scale=True, unit="MiB",
        description="Max table size for broadcast joins.",
    ))
    space.add(NumericParameter(
        "locality_wait_s", default=3.0, low=0.0, high=10.0, unit="s",
        description="Wait for data-local scheduling before downgrading.",
    ))
    space.add(BooleanParameter(
        "speculation", default=False, description="Re-launch slow tasks.",
    ))
    space.add(NumericParameter(
        "reducer_max_inflight_mb", default=48, low=8, high=512, integer=True,
        log_scale=True, unit="MiB",
        description="Shuffle fetch data in flight per reducer.",
    ))
    space.add(NumericParameter(
        "shuffle_file_buffer_kb", default=32, low=8, high=1024, integer=True,
        log_scale=True, unit="KiB", description="Shuffle write buffer.",
    ))
    space.add(BooleanParameter(
        "dynamic_allocation", default=False,
        description="Scale executor count with the stage's task backlog.",
    ))
    # ---- inert catalog noise ---------------------------------------------
    space.add(NumericParameter(
        "kryo_buffer_mb", default=64, low=8, high=512, integer=True,
        unit="MiB", description="Kryo serialization buffer cap.",
    ))
    space.add(NumericParameter(
        "network_timeout_s", default=120, low=30, high=600, integer=True,
        unit="s", description="Default network timeout.",
    ))
    space.add(CategoricalParameter(
        "scheduler_mode", default="FIFO", choices=["FIFO", "FAIR"],
        description="Intra-application scheduling policy.",
    ))
    space.add(BooleanParameter(
        "eventlog_enabled", default=False, description="Write event logs.",
    ))
    space.add(NumericParameter(
        "ui_retained_stages", default=1000, low=100, high=10000, integer=True,
        description="Stage history kept for the UI.",
    ))
    space.add(NumericParameter(
        "heartbeat_interval_s", default=10, low=1, high=60, integer=True,
        unit="s", description="Executor heartbeat period.",
    ))
    space.add(NumericParameter(
        "max_result_size_mb", default=1024, low=128, high=8192, integer=True,
        unit="MiB", description="Max serialized result size at the driver.",
    ))
    space.add(NumericParameter(
        "rpc_io_threads", default=8, low=1, high=64, integer=True,
        description="Netty RPC threads.",
    ))
    space.add(NumericParameter(
        "cleaner_period_s", default=1800, low=60, high=7200, integer=True,
        unit="s", description="Context-cleaner interval.",
    ))
    space.add(NumericParameter(
        "port_max_retries", default=16, low=1, high=100, integer=True,
        description="Port binding retries.",
    ))

    space.add_constraint(make_constraint(
        "executor_fits_node",
        touches=("executor_memory_mb",),
        predicate=ExecutorFitsNode(node_memory_mb),
        description="One executor must fit on a node.",
    ))
    return space


# ---------------------------------------------------------------------------
# Extended catalog: the full 200+ knob surface the paper cites
# ---------------------------------------------------------------------------

#: Component/name fragments used to generate the documented-but-inert
#: tail of the catalog (real Spark ships hundreds of such settings).
_INERT_COMPONENTS = [
    "akka", "broadcast_factory", "buffer_pool", "closure", "codegen",
    "deploy", "driver_supervise", "executor_logs", "external_catalog",
    "files", "history", "io_encryption", "jars", "kubernetes", "launcher",
    "listener_bus", "locality_fallback", "log_rotation", "mesos", "metrics",
    "python_worker", "r_backend", "repl", "rest_server", "security",
    "shuffle_registration", "speculation_quantile_log", "stage_attempts",
    "standalone", "streaming_backpressure_log", "task_reaper", "ui_proxy",
    "yarn", "zookeeper",
]
_INERT_SUFFIXES = [
    ("timeout_s", 10, 600, 60),
    ("retries", 1, 20, 3),
    ("buffer_kb", 8, 4096, 32),
    ("interval_s", 1, 300, 10),
    ("max_entries", 100, 100000, 1000),
]


def build_spark_space_extended(node_memory_mb: int = 16384) -> ConfigurationSpace:
    """The tuning catalog plus a generated inert tail, ~200 knobs total.

    Real Spark exposes 200+ settings of which the vast majority cannot
    affect job latency (logging, UI, deployment, security).  This
    builder reproduces that surface so catalog-scale experiments (E5)
    measure the paper's "about 30 of 200" fraction rather than a
    pre-pruned space.  The generated knobs are genuinely inert: the
    simulator never reads them.
    """
    space = build_spark_space(node_memory_mb)
    target_total = 200
    generated = 0
    for component in _INERT_COMPONENTS:
        for suffix, low, high, default in _INERT_SUFFIXES:
            if len(space) >= target_total:
                return space
            space.add(NumericParameter(
                f"{component}_{suffix}",
                default=default,
                low=low,
                high=high,
                integer=True,
                log_scale=high / low >= 64,
                description=f"Inert {component.replace('_', ' ')} setting.",
            ))
            generated += 1
    return space
