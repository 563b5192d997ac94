"""Hadoop MapReduce knob catalog.

A catalog of ~24 parameters modeled on Hadoop 1.x/2.x names (dots
replaced by underscores).  Ground-truth impact tiers back the ranking
experiments, mirroring the finding of the early Hadoop performance
studies (Babu '10, Jiang '10) that a handful of knobs — reducer count,
sort buffer, compression, slot memory — dominate job latency.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    NumericParameter,
    make_constraint,
)

__all__ = ["build_hadoop_space", "GROUND_TRUTH_IMPACT", "HADOOP_TUNING_KNOBS"]

GROUND_TRUTH_IMPACT: Dict[str, int] = {
    "mapreduce_job_reduces": 2,
    "io_sort_mb": 2,
    "mapreduce_map_memory_mb": 2,
    "mapreduce_reduce_memory_mb": 2,
    "map_output_compress": 2,
    "dfs_block_size_mb": 2,
    "combiner_enabled": 2,
    "io_sort_factor": 1,
    "io_sort_spill_percent": 1,
    "shuffle_parallel_copies": 1,
    "reduce_slowstart": 1,
    "jvm_reuse": 1,
    "speculative_execution": 1,
    "compress_codec": 1,
    "output_replication": 1,
    "shuffle_input_buffer_percent": 1,
    "heartbeat_interval_s": 0,
    "counters_limit": 0,
    "jobtracker_handler_count": 0,
    "log_level": 0,
    "task_timeout_s": 0,
    "tmpfiles_cleanup": 0,
    "max_task_attempts": 0,
    "client_output_buffer_kb": 0,
}

HADOOP_TUNING_KNOBS = [k for k, v in GROUND_TRUTH_IMPACT.items() if v >= 1]


def sort_buffer_fits_container(v: Mapping[str, Any]) -> bool:
    """The ``sort_buffer_fits_container`` predicate: the sort buffer
    takes at most 70% of the map container's memory.

    A module-level function rather than a closure, so the space pickles.
    """
    return v["io_sort_mb"] <= 0.7 * v["mapreduce_map_memory_mb"]


def build_hadoop_space(node_memory_mb: int = 16384) -> ConfigurationSpace:
    """Build the MapReduce configuration space for a cluster whose nodes
    have ``node_memory_mb`` of RAM for containers."""
    space = ConfigurationSpace(name="hadoop")
    space.add(NumericParameter(
        "mapreduce_job_reduces", default=1, low=1, high=256, integer=True,
        log_scale=True, description="Number of reduce tasks for the job.",
    ))
    space.add(NumericParameter(
        "dfs_block_size_mb", default=128, low=16, high=512, integer=True,
        log_scale=True, unit="MiB",
        description="HDFS block size; determines map-task granularity.",
    ))
    space.add(NumericParameter(
        "io_sort_mb", default=100, low=16, high=2048, integer=True, log_scale=True,
        unit="MiB", description="Map-side sort buffer.",
    ))
    space.add(NumericParameter(
        "io_sort_factor", default=10, low=2, high=200, integer=True, log_scale=True,
        description="Streams merged at once during sorts.",
    ))
    space.add(NumericParameter(
        "io_sort_spill_percent", default=0.8, low=0.5, high=0.95,
        description="Buffer fill fraction that triggers a spill.",
    ))
    space.add(NumericParameter(
        "mapreduce_map_memory_mb", default=1024, low=256, high=8192, integer=True,
        log_scale=True, unit="MiB", description="Map container size.",
    ))
    space.add(NumericParameter(
        "mapreduce_reduce_memory_mb", default=1024, low=256, high=8192, integer=True,
        log_scale=True, unit="MiB", description="Reduce container size.",
    ))
    space.add(BooleanParameter(
        "map_output_compress", default=False,
        description="Compress intermediate map output.",
    ))
    space.add(CategoricalParameter(
        "compress_codec", default="snappy", choices=["snappy", "lz4", "gzip"],
        description="Codec for intermediate/output compression.",
    ))
    space.add(BooleanParameter(
        "combiner_enabled", default=False,
        description="Run the combiner on map output (when the job has one).",
    ))
    space.add(NumericParameter(
        "shuffle_parallel_copies", default=5, low=2, high=100, integer=True,
        log_scale=True, description="Concurrent fetch threads per reducer.",
    ))
    space.add(NumericParameter(
        "reduce_slowstart", default=0.05, low=0.0, high=1.0,
        description="Map-completion fraction before reducers launch.",
    ))
    space.add(NumericParameter(
        "shuffle_input_buffer_percent", default=0.7, low=0.2, high=0.9,
        description="Reduce heap fraction buffering shuffle data.",
    ))
    space.add(BooleanParameter(
        "jvm_reuse", default=False,
        description="Reuse JVMs across tasks of the same job.",
    ))
    space.add(BooleanParameter(
        "speculative_execution", default=True,
        description="Launch backup attempts for slow tasks.",
    ))
    space.add(NumericParameter(
        "output_replication", default=3, low=1, high=5, integer=True,
        description="HDFS replication factor for job output.",
    ))
    # ---- inert catalog noise --------------------------------------------
    space.add(NumericParameter(
        "heartbeat_interval_s", default=3, low=1, high=60, integer=True,
        unit="s", description="TaskTracker heartbeat period.",
    ))
    space.add(NumericParameter(
        "counters_limit", default=120, low=50, high=1000, integer=True,
        description="Max user counters per job.",
    ))
    space.add(NumericParameter(
        "jobtracker_handler_count", default=10, low=1, high=200, integer=True,
        description="RPC handler threads on the master.",
    ))
    space.add(CategoricalParameter(
        "log_level", default="INFO", choices=["DEBUG", "INFO", "WARN"],
        description="Task log verbosity.",
    ))
    space.add(NumericParameter(
        "task_timeout_s", default=600, low=60, high=3600, integer=True, unit="s",
        description="Kill tasks silent for this long.",
    ))
    space.add(BooleanParameter(
        "tmpfiles_cleanup", default=True, description="Clean temp files eagerly.",
    ))
    space.add(NumericParameter(
        "max_task_attempts", default=4, low=1, high=10, integer=True,
        description="Attempts before failing a task.",
    ))
    space.add(NumericParameter(
        "client_output_buffer_kb", default=64, low=4, high=1024, integer=True,
        log_scale=True, unit="KiB", description="Client write buffer.",
    ))

    space.add_constraint(make_constraint(
        "sort_buffer_fits_container",
        touches=("io_sort_mb", "mapreduce_map_memory_mb"),
        predicate=sort_buffer_fits_container,
        description="The sort buffer must fit inside the map JVM heap.",
    ))
    return space
