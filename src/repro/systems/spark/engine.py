"""The Spark simulator: stage-DAG execution under the unified memory model.

Captures the tradeoffs the surveyed Spark tuners (Ernest, Gounaris et
al., and practitioners' guides) optimize:

* executor sizing: few fat executors (GC pressure, lost parallelism on
  memory-bound nodes) vs. many thin ones (per-executor overhead);
* ``shuffle_partitions``: U-shaped — too few partitions spill and
  straggle, too many drown in task-launch overhead;
* unified memory: execution/storage competition; iterative jobs whose
  cache does not fit recompute their lineage every iteration;
* serialization (java vs. kryo) on every shuffle boundary;
* broadcast-vs-shuffle join cliff at ``broadcast_threshold_mb``;
* GC overhead growing superlinearly with heap pressure, with an OOM
  failure region;
* locality wait and speculation, whose value depends on cluster
  heterogeneity.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.systems.cluster import Cluster
from repro.systems.spark.dag import SparkJob, SparkStage, SparkWorkload
from repro.systems.spark.knobs import build_spark_space, build_spark_space_extended
from repro.systems.vectorize import (
    emap,
    knob_bools,
    knob_floats,
    knob_table,
    measurements_from_columns,
    metric_columns,
    put_counts,
)

__all__ = ["SparkSimulator"]

_CODEC = {  # codec -> (size ratio, cpu ms per MB)
    "lz4": (0.60, 0.7),
    "snappy": (0.55, 1.0),
    "zstd": (0.40, 2.5),
}
_SER_CPU_MS_PER_MB = {"java": 2.5, "kryo": 0.9}
_EXEC_OVERHEAD_MB = 300.0      # non-heap JVM overhead per executor
_TASK_LAUNCH_S = 0.01
_MEM_BANDWIDTH_MBPS = 2000.0   # reading cached partitions
_APP_STARTUP_S = 4.0


class SparkSimulator(SystemUnderTune):
    """Spark on a simulated cluster."""

    kind = "spark"

    METRIC_NAMES = [
        "stage_time_s",
        "gc_time_s",
        "shuffle_read_mb",
        "shuffle_write_mb",
        "spilled_mb",
        "cache_hit_fraction",
        "recomputed_mb",
        "task_launch_s",
        "executors",
        "total_slots",
        "waves",
        "ser_cpu_s",
        "broadcast_mb",
        "locality_delay_s",
        "skew_tail_s",
        "cpu_s",
        "io_s",
        "net_s",
        "heap_pressure",
        "n_tasks",
        "storage_mem_mb",
        "execution_mem_mb",
    ]

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        name: str = "spark-sim",
        extended_catalog: bool = False,
    ):
        """Args:
            extended_catalog: expose the full ~200-knob catalog
                (tuning knobs + the documented inert tail) instead of
                the 26-knob tuning surface.
        """
        self.cluster = cluster or Cluster.uniform(8)
        self.name = name
        builder = build_spark_space_extended if extended_catalog else build_spark_space
        self._space = builder(self.cluster.min_node.memory_mb)

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    @property
    def metric_names(self) -> List[str]:
        return list(self.METRIC_NAMES)

    # ------------------------------------------------------------------
    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        assert isinstance(workload, SparkWorkload)
        m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}

        exec_mem = float(config["executor_memory_mb"])
        node = self.cluster.min_node
        per_node = max(
            0,
            min(
                int(node.memory_mb * 0.95 // (exec_mem + _EXEC_OVERHEAD_MB)),
                node.cores // max(1, int(config["executor_cores"])),
            ),
        )
        capacity = per_node * len(self.cluster)
        n_exec = min(int(config["num_executors"]), capacity)
        if n_exec == 0:
            m["elapsed_before_failure_s"] = 10.0
            return Measurement(math.inf, metrics=m, failed=True, cost_units=0.5)
        cores = int(config["executor_cores"])
        slots = n_exec * cores
        m["executors"] = n_exec
        m["total_slots"] = slots

        unified_mb = max(exec_mem - 300.0, 64.0) * config["memory_fraction"]
        storage_mb = unified_mb * config["storage_fraction"]
        execution_mb = unified_mb - storage_mb
        m["storage_mem_mb"] = storage_mb * n_exec
        m["execution_mem_mb"] = execution_mb * n_exec

        total_s = _APP_STARTUP_S * (1.0 if not config["eventlog_enabled"] else 1.002)
        for job in workload.jobs:
            job_s = self._job_time(
                job, config, m, n_exec, cores, slots, storage_mb, execution_mb
            )
            if job_s is None:
                m["elapsed_before_failure_s"] = total_s + 15.0
                return Measurement(math.inf, metrics=m, failed=True, cost_units=1.0)
            total_s += job_s
        total_s = max(total_s, 1e-3)
        cost = total_s * n_exec / 3600.0
        return Measurement(total_s, metrics=m, cost_units=cost)

    # ------------------------------------------------------------------
    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Evaluate a whole candidate batch as one numpy computation.

        Bit-for-bit identical to the scalar :meth:`run` loop.  Failure
        regions (unschedulable executors, per-stage heap OOM) are
        tracked with alive-row masks: a dead row's metric columns freeze
        at the values the scalar early return would have left, and its
        lanes keep computing harmlessly (under ``np.errstate``) without
        being read again.
        """
        self.check_workload(workload)
        assert isinstance(workload, SparkWorkload)
        configs = list(configs)
        n = len(configs)
        if n == 0:
            return []
        node = self.cluster.min_node
        mean_speed = self.cluster.mean_cpu_speed()
        cols = metric_columns(self.METRIC_NAMES, n)

        def acc(key: str, mask: np.ndarray, vals) -> None:
            # where=-ufunc form of cols[key][mask] += vals[mask]: the
            # adds on masked lanes are the same IEEE-754 ops, unmasked
            # lanes are never touched, and no index arrays materialize.
            np.add(cols[key], vals, out=cols[key], where=mask)

        def put(key: str, mask: np.ndarray, vals) -> None:
            np.copyto(cols[key], np.asarray(vals, dtype=float), where=mask)

        exec_mem = knob_floats(configs, "executor_memory_mb")
        exec_cores = [int(c["executor_cores"]) for c in configs]
        # Scheduling integers use exact Python int arithmetic (floor
        # division semantics), once per batch.
        per_node = [
            max(
                0,
                min(
                    int(node.memory_mb * 0.95 // (em + _EXEC_OVERHEAD_MB)),
                    node.cores // max(1, ec),
                ),
            )
            for em, ec in zip(exec_mem.tolist(), exec_cores)
        ]
        n_exec = np.array(
            [
                min(int(c["num_executors"]), pn * len(self.cluster))
                for c, pn in zip(configs, per_node)
            ],
            dtype=float,
        )
        cores = np.array(exec_cores, dtype=float)
        slots = n_exec * cores
        alive = n_exec > 0
        failure_elapsed = np.full(n, 10.0)
        failure_cost = np.full(n, 0.5)

        put_counts(cols, "executors", alive, n_exec)
        put_counts(cols, "total_slots", alive, slots)
        unified_mb = np.maximum(exec_mem - 300.0, 64.0) * knob_floats(
            configs, "memory_fraction"
        )
        storage_mb = unified_mb * knob_floats(configs, "storage_fraction")
        execution_mb = unified_mb - storage_mb
        put("storage_mem_mb", alive, storage_mb * n_exec)
        put("execution_mem_mb", alive, execution_mb * n_exec)

        codec_ratio = knob_table(configs, "io_compression_codec", _CODEC, 0)
        codec_cpu = knob_table(configs, "io_compression_codec", _CODEC, 1)
        ser_cpu = np.array(
            [_SER_CPU_MS_PER_MB[c["serializer"]] for c in configs], dtype=float
        )
        rdd_comp = knob_bools(configs, "rdd_compress")
        shuffle_comp = knob_bools(configs, "shuffle_compress")
        dyn_alloc = knob_bools(configs, "dynamic_allocation")
        spec = knob_bools(configs, "speculation")
        shuffle_parts = knob_floats(configs, "shuffle_partitions")
        bc_threshold = knob_floats(configs, "broadcast_threshold_mb")
        inflight_cap = knob_floats(configs, "reducer_max_inflight_mb")
        buf_kb = knob_floats(configs, "shuffle_file_buffer_kb")
        loc_wait = knob_floats(configs, "locality_wait_s")
        sf = self.cluster.straggler_factor()
        straggler = np.where(spec, max(1.02, 1.0 + (sf - 1.0) * 0.3), sf)
        net_mbps = node.network_mbps / 8.0

        def stage_arrays(
            stage: SparkStage,
            input_mb: float,
            cache_fit: np.ndarray,
            first_pass: bool,
        ) -> Dict[str, np.ndarray]:
            """All pure per-stage arrays: config- and stage-dependent only.

            Nothing here reads the alive mask or the metric columns, so
            repeated stage executions (densified workloads, iterative
            stages past the first pass) can share one computation; the
            replay in :func:`stage_time_vec` applies only the masked
            accumulations.  Addend keys absent from the dict mean the
            scalar path's branch never accumulates that metric.
            """
            S: Dict[str, np.ndarray] = {}
            if stage.parents and stage.shuffled:
                n_tasks = shuffle_parts
            else:
                n_tasks = np.full(n, float(max(1, math.ceil(input_mb / 128.0))))
            eff_slots = np.where(
                dyn_alloc, np.minimum(slots, np.maximum(cores, n_tasks)), slots
            )
            S["n_tasks"] = n_tasks
            per_task_mb = input_mb / n_tasks

            io_s = np.zeros(n)
            net_s = np.zeros(n)
            cpu_s = np.zeros(n)
            if not stage.parents:
                io_s = io_s + per_task_mb / node.disk_read_mbps
            elif stage.iterative and not first_pass:
                mem_mb = per_task_mb * cache_fit
                disk_mb = per_task_mb - mem_mb
                io_s = io_s + (
                    mem_mb / _MEM_BANDWIDTH_MBPS + disk_mb / node.disk_read_mbps
                )
                S["recomputed"] = disk_mb * n_tasks
                cpu_s = cpu_s + np.where(
                    rdd_comp, mem_mb * codec_cpu / 1000.0 / mean_speed, 0.0
                )
            else:
                wire_mb = np.where(
                    shuffle_comp, per_task_mb * codec_ratio, per_task_mb * 1.0
                )
                inflight = np.minimum(inflight_cap, np.maximum(wire_mb, 1.0))
                fetch_mbps = np.minimum(
                    net_mbps,
                    _FETCH_BASE_MBPS * emap(lambda v: (v / 48.0) ** 0.3, inflight),
                )
                net_s = net_s + wire_mb / fetch_mbps
                cpu_s = cpu_s + per_task_mb * ser_cpu / 1000.0 / mean_speed
                cpu_s = cpu_s + np.where(
                    shuffle_comp, per_task_mb * codec_cpu / 1000.0 / mean_speed, 0.0
                )
                S["shuffle_read"] = wire_mb * n_tasks

            cpu_s = cpu_s + per_task_mb * stage.cpu_ms_per_mb / 1000.0 / mean_speed

            if stage.join_small_mb > 0:
                bc = stage.join_small_mb <= bc_threshold
                bc_s = stage.join_small_mb * n_exec / net_mbps
                S["bc"] = bc
                S["broadcast"] = stage.join_small_mb * n_exec
                extra = (per_task_mb + stage.join_small_mb / n_tasks) * 0.8
                net_s = net_s + np.where(bc, bc_s / n_tasks, extra / net_mbps)
                cpu_s = cpu_s + np.where(
                    bc, 0.0, extra * ser_cpu / 1000.0 / mean_speed
                )
                S["join_read"] = extra * n_tasks

            exec_per_task = execution_mb / np.maximum(cores, 1.0)
            working_mb = per_task_mb * 1.5
            sp_lane = working_mb > exec_per_task
            spill_mb = (working_mb - exec_per_task) * 2.0
            io_s = io_s + np.where(
                sp_lane,
                spill_mb / (0.5 * (node.disk_read_mbps + node.disk_write_mbps)),
                0.0,
            )
            S["sp_lane"] = sp_lane
            S["spilled"] = spill_mb * n_tasks

            out_mb = per_task_mb * stage.output_ratio
            if stage.shuffled or stage.cached:
                write_mb = np.where(shuffle_comp, out_mb * codec_ratio, out_mb * 1.0)
                buffer_penalty = 1.0 + 0.1 * np.maximum(
                    0.0, emap(lambda b: math.log2(64.0 / max(b, 8)), buf_kb)
                ) / 10.0
                io_s = io_s + write_mb / node.disk_write_mbps * buffer_penalty
                cpu_s = cpu_s + out_mb * ser_cpu / 1000.0 / mean_speed
                cpu_s = cpu_s + np.where(
                    shuffle_comp, out_mb * codec_cpu / 1000.0 / mean_speed, 0.0
                )
                S["shuffle_write"] = write_mb * n_tasks
            S["ser"] = out_mb * ser_cpu / 1000.0 * n_tasks / mean_speed

            s_press = per_task_mb * (1.0 if stage.cached else 0.2)
            pressure = (working_mb * cores + s_press) / exec_mem
            S["pressure"] = pressure
            S["died"] = pressure > 1.3
            gc_mult = 1.0 + 0.08 * emap(lambda p: (max(p, 0.0) / 0.7) ** 3, pressure)
            cpu_s = cpu_s * gc_mult
            S["gc"] = cpu_s * (gc_mult - 1.0) * n_tasks

            ion = io_s + net_s
            task_s = np.maximum(ion, cpu_s) + 0.3 * np.minimum(ion, cpu_s)
            S["waves"] = np.ceil(n_tasks / eff_slots)
            S["launch_s"] = _TASK_LAUNCH_S * n_tasks / eff_slots + 0.05
            locality_miss = np.maximum(0.0, 1.0 - n_exec / len(self.cluster)) * 0.3
            S["locality_s"] = loc_wait * locality_miss
            skew_factor = 1.0 + stage.skew * np.sqrt(emap(math.log, n_tasks + 1.0)) / 2.0
            tail_s = task_s * (skew_factor - 1.0)
            S["tail_s"] = tail_s
            S["stage_s"] = (
                S["waves"] * task_s * straggler + tail_s + S["launch_s"]
                + S["locality_s"]
            )
            S["cpu_total"] = cpu_s * n_tasks
            S["io_total"] = io_s * n_tasks
            S["net_total"] = net_s * n_tasks
            return S

        stage_memo: Dict[tuple, Dict[str, np.ndarray]] = {}

        def stage_time_vec(
            stage: SparkStage,
            input_mb: float,
            active: np.ndarray,
            cached_need: float,
            cache_fit: np.ndarray,
            first_pass: bool,
        ):
            # Identity-keyed memo is sound: stage specs are shared
            # objects, so the same id always means the same spec.
            key = (id(stage), input_mb, cached_need, first_pass)
            S = stage_memo.get(key)
            if S is None:
                S = stage_memo[key] = stage_arrays(
                    stage, input_mb, cache_fit, first_pass
                )
            # Masked accumulations, replayed in the scalar path's order.
            acc("n_tasks", active, S["n_tasks"])
            if "recomputed" in S:
                acc("recomputed_mb", active, S["recomputed"])
            if "shuffle_read" in S:
                acc("shuffle_read_mb", active, S["shuffle_read"])
            if "bc" in S:
                acc("broadcast_mb", active & S["bc"], S["broadcast"])
                acc("shuffle_read_mb", active & ~S["bc"], S["join_read"])
            acc("spilled_mb", active & S["sp_lane"], S["spilled"])
            if "shuffle_write" in S:
                acc("shuffle_write_mb", active, S["shuffle_write"])
            acc("ser_cpu_s", active, S["ser"])
            put(
                "heap_pressure",
                active,
                np.maximum(cols["heap_pressure"], S["pressure"]),
            )
            surv = active & ~S["died"]
            acc("gc_time_s", surv, S["gc"])
            acc("waves", surv, S["waves"])
            acc("task_launch_s", surv, S["launch_s"])
            acc("locality_delay_s", surv, S["locality_s"])
            acc("skew_tail_s", surv, S["tail_s"])
            acc("stage_time_s", surv, S["stage_s"])
            acc("cpu_s", surv, S["cpu_total"])
            acc("io_s", surv, S["io_total"])
            acc("net_s", surv, S["net_total"])
            return S["stage_s"], S["died"]

        cache_fit_memo: Dict[float, np.ndarray] = {}

        with np.errstate(all="ignore"):
            total_s = np.where(
                knob_bools(configs, "eventlog_enabled"),
                _APP_STARTUP_S * 1.002,
                _APP_STARTUP_S * 1.0,
            )
            for job in workload.jobs:
                if not alive.any():
                    break
                entered = alive.copy()
                total_before = total_s.copy()
                inputs = job.stage_inputs_mb()
                cached_need = job.cached_mb()
                cache_fit = cache_fit_memo.get(cached_need)
                if cache_fit is None:
                    if cached_need == 0:
                        cache_fit = np.ones(n)
                    else:
                        cached_arr = np.where(
                            rdd_comp, cached_need * codec_ratio, cached_need
                        )
                        cache_fit = np.minimum(
                            1.0, storage_mb * n_exec / cached_arr
                        )
                    cache_fit_memo[cached_need] = cache_fit
                put("cache_hit_fraction", entered, cache_fit)

                job_total = np.zeros(n)
                job_alive = entered
                stage_execs = [(s, True) for s in job.stages if not s.iterative]
                iter_stages = [s for s in job.stages if s.iterative]
                for it in range(job.iterations):
                    stage_execs += [(s, it == 0) for s in iter_stages]
                for stage, first_pass in stage_execs:
                    if not job_alive.any():
                        break
                    stage_s, died = stage_time_vec(
                        stage, inputs[stage.name], job_alive,
                        cached_need, cache_fit, first_pass,
                    )
                    newly = job_alive & died
                    np.copyto(failure_elapsed, total_before + 15.0, where=newly)
                    np.copyto(failure_cost, 1.0, where=newly)
                    job_alive = job_alive & ~died
                    np.add(job_total, stage_s, out=job_total, where=job_alive)
                np.copyto(total_s, total_before + job_total, where=job_alive)
                alive = job_alive

            total_s = np.maximum(total_s, 1e-3)
            cost = total_s * n_exec / 3600.0
        return measurements_from_columns(
            cols,
            self.METRIC_NAMES,
            total_s,
            cost,
            failed=~alive,
            failure_elapsed=failure_elapsed,
            failure_cost=failure_cost,
        )

    # ------------------------------------------------------------------
    def profile(self, workload: Workload, config: Configuration) -> List[Dict[str, float]]:
        """Per-stage breakdown under a configuration (first iteration).

        One dict per (job, stage) with time, spill, shuffle, and GC
        attribution — what the Spark UI's stage page exposes and what
        stage-level tuners (dynamic partitioning) consume.
        """
        self.check_workload(workload)
        assert isinstance(workload, SparkWorkload)
        exec_mem = float(config["executor_memory_mb"])
        node = self.cluster.min_node
        per_node = max(
            0,
            min(
                int(node.memory_mb * 0.95 // (exec_mem + _EXEC_OVERHEAD_MB)),
                node.cores // max(1, int(config["executor_cores"])),
            ),
        )
        n_exec = min(int(config["num_executors"]), per_node * len(self.cluster))
        if n_exec == 0:
            return [{"job": "(unschedulable)", "stage": "", "failed": 1.0}]
        cores = int(config["executor_cores"])
        slots = n_exec * cores
        unified_mb = max(exec_mem - 300.0, 64.0) * config["memory_fraction"]
        storage_mb = unified_mb * config["storage_fraction"]
        execution_mb = unified_mb - storage_mb
        codec_ratio, codec_cpu = _CODEC[config["io_compression_codec"]]
        ser_cpu = _SER_CPU_MS_PER_MB[config["serializer"]]
        mean_speed = self.cluster.mean_cpu_speed()

        profiles: List[Dict[str, float]] = []
        for job in workload.jobs:
            inputs = job.stage_inputs_mb()
            cached_need = job.cached_mb()
            if config["rdd_compress"]:
                cached_need *= codec_ratio
            cache_fit = (
                1.0 if cached_need == 0
                else min(1.0, storage_mb * n_exec / cached_need)
            )
            for stage in job.stages:
                m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}
                elapsed = self._stage_time(
                    stage, inputs[stage.name], config, m, n_exec, cores, slots,
                    execution_mb, cache_fit, first_pass=True,
                    codec_ratio=codec_ratio, codec_cpu=codec_cpu,
                    ser_cpu=ser_cpu, mean_speed=mean_speed,
                )
                profiles.append({
                    "job": job.name,
                    "stage": stage.name,
                    "failed": 0.0 if elapsed is not None else 1.0,
                    "elapsed_s": elapsed if elapsed is not None else float("inf"),
                    "n_tasks": m["n_tasks"],
                    "spilled_mb": m["spilled_mb"],
                    "shuffle_read_mb": m["shuffle_read_mb"],
                    "shuffle_write_mb": m["shuffle_write_mb"],
                    "gc_time_s": m["gc_time_s"],
                    "task_launch_s": m["task_launch_s"],
                })
                if elapsed is None:
                    return profiles
        return profiles

    # ------------------------------------------------------------------
    def _job_time(
        self,
        job: SparkJob,
        config: Configuration,
        m: Dict[str, float],
        n_exec: int,
        cores: int,
        slots: int,
        storage_mb: float,
        execution_mb: float,
    ) -> Optional[float]:
        node = self.cluster.min_node
        mean_speed = self.cluster.mean_cpu_speed()
        inputs = job.stage_inputs_mb()
        codec_ratio, codec_cpu = _CODEC[config["io_compression_codec"]]
        ser_cpu = _SER_CPU_MS_PER_MB[config["serializer"]]

        # Cache capacity check once per job: how much of the cached data
        # actually fits across executors?
        cached_need = job.cached_mb()
        if config["rdd_compress"]:
            cached_need *= codec_ratio
        cache_capacity = storage_mb * n_exec
        cache_fit = 1.0 if cached_need == 0 else min(1.0, cache_capacity / cached_need)
        m["cache_hit_fraction"] = cache_fit

        total_s = 0.0
        once_stages = [s for s in job.stages if not s.iterative]
        iter_stages = [s for s in job.stages if s.iterative]

        for s in once_stages:
            dt = self._stage_time(
                s, inputs[s.name], config, m, n_exec, cores, slots,
                execution_mb, cache_fit, first_pass=True,
                codec_ratio=codec_ratio, codec_cpu=codec_cpu, ser_cpu=ser_cpu,
                mean_speed=mean_speed,
            )
            if dt is None:
                return None
            total_s += dt

        for it in range(job.iterations):
            for s in iter_stages:
                dt = self._stage_time(
                    s, inputs[s.name], config, m, n_exec, cores, slots,
                    execution_mb, cache_fit, first_pass=(it == 0),
                    codec_ratio=codec_ratio, codec_cpu=codec_cpu, ser_cpu=ser_cpu,
                    mean_speed=mean_speed,
                )
                if dt is None:
                    return None
                total_s += dt
        return total_s

    def _stage_time(
        self,
        stage: SparkStage,
        input_mb: float,
        config: Configuration,
        m: Dict[str, float],
        n_exec: int,
        cores: int,
        slots: int,
        execution_mb: float,
        cache_fit: float,
        first_pass: bool,
        codec_ratio: float,
        codec_cpu: float,
        ser_cpu: float,
        mean_speed: float,
    ) -> Optional[float]:
        node = self.cluster.min_node
        if stage.parents and stage.shuffled:
            n_tasks = int(config["shuffle_partitions"])
        else:
            n_tasks = max(1, math.ceil(input_mb / 128.0))
        if config["dynamic_allocation"]:
            # Scale in the executor pool for small stages, out for big
            # backlogs — approximated as a modest efficiency bonus.
            eff_slots = min(slots, max(cores, n_tasks))
        else:
            eff_slots = slots
        m["n_tasks"] += n_tasks
        per_task_mb = input_mb / n_tasks

        # -- read side ------------------------------------------------------
        io_s = 0.0
        net_s = 0.0
        cpu_s = 0.0
        if not stage.parents:
            io_s += per_task_mb / node.disk_read_mbps
        elif stage.iterative and not first_pass:
            # Iterative stages re-read their parents: from cache when it
            # fits, otherwise recompute/refetch from disk.
            mem_mb = per_task_mb * cache_fit
            disk_mb = per_task_mb - mem_mb
            io_s += mem_mb / _MEM_BANDWIDTH_MBPS + disk_mb / node.disk_read_mbps
            m["recomputed_mb"] += disk_mb * n_tasks
            if config["rdd_compress"]:
                cpu_s += mem_mb * codec_cpu / 1000.0 / mean_speed
        else:
            # Shuffle read: deserialize + (maybe) decompress.
            wire_mb = per_task_mb * (codec_ratio if config["shuffle_compress"] else 1.0)
            inflight = min(
                float(config["reducer_max_inflight_mb"]), max(wire_mb, 1.0)
            )
            fetch_mbps = min(
                node.network_mbps / 8.0,
                _FETCH_BASE_MBPS * (inflight / 48.0) ** 0.3,
            )
            net_s += wire_mb / fetch_mbps
            cpu_s += per_task_mb * ser_cpu / 1000.0 / mean_speed
            if config["shuffle_compress"]:
                cpu_s += per_task_mb * codec_cpu / 1000.0 / mean_speed
            m["shuffle_read_mb"] += wire_mb * n_tasks

        # -- compute ---------------------------------------------------------
        cpu_s += per_task_mb * stage.cpu_ms_per_mb / 1000.0 / mean_speed

        # -- join: broadcast vs shuffle --------------------------------------
        if stage.join_small_mb > 0:
            if stage.join_small_mb <= config["broadcast_threshold_mb"]:
                # One-time broadcast of the small side to every executor.
                bc_s = stage.join_small_mb * n_exec / (node.network_mbps / 8.0)
                m["broadcast_mb"] += stage.join_small_mb * n_exec
                net_s += bc_s / n_tasks
            else:
                # Shuffle both sides: the small side adds wire volume and
                # the big side pays a full repartition.
                extra = (per_task_mb + stage.join_small_mb / n_tasks) * 0.8
                net_s += extra / (node.network_mbps / 8.0)
                cpu_s += extra * ser_cpu / 1000.0 / mean_speed
                m["shuffle_read_mb"] += extra * n_tasks

        # -- execution memory: spill when the working set overflows ---------
        exec_per_task = execution_mb / max(cores, 1)
        working_mb = per_task_mb * 1.5
        if working_mb > exec_per_task:
            spill_mb = (working_mb - exec_per_task) * 2.0
            io_s += spill_mb / (0.5 * (node.disk_read_mbps + node.disk_write_mbps))
            m["spilled_mb"] += spill_mb * n_tasks

        # -- shuffle write ----------------------------------------------------
        out_mb = per_task_mb * stage.output_ratio
        if stage.shuffled or stage.cached:
            write_mb = out_mb * (codec_ratio if config["shuffle_compress"] else 1.0)
            buffer_penalty = 1.0 + 0.1 * max(
                0.0, math.log2(64.0 / max(config["shuffle_file_buffer_kb"], 8))
            ) / 10.0
            io_s += write_mb / node.disk_write_mbps * buffer_penalty
            cpu_s += out_mb * ser_cpu / 1000.0 / mean_speed
            if config["shuffle_compress"]:
                cpu_s += out_mb * codec_cpu / 1000.0 / mean_speed
            m["shuffle_write_mb"] += write_mb * n_tasks
        m["ser_cpu_s"] += out_mb * ser_cpu / 1000.0 * n_tasks / mean_speed

        # -- GC pressure -------------------------------------------------------
        heap_mb = float(config["executor_memory_mb"])
        pressure = (working_mb * cores + storage_pressure(stage, per_task_mb)) / heap_mb
        m["heap_pressure"] = max(m["heap_pressure"], pressure)
        if pressure > 1.3:
            return None  # executor OOM, application dies
        gc_mult = 1.0 + 0.08 * (max(pressure, 0.0) / 0.7) ** 3
        cpu_s *= gc_mult
        m["gc_time_s"] += cpu_s * (gc_mult - 1.0) * n_tasks

        # -- assemble the stage ---------------------------------------------
        task_s = max(io_s + net_s, cpu_s) + 0.3 * min(io_s + net_s, cpu_s)
        waves = math.ceil(n_tasks / eff_slots)
        m["waves"] += waves
        launch_s = _TASK_LAUNCH_S * n_tasks / eff_slots + 0.05
        m["task_launch_s"] += launch_s

        # Locality: missing a data-local slot delays task dispatch.
        locality_miss = max(0.0, 1.0 - n_exec / len(self.cluster)) * 0.3
        locality_s = config["locality_wait_s"] * locality_miss
        m["locality_delay_s"] += locality_s

        skew_factor = 1.0 + stage.skew * math.sqrt(math.log(n_tasks + 1.0)) / 2.0
        sf = self.cluster.straggler_factor()
        if config["speculation"]:
            straggler = max(1.02, 1.0 + (sf - 1.0) * 0.3)
        else:
            straggler = sf
        tail_s = task_s * (skew_factor - 1.0)
        m["skew_tail_s"] += tail_s

        stage_s = waves * task_s * straggler + tail_s + launch_s + locality_s
        m["stage_time_s"] += stage_s
        m["cpu_s"] += cpu_s * n_tasks
        m["io_s"] += io_s * n_tasks
        m["net_s"] += net_s * n_tasks
        return stage_s


_FETCH_BASE_MBPS = 60.0


def storage_pressure(stage: SparkStage, per_task_mb: float) -> float:
    """Heap occupied by partitions this stage pins for caching."""
    return per_task_mb * (1.0 if stage.cached else 0.2)
