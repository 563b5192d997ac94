"""The Hadoop MapReduce simulator: a Starfish-style phase cost model.

Each job is costed through the canonical pipeline — read, map, collect/
spill/merge, shuffle, sort/merge, reduce, write — with the knob effects
the surveyed literature tunes:

* reducer count: a U-shaped latency curve (too few = no parallelism and
  reduce-side spills; too many = per-task overhead, small files, skew);
* ``io.sort.mb`` spill cliffs and ``io.sort.factor`` merge passes;
* container sizing vs. slot concurrency (bigger JVMs, fewer waves... of
  fewer slots), with an OOM failure region;
* intermediate compression trading CPU for network/disk bytes;
* slowstart overlap vs. slot hoarding;
* JVM reuse and speculative execution (whose value flips sign between
  homogeneous and heterogeneous clusters).
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
from repro.systems.hadoop.job import HadoopWorkload, MRJobSpec
from repro.systems.hadoop.knobs import build_hadoop_space
from repro.systems.vectorize import (
    emap,
    emap_where,
    knob_bools,
    knob_floats,
    knob_table,
    measurements_from_columns,
    metric_columns,
    put_counts,
)

__all__ = ["HadoopSimulator"]

_CODEC = {  # codec -> (size ratio, cpu ms per MB compressed+decompressed)
    "snappy": (0.55, 1.0),
    "lz4": (0.60, 0.7),
    "gzip": (0.35, 6.0),
}
_JVM_STARTUP_S = 1.0
_JOB_SETUP_S = 2.0
_FETCH_MBPS_PER_COPY = 20.0


class HadoopSimulator(SystemUnderTune):
    """MapReduce on a simulated cluster."""

    kind = "hadoop"

    METRIC_NAMES = [
        "map_phase_s",
        "shuffle_phase_s",
        "reduce_phase_s",
        "spilled_mb",
        "merge_passes",
        "map_waves",
        "reduce_waves",
        "hdfs_read_mb",
        "hdfs_write_mb",
        "shuffle_mb",
        "jvm_startup_s",
        "speculative_waste_s",
        "skew_factor",
        "map_slots",
        "reduce_slots",
        "cpu_s",
        "io_s",
        "net_s",
        "n_map_tasks",
        "n_reduce_tasks",
        "combine_output_mb",
        "compress_ratio",
    ]

    def __init__(self, cluster: Optional[Cluster] = None, name: str = "hadoop-sim"):
        self.cluster = cluster or Cluster.uniform(8)
        self.name = name
        self._space = build_hadoop_space(self.cluster.min_node.memory_mb)

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    @property
    def metric_names(self) -> List[str]:
        return list(self.METRIC_NAMES)

    # ------------------------------------------------------------------
    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        assert isinstance(workload, HadoopWorkload)
        m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}
        total_s = 0.0
        for job in workload.jobs:
            job_s = self._job_time(job, config, m)
            if job_s is None:
                m["elapsed_before_failure_s"] = total_s + 20.0
                return Measurement(
                    runtime_s=math.inf, metrics=m, failed=True, cost_units=1.0
                )
            total_s += job_s + _JOB_SETUP_S
        total_s = max(total_s, 1e-3)
        cost = total_s * len(self.cluster) / 3600.0
        return Measurement(runtime_s=total_s, metrics=m, cost_units=cost)

    # ------------------------------------------------------------------
    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Evaluate a whole candidate batch as one numpy computation.

        Bit-for-bit identical to the scalar :meth:`run` loop.  The four
        per-job failure points (no map slots, map container OOM, no
        reduce slots, reduce container OOM) become alive-row masks: a
        dead row's metric columns freeze at the values the scalar early
        return would have left, and its lanes compute garbage harmlessly
        under ``np.errstate`` without being read again.
        """
        self.check_workload(workload)
        assert isinstance(workload, HadoopWorkload)
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

        codec_ratio = knob_table(configs, "compress_codec", _CODEC, 0)
        codec_cpu = knob_table(configs, "compress_codec", _CODEC, 1)
        compress = knob_bools(configs, "map_output_compress")
        combiner_on = knob_bools(configs, "combiner_enabled")
        jvm_reuse = knob_bools(configs, "jvm_reuse")
        spec = knob_bools(configs, "speculative_execution")
        block_mb = knob_floats(configs, "dfs_block_size_mb")
        io_sort_mb = knob_floats(configs, "io_sort_mb")
        spill_pct = knob_floats(configs, "io_sort_spill_percent")
        sort_factor = np.array(
            [max(2, int(c["io_sort_factor"])) for c in configs], dtype=float
        )
        map_mem = knob_floats(configs, "mapreduce_map_memory_mb")
        red_mem = knob_floats(configs, "mapreduce_reduce_memory_mb")
        n_red = knob_floats(configs, "mapreduce_job_reduces")
        slowstart = knob_floats(configs, "reduce_slowstart")
        copies = knob_floats(configs, "shuffle_parallel_copies")
        red_buf_pct = knob_floats(configs, "shuffle_input_buffer_percent")
        repl = np.array(
            [int(c["output_replication"]) for c in configs], dtype=float
        )
        # Batch-axis mirror of _slots: np.floor_divide matches Python
        # float ``//`` bit-for-bit, and per-node slot counts are small
        # integers, so the float accumulation stays exact.
        def slots_for(sizes: np.ndarray) -> np.ndarray:
            total = np.zeros(sizes.shape[0])
            for nd in self.cluster.nodes:
                by_mem = np.floor_divide(nd.memory_mb * 0.9, sizes)
                total += np.maximum(0.0, np.minimum(float(nd.cores), by_mem))
            return total

        map_slots = slots_for(map_mem)
        red_slots = slots_for(red_mem)
        sf = self.cluster.straggler_factor()
        strag = np.where(spec, max(1.03, 1.0 + (sf - 1.0) * 0.3), sf)
        agg_net_mbps = sum(nd.network_mbps for nd in self.cluster.nodes) / 8.0
        disk_rw = 0.5 * (node.disk_read_mbps + node.disk_write_mbps)

        alive = np.ones(n, dtype=bool)
        failure_elapsed = np.full(n, 20.0)
        total_s = np.zeros(n)

        p2 = map_slots > 0
        p4 = red_slots > 0
        compress_ratio_vals = np.where(compress, codec_ratio, 1.0)

        def job_arrays(job: MRJobSpec) -> Dict[str, np.ndarray]:
            """All pure per-job arrays: config- and spec-dependent only.

            Nothing here reads the alive mask, so repeated job templates
            (densified workloads) can share one computation; the loop
            below replays only the masked accumulations.
            """
            J: Dict[str, np.ndarray] = {}

            # ---- map phase -------------------------------------------
            n_maps = np.maximum(1.0, np.ceil(job.input_mb / block_mb))
            J["n_maps"] = n_maps
            map_need = io_sort_mb + job.task_mem_overhead_mb
            J["p3"] = p2 & ~(map_mem < map_need)

            per_map_in = job.input_mb / n_maps
            read_s = per_map_in / node.disk_read_mbps
            map_cpu_s = per_map_in * job.map_cpu_ms_per_mb / 1000.0 / mean_speed

            out_mb = per_map_in * job.map_selectivity
            comb = combiner_on & (job.combiner_reduction > 0)
            map_cpu_s = map_cpu_s + np.where(
                comb, out_mb * 2.0 / 1000.0 / mean_speed, 0.0
            )
            out_mb = np.where(comb, out_mb * (1.0 - job.combiner_reduction), out_mb)
            J["combine_out"] = out_mb * n_maps

            disk_out_mb = np.where(compress, out_mb * codec_ratio, out_mb)
            map_cpu_s = map_cpu_s + np.where(
                compress, out_mb * codec_cpu / 1000.0 / mean_speed, 0.0
            )

            buffer_mb = io_sort_mb * spill_pct
            n_spills = np.maximum(
                1.0, np.ceil(out_mb / np.maximum(buffer_mb, 1.0))
            )
            multi = n_spills > 1
            passes = np.where(
                multi,
                np.maximum(
                    1.0,
                    np.ceil(
                        emap_where(
                            multi, math.log, n_spills, sort_factor, fill=1.0
                        )
                    ),
                ),
                0.0,
            )
            spill_io_mb = np.where(
                multi, disk_out_mb * (1.0 + 2.0 * passes), disk_out_mb
            )
            J["map_spilled"] = (n_spills - 1.0) * disk_out_mb * n_maps
            J["passes"] = passes
            spill_s = spill_io_mb / disk_rw + 0.03 * n_spills
            sort_cpu_s = (
                out_mb
                * 1.0
                * emap(lambda o: math.log2(max(o, 2.0)), out_mb)
                / 1000.0
                / mean_speed
            )

            map_task_s = read_s + map_cpu_s + spill_s + sort_cpu_s
            jvm_maps = np.where(jvm_reuse, map_slots, n_maps)
            map_jvm_s = _JVM_STARTUP_S * jvm_maps / map_slots
            J["map_jvm_s"] = map_jvm_s
            map_waves = np.ceil(n_maps / map_slots)
            J["map_waves"] = map_waves
            J["spec_map"] = 0.05 * map_task_s
            map_phase_s = map_waves * map_task_s * strag + map_jvm_s

            slot_pressure = np.minimum(1.0, n_red / np.maximum(map_slots, 1.0))
            map_phase_s = map_phase_s * (
                1.0 + 0.15 * (1.0 - slowstart) * slot_pressure
            )
            J["map_phase_s"] = map_phase_s
            J["hdfs_read"] = np.full(n, job.input_mb)
            J["map_cpu_total"] = (map_cpu_s + sort_cpu_s) * n_maps
            J["map_io_total"] = (read_s + spill_s) * n_maps

            # ---- shuffle ---------------------------------------------
            shuffle_mb = disk_out_mb * n_maps
            J["shuffle_mb"] = shuffle_mb
            fetch_mbps = np.minimum(
                agg_net_mbps, n_red * copies * _FETCH_MBPS_PER_COPY
            )
            shuffle_s = shuffle_mb / np.maximum(fetch_mbps, 1.0)
            overlap = map_phase_s * (1.0 - slowstart) * 0.7
            J["shuffle_eff_s"] = np.maximum(shuffle_s - overlap, 0.05 * shuffle_s)
            J["shuffle_s"] = shuffle_s

            # ---- reduce phase ----------------------------------------
            per_red_mb = shuffle_mb / n_red
            per_red_raw = out_mb * n_maps / n_red
            red_buffer = red_mem * red_buf_pct
            red_need = np.minimum(per_red_raw, red_buffer) + job.task_mem_overhead_mb
            p5 = J["p3"] & p4 & ~(red_mem < red_need)
            J["p5"] = p5

            ov = per_red_raw > red_buffer
            red_merge = np.where(
                ov,
                np.maximum(
                    1.0,
                    np.ceil(
                        emap_where(
                            ov,
                            math.log,
                            np.maximum(
                                per_red_raw / np.maximum(red_buffer, 1.0), 2.0
                            ),
                            sort_factor,
                            fill=2.0,
                        )
                    ),
                ),
                0.0,
            )
            J["p5ov"] = p5 & ov
            J["red_merge"] = red_merge
            red_io_s = np.where(
                ov, per_red_mb * 2.0 * red_merge / disk_rw, 0.0
            )
            J["red_spilled"] = per_red_mb * n_red
            red_cpu_s = per_red_raw * job.reduce_cpu_ms_per_mb / 1000.0 / mean_speed
            red_cpu_s = red_cpu_s + np.where(
                compress, per_red_raw * codec_cpu / 1000.0 / mean_speed, 0.0
            )

            out_per_red = per_red_raw * job.reduce_selectivity
            write_s = out_per_red / node.disk_write_mbps + (
                out_per_red * (repl - 1.0) / (node.network_mbps / 8.0)
            )
            J["hdfs_write"] = out_per_red * n_red * repl

            J["skew"] = 1.0 + job.skew * np.sqrt(emap(math.log, n_red + 1.0))

            red_task_s = (
                per_red_mb / node.disk_read_mbps + red_io_s + red_cpu_s + write_s
            )
            jvm_reds = np.where(jvm_reuse, red_slots, n_red)
            red_jvm_s = (
                _JVM_STARTUP_S
                * np.minimum(jvm_reds, n_red)
                / np.minimum(red_slots, np.maximum(n_red, 1.0))
            )
            red_waves = np.ceil(n_red / red_slots)
            J["red_waves"] = red_waves
            sched_s = 0.3 * n_red / red_slots
            J["spec_red"] = 0.05 * red_task_s
            reduce_phase_s = (
                red_waves * red_task_s * J["skew"] * strag + red_jvm_s + sched_s
            )
            J["reduce_phase_s"] = reduce_phase_s
            J["red_cpu_total"] = red_cpu_s * n_red
            J["red_io_total"] = (red_io_s + write_s) * n_red

            J["p3spec"] = J["p3"] & spec
            J["p5spec"] = p5 & spec
            job_s = map_phase_s + J["shuffle_eff_s"] + reduce_phase_s
            J["job_total"] = job_s + _JOB_SETUP_S
            return J

        job_memo: Dict[tuple, Dict[str, np.ndarray]] = {}

        with np.errstate(all="ignore"):
            for job in workload.jobs:
                if not alive.any():
                    break
                jkey = (
                    job.input_mb, job.map_selectivity, job.combiner_reduction,
                    job.map_cpu_ms_per_mb, job.reduce_cpu_ms_per_mb,
                    job.task_mem_overhead_mb, job.reduce_selectivity, job.skew,
                )
                J = job_memo.get(jkey)
                if J is None:
                    J = job_memo[jkey] = job_arrays(job)
                total_before = total_s.copy()

                # Masked accumulations, replayed in the scalar path's
                # order per column (masks are alive & <pure mask>).
                a3 = alive & J["p3"]
                a5 = alive & J["p5"]
                acc("n_map_tasks", alive, J["n_maps"])
                put_counts(cols, "map_slots", alive & p2, map_slots)
                acc("combine_output_mb", a3, J["combine_out"])
                put("compress_ratio", a3, compress_ratio_vals)
                acc("spilled_mb", a3, J["map_spilled"])
                acc("merge_passes", a3, J["passes"])
                acc("jvm_startup_s", a3, J["map_jvm_s"])
                acc("map_waves", a3, J["map_waves"])
                acc("speculative_waste_s", alive & J["p3spec"], J["spec_map"])
                acc("map_phase_s", a3, J["map_phase_s"])
                acc("hdfs_read_mb", a3, J["hdfs_read"])
                acc("cpu_s", a3, J["map_cpu_total"])
                acc("io_s", a3, J["map_io_total"])
                acc("shuffle_mb", a3, J["shuffle_mb"])
                acc("shuffle_phase_s", a3, J["shuffle_eff_s"])
                acc("net_s", a3, J["shuffle_s"])
                put_counts(cols, "reduce_slots", a3 & p4, red_slots)
                acc("merge_passes", alive & J["p5ov"], J["red_merge"])
                acc("spilled_mb", alive & J["p5ov"], J["red_spilled"])
                acc("hdfs_write_mb", a5, J["hdfs_write"])
                put("skew_factor", a5, J["skew"])
                acc("reduce_waves", a5, J["red_waves"])
                acc("n_reduce_tasks", a5, n_red)
                acc("speculative_waste_s", alive & J["p5spec"], J["spec_red"])
                acc("reduce_phase_s", a5, J["reduce_phase_s"])
                acc("cpu_s", a5, J["red_cpu_total"])
                acc("io_s", a5, J["red_io_total"])

                newly = alive & ~J["p5"]
                np.copyto(failure_elapsed, total_before + 20.0, where=newly)
                alive = a5
                np.copyto(total_s, total_before + J["job_total"], where=alive)

            total_s = np.maximum(total_s, 1e-3)
            cost = total_s * len(self.cluster) / 3600.0
        return measurements_from_columns(
            cols,
            self.METRIC_NAMES,
            total_s,
            cost,
            failed=~alive,
            failure_elapsed=failure_elapsed,
            failure_cost=np.ones(n),
        )

    # ------------------------------------------------------------------
    def profile(self, workload: Workload, config: Configuration) -> List[Dict[str, float]]:
        """Per-job phase breakdown under a configuration.

        One dict per job with map/shuffle/reduce attribution, spills,
        and wave counts — the per-job view a Dione/Starfish-style
        profiler feeds to what-if analysis.  Failed jobs report
        ``failed = 1.0`` and stop the pipeline (as the real cluster
        would).
        """
        self.check_workload(workload)
        assert isinstance(workload, HadoopWorkload)
        profiles: List[Dict[str, float]] = []
        for job in workload.jobs:
            m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}
            elapsed = self._job_time(job, config, m)
            entry = {
                "job": job.name,
                "failed": 0.0 if elapsed is not None else 1.0,
                "elapsed_s": elapsed if elapsed is not None else float("inf"),
                "map_phase_s": m["map_phase_s"],
                "shuffle_phase_s": m["shuffle_phase_s"],
                "reduce_phase_s": m["reduce_phase_s"],
                "spilled_mb": m["spilled_mb"],
                "map_waves": m["map_waves"],
                "reduce_waves": m["reduce_waves"],
                "shuffle_mb": m["shuffle_mb"],
            }
            profiles.append(entry)
            if elapsed is None:
                break
        return profiles

    # ------------------------------------------------------------------
    def _slots(self, container_mb: float) -> int:
        """Cluster-wide concurrent containers of the given size."""
        total = 0
        for node in self.cluster.nodes:
            by_mem = int(node.memory_mb * 0.9 // container_mb)
            total += max(0, min(node.cores, by_mem))
        return total

    def _straggler(self, config: Configuration, m: Dict[str, float], work_s: float) -> float:
        """Tail-latency multiplier for synchronous phases."""
        sf = self.cluster.straggler_factor()
        if config["speculative_execution"]:
            m["speculative_waste_s"] += 0.05 * work_s
            # Backup attempts rescue stragglers but steal slots — a net
            # loss when there are no stragglers to rescue.
            return max(1.03, 1.0 + (sf - 1.0) * 0.3)
        return sf

    def _job_time(
        self, job: MRJobSpec, config: Configuration, m: Dict[str, float]
    ) -> Optional[float]:
        node = self.cluster.min_node
        mean_speed = self.cluster.mean_cpu_speed()
        codec_ratio, codec_cpu = _CODEC[config["compress_codec"]]
        compress = bool(config["map_output_compress"])

        # ---- map phase -------------------------------------------------
        block_mb = float(config["dfs_block_size_mb"])
        n_maps = max(1, math.ceil(job.input_mb / block_mb))
        m["n_map_tasks"] += n_maps
        map_slots = self._slots(float(config["mapreduce_map_memory_mb"]))
        if map_slots == 0:
            return None
        m["map_slots"] = map_slots

        # Container OOM: the task needs its sort buffer plus JVM overhead.
        map_need = config["io_sort_mb"] + job.task_mem_overhead_mb
        if config["mapreduce_map_memory_mb"] < map_need:
            return None

        per_map_in = job.input_mb / n_maps
        read_s = per_map_in / node.disk_read_mbps
        map_cpu_s = per_map_in * job.map_cpu_ms_per_mb / 1000.0 / mean_speed

        out_mb = per_map_in * job.map_selectivity
        if config["combiner_enabled"] and job.combiner_reduction > 0:
            map_cpu_s += out_mb * 2.0 / 1000.0 / mean_speed
            out_mb *= 1.0 - job.combiner_reduction
        m["combine_output_mb"] += out_mb * n_maps

        disk_out_mb = out_mb
        if compress:
            disk_out_mb = out_mb * codec_ratio
            map_cpu_s += out_mb * codec_cpu / 1000.0 / mean_speed
        m["compress_ratio"] = codec_ratio if compress else 1.0

        # Spill/merge: the sort buffer flushes at the spill threshold;
        # more spill files than the merge fanout forces extra passes.
        buffer_mb = config["io_sort_mb"] * config["io_sort_spill_percent"]
        n_spills = max(1, math.ceil(out_mb / max(buffer_mb, 1.0)))
        if n_spills > 1:
            passes = max(
                1,
                math.ceil(math.log(n_spills, max(2, int(config["io_sort_factor"])))),
            )
            # Initial spill writes, then each merge pass re-reads and
            # re-writes the whole output.
            spill_io_mb = disk_out_mb * (1.0 + 2.0 * passes)
        else:
            passes = 0
            spill_io_mb = disk_out_mb  # single in-memory sort, one write
        m["spilled_mb"] += (n_spills - 1) * disk_out_mb * n_maps
        m["merge_passes"] += passes
        spill_s = (
            spill_io_mb / (0.5 * (node.disk_read_mbps + node.disk_write_mbps))
            + 0.03 * n_spills
        )
        sort_cpu_s = out_mb * 1.0 * math.log2(max(out_mb, 2.0)) / 1000.0 / mean_speed

        map_task_s = read_s + map_cpu_s + spill_s + sort_cpu_s
        jvm_maps = map_slots if config["jvm_reuse"] else n_maps
        map_jvm_s = _JVM_STARTUP_S * jvm_maps / map_slots
        m["jvm_startup_s"] += map_jvm_s
        map_waves = math.ceil(n_maps / map_slots)
        m["map_waves"] += map_waves
        map_phase_s = map_waves * map_task_s * self._straggler(config, m, map_task_s) + map_jvm_s

        # Early reducers hoard containers while maps still need them.
        n_red = int(config["mapreduce_job_reduces"])
        slot_pressure = min(1.0, n_red / max(map_slots, 1))
        map_phase_s *= 1.0 + 0.15 * (1.0 - config["reduce_slowstart"]) * slot_pressure
        m["map_phase_s"] += map_phase_s
        m["hdfs_read_mb"] += job.input_mb
        m["cpu_s"] += (map_cpu_s + sort_cpu_s) * n_maps
        m["io_s"] += (read_s + spill_s) * n_maps

        # ---- shuffle ---------------------------------------------------
        shuffle_mb = disk_out_mb * n_maps
        m["shuffle_mb"] += shuffle_mb
        agg_net_mbps = sum(n.network_mbps for n in self.cluster.nodes) / 8.0
        fetch_mbps = min(
            agg_net_mbps,
            n_red * config["shuffle_parallel_copies"] * _FETCH_MBPS_PER_COPY,
        )
        shuffle_s = shuffle_mb / max(fetch_mbps, 1.0)
        # Overlap with the map phase, controlled by slowstart.
        overlap = map_phase_s * (1.0 - config["reduce_slowstart"]) * 0.7
        shuffle_eff_s = max(shuffle_s - overlap, 0.05 * shuffle_s)
        m["shuffle_phase_s"] += shuffle_eff_s
        m["net_s"] += shuffle_s

        # ---- reduce phase -----------------------------------------------
        red_slots = self._slots(float(config["mapreduce_reduce_memory_mb"]))
        if red_slots == 0:
            return None
        m["reduce_slots"] = red_slots
        per_red_mb = shuffle_mb / n_red
        per_red_raw_mb = out_mb * n_maps / n_red  # decompressed
        red_buffer_mb = (
            config["mapreduce_reduce_memory_mb"]
            * config["shuffle_input_buffer_percent"]
        )
        red_need = min(per_red_raw_mb, red_buffer_mb) + job.task_mem_overhead_mb
        if config["mapreduce_reduce_memory_mb"] < red_need:
            return None

        red_io_s = 0.0
        if per_red_raw_mb > red_buffer_mb:
            merge_passes = max(
                1,
                math.ceil(
                    math.log(
                        max(per_red_raw_mb / max(red_buffer_mb, 1.0), 2.0),
                        max(2, int(config["io_sort_factor"])),
                    )
                ),
            )
            m["merge_passes"] += merge_passes
            red_io_s += (
                per_red_mb * 2.0 * merge_passes
                / (0.5 * (node.disk_read_mbps + node.disk_write_mbps))
            )
            m["spilled_mb"] += per_red_mb * n_red
        red_cpu_s = per_red_raw_mb * job.reduce_cpu_ms_per_mb / 1000.0 / mean_speed
        if compress:
            red_cpu_s += per_red_raw_mb * codec_cpu / 1000.0 / mean_speed

        out_per_red_mb = per_red_raw_mb * job.reduce_selectivity
        repl = int(config["output_replication"])
        write_s = out_per_red_mb / node.disk_write_mbps + (
            out_per_red_mb * (repl - 1) / (node.network_mbps / 8.0)
        )
        m["hdfs_write_mb"] += out_per_red_mb * n_red * repl

        # Key skew concentrates on few reducers; imbalance worsens as the
        # partition count grows past the number of heavy keys.
        skew_factor = 1.0 + job.skew * math.sqrt(math.log(n_red + 1.0))
        m["skew_factor"] = skew_factor

        red_task_s = per_red_mb / node.disk_read_mbps + red_io_s + red_cpu_s + write_s
        jvm_reds = red_slots if config["jvm_reuse"] else n_red
        red_jvm_s = _JVM_STARTUP_S * min(jvm_reds, n_red) / min(red_slots, max(n_red, 1))
        red_waves = math.ceil(n_red / red_slots)
        m["reduce_waves"] += red_waves
        m["n_reduce_tasks"] += n_red
        sched_overhead_s = 0.3 * n_red / red_slots  # task launch + small files
        reduce_phase_s = (
            red_waves * red_task_s * skew_factor * self._straggler(config, m, red_task_s)
            + red_jvm_s
            + sched_overhead_s
        )
        m["reduce_phase_s"] += reduce_phase_s
        m["cpu_s"] += red_cpu_s * n_red
        m["io_s"] += (red_io_s + write_s) * n_red

        return map_phase_s + shuffle_eff_s + reduce_phase_s
