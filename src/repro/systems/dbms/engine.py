"""The DBMS simulator: an analytic cost model over the knob catalog.

The simulator executes a :class:`~repro.systems.dbms.query.DbmsWorkload`
under a configuration and produces a runtime plus ~25 internal metrics.
It is intentionally *not* a queueing simulation — it is a deterministic
cost model with the response-surface features real DBMS tuning contends
with:

* diminishing returns on buffer pool (working-set hit-rate curve);
* spill cliffs when sorts/hash joins exceed working memory;
* planner mischoices when ``random_page_cost`` misstates the hardware;
* an out-of-memory *failure region* when aggregate memory is oversized;
* U-shaped optima (checkpoint interval, deadlock timeout);
* CPU/I/O tradeoffs (compression) whose best setting depends on the
  hardware generation — the heterogeneity axis;
* a majority of knobs that do nothing, as in real catalogs.

Determinism: given (workload, config, cluster) the measurement is exact;
run-to-run noise is injected by
:class:`~repro.core.system.InstrumentedSystem`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.systems.cluster import Cluster, NodeSpec
from repro.systems.dbms.knobs import build_dbms_space
from repro.systems.dbms.query import DbmsWorkload, QuerySpec, ScanSpec
from repro.systems.vectorize import (
    emap_where,
    knob_bools,
    knob_floats,
    knob_table,
    knob_values,
    measurements_from_columns,
    metric_columns,
)

__all__ = ["DbmsSimulator"]

_MERGE_FANOUT = 16          # external-sort merge fanout
_ROWS_PER_PAGE = 100        # assumed tuple density for index math
_CONN_OVERHEAD_MB = 1.5     # per-connection-slot reserved memory
_COMPRESSION = {            # codec -> (size ratio, cpu ms per MB)
    "lz4": (0.60, 1.2),
    "zlib": (0.40, 6.0),
}


class DbmsSimulator(SystemUnderTune):
    """A parallel analytical/transactional DBMS on a cluster.

    Args:
        cluster: nodes the DBMS runs on; scans parallelize across nodes
            and synchronous phases pay the cluster's straggler factor.
        name: registry/report label.
    """

    kind = "dbms"

    METRIC_NAMES = [
        "buffer_hit_ratio",
        "cache_miss_ratio",
        "pages_read_mb",
        "pages_read",
        "spill_mb",
        "sort_external_runs",
        "io_time_s",
        "cpu_time_s",
        "lock_wait_s",
        "commit_wait_s",
        "checkpoint_overhead_s",
        "wal_mb",
        "tps",
        "mem_static_mb",
        "mem_dynamic_mb",
        "mem_headroom_mb",
        "parallel_workers_used",
        "effective_iops",
        "seq_read_mbps",
        "compression_cpu_s",
        "index_scans",
        "seq_scans",
        "deadlock_checks",
        "bg_writes_mb",
        "connections_used",
    ]

    def __init__(self, cluster: Optional[Cluster] = None, name: str = "dbms-sim"):
        self.cluster = cluster or Cluster.single_node()
        self.name = name
        self._space = build_dbms_space(self.cluster.min_node.memory_mb)

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    @property
    def metric_names(self) -> List[str]:
        return list(self.METRIC_NAMES)

    # ------------------------------------------------------------------
    def run(self, workload: Workload, config: Configuration) -> Measurement:
        self.check_workload(workload)
        assert isinstance(workload, DbmsWorkload)
        node = self.cluster.min_node
        m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}

        sessions = min(workload.sessions, int(config["max_connections"]))
        m["connections_used"] = sessions
        workers = min(int(config["max_parallel_workers"]), self.cluster.total_cores)
        m["parallel_workers_used"] = workers

        # ---- memory accounting & OOM region ---------------------------
        static_mb = (
            config["buffer_pool_mb"]
            + config["wal_buffers_mb"]
            + config["temp_buffers_mb"]
            + config["max_connections"] * _CONN_OVERHEAD_MB
        )
        # Hash memory multiplies only hash operators, roughly half the
        # operator population; sorts use plain work_mem.
        operator_mem = config["work_mem_mb"] * (1.0 + 0.5 * config["hash_mem_multiplier"])
        dynamic_mb = operator_mem * (sessions + workers)
        m["mem_static_mb"] = static_mb
        m["mem_dynamic_mb"] = dynamic_mb
        headroom = node.memory_mb - static_mb - dynamic_mb
        m["mem_headroom_mb"] = headroom
        if headroom < 0:
            # The box thrashes, the OOM killer wins: a failed run that
            # still wasted wall-clock before dying.
            m["elapsed_before_failure_s"] = 30.0
            return Measurement(
                runtime_s=math.inf, metrics=m, failed=True, cost_units=1.0
            )

        # ---- buffer pool hit rate --------------------------------------
        bp = float(config["buffer_pool_mb"])
        ws = max(workload.hot_set_mb(), 1.0)
        hit = min(0.995, bp / (bp + 0.5 * ws))
        m["buffer_hit_ratio"] = hit
        m["cache_miss_ratio"] = 1.0 - hit

        # ---- I/O capability under this config --------------------------
        prefetch_boost = 0.7 + 0.3 * min(1.0, config["prefetch_depth"] / 32.0)
        seq_mbps = node.disk_read_mbps * prefetch_boost
        m["seq_read_mbps"] = seq_mbps
        queue_depth = min(float(config["io_concurrency"]), 64.0)
        eff_iops = node.disk_random_iops * math.sqrt(queue_depth)
        m["effective_iops"] = eff_iops

        comp_ratio, comp_cpu_ms = 1.0, 0.0
        if config["compression"]:
            comp_ratio, comp_cpu_ms = _COMPRESSION[config["compression_algo"]]

        # ---- analytical queries ------------------------------------------
        total_query_s = 0.0
        for q in workload.queries:
            n_exec = q.weight * workload.query_rounds
            total_query_s += n_exec * self._query_time(
                q, workload, config, node, hit, seq_mbps, eff_iops,
                comp_ratio, comp_cpu_ms, workers, m,
            )

        # ---- transactional mix ---------------------------------------------
        total_oltp_s = 0.0
        if workload.transactions and workload.n_transactions > 0:
            total_oltp_s = self._oltp_time(
                workload, config, node, hit, eff_iops, sessions, m
            )

        runtime = total_query_s + total_oltp_s
        # Inert-knob micro-effects keep the catalog honest: measurable
        # by a perfect profiler, invisible to tuning.
        if config["track_io_timing"]:
            runtime *= 1.002
        if config["ssl_enabled"]:
            runtime *= 1.001
        runtime = max(runtime, 1e-3)
        cost = runtime * len(self.cluster) / 3600.0  # node-hours
        return Measurement(runtime_s=runtime, metrics=m, cost_units=cost)

    # ------------------------------------------------------------------
    # Metrics the scalar path has already written when the OOM early
    # return fires; everything else must read 0.0 on failed rows.
    _FAILURE_KEEP = frozenset({
        "connections_used",
        "parallel_workers_used",
        "mem_static_mb",
        "mem_dynamic_mb",
        "mem_headroom_mb",
    })

    def run_batch_vectorized(
        self, workload: Workload, configs: Sequence[Configuration]
    ) -> List[Measurement]:
        """Evaluate a whole candidate batch as one numpy computation.

        Bit-for-bit identical to ``[self.run(workload, c) for c in
        configs]``: every config-dependent term is computed over the
        batch axis with the same IEEE-754 operation order as the scalar
        path, and transcendentals go through ``emap*`` (see
        :mod:`repro.systems.vectorize`).
        """
        self.check_workload(workload)
        assert isinstance(workload, DbmsWorkload)
        configs = list(configs)
        n = len(configs)
        if n == 0:
            return []
        node = self.cluster.min_node
        cols = metric_columns(self.METRIC_NAMES, n)

        max_conn = knob_floats(configs, "max_connections")
        sessions = np.minimum(float(workload.sessions), max_conn)
        cols["connections_used"] = sessions.astype(np.int64)
        workers = np.minimum(
            knob_floats(configs, "max_parallel_workers"),
            float(self.cluster.total_cores),
        )
        cols["parallel_workers_used"] = workers.astype(np.int64)

        # ---- memory accounting & OOM region ---------------------------
        bp = knob_floats(configs, "buffer_pool_mb")
        static_mb = (
            bp
            + knob_floats(configs, "wal_buffers_mb")
            + knob_floats(configs, "temp_buffers_mb")
            + max_conn * _CONN_OVERHEAD_MB
        )
        work_mem = knob_floats(configs, "work_mem_mb")
        hash_mult = knob_floats(configs, "hash_mem_multiplier")
        operator_mem = work_mem * (1.0 + 0.5 * hash_mult)
        dynamic_mb = operator_mem * (sessions + workers)
        cols["mem_static_mb"] = static_mb.copy()
        cols["mem_dynamic_mb"] = dynamic_mb.copy()
        headroom = node.memory_mb - static_mb - dynamic_mb
        cols["mem_headroom_mb"] = headroom.copy()
        oom = headroom < 0

        # OOM rows keep computing below (their lanes are finite and
        # discarded); metric columns are scrubbed before assembly.
        with np.errstate(all="ignore"):
            # ---- buffer pool hit rate ---------------------------------
            ws = max(workload.hot_set_mb(), 1.0)
            hit = np.minimum(0.995, bp / (bp + 0.5 * ws))
            cols["buffer_hit_ratio"] = hit.copy()
            cols["cache_miss_ratio"] = 1.0 - hit

            # ---- I/O capability under this config ---------------------
            prefetch_boost = 0.7 + 0.3 * np.minimum(
                1.0, knob_floats(configs, "prefetch_depth") / 32.0
            )
            seq_mbps = node.disk_read_mbps * prefetch_boost
            cols["seq_read_mbps"] = seq_mbps.copy()
            queue_depth = np.minimum(knob_floats(configs, "io_concurrency"), 64.0)
            eff_iops = node.disk_random_iops * np.sqrt(queue_depth)
            cols["effective_iops"] = eff_iops.copy()

            comp_on = knob_bools(configs, "compression")
            comp_ratio = np.where(
                comp_on, knob_table(configs, "compression_algo", _COMPRESSION, 0), 1.0
            )
            comp_cpu_ms = np.where(
                comp_on, knob_table(configs, "compression_algo", _COMPRESSION, 1), 0.0
            )

            arrs = {
                "bp": bp,
                "hit": hit,
                "seq_mbps": seq_mbps,
                "eff_iops": eff_iops,
                "comp_ratio": comp_ratio,
                "comp_cpu_ms": comp_cpu_ms,
                "workers": workers,
                "sessions": sessions,
                "work_mem": work_mem,
                "hash_mult": hash_mult,
                "rpc": knob_floats(configs, "random_page_cost"),
                # Query-independent subexpressions the per-query kernel
                # re-reads every scan; hoisting a *repeated identical*
                # float expression never changes its bits.
                "one_minus_hit": 1.0 - hit,
                "iops_floor": np.maximum(eff_iops, 1.0),
                "comp_lt1": comp_ratio < 1.0,
                "half_rw": 0.5 * (seq_mbps + node.disk_write_mbps),
            }

            # ---- analytical queries -----------------------------------
            # Repeated query templates (densified mixes, query_rounds)
            # produce identical per-query arrays: memoize the pure
            # computation per template and replay only the column adds,
            # which keeps the accumulation sequence — and therefore
            # every intermediate float — exactly as a template-blind
            # loop would produce it.
            total_query_s = np.zeros(n)
            query_memo: Dict[tuple, tuple] = {}
            for q in workload.queries:
                n_exec = q.weight * workload.query_rounds
                qkey = (
                    q.scans, q.sort_mb, q.hash_build_mb,
                    q.cpu_ms_per_mb, q.parallel_fraction,
                )
                hit = query_memo.get(qkey)
                if hit is None:
                    hit = query_memo[qkey] = self._query_time_vec(
                        q, workload, node, arrs
                    )
                qt, col_adds = hit
                for key, addend in col_adds:
                    cols[key] += addend
                total_query_s += n_exec * qt

            # ---- transactional mix ------------------------------------
            total_oltp_s = np.zeros(n)
            if workload.transactions and workload.n_transactions > 0:
                total_oltp_s = self._oltp_time_vec(workload, configs, node, arrs, cols)

            runtime = total_query_s + total_oltp_s
            runtime = np.where(
                knob_bools(configs, "track_io_timing"), runtime * 1.002, runtime
            )
            runtime = np.where(
                knob_bools(configs, "ssl_enabled"), runtime * 1.001, runtime
            )
            runtime = np.maximum(runtime, 1e-3)
            cost = runtime * len(self.cluster) / 3600.0

        if oom.any():
            for name, col in cols.items():
                if name not in self._FAILURE_KEEP:
                    col[oom] = 0.0
        return measurements_from_columns(
            cols,
            self.METRIC_NAMES,
            runtime,
            cost,
            failed=oom,
            failure_elapsed=np.full(n, 30.0),
            failure_cost=np.full(n, 1.0),
        )

    def _query_time_vec(
        self,
        q: QuerySpec,
        workload: DbmsWorkload,
        node,
        arrs: Dict[str, np.ndarray],
    ):
        """Batch-axis mirror of :meth:`_query_time` / :meth:`_scan_time`.

        Pure in ``(q, arrs)``: returns ``(qt, col_adds)`` where
        ``col_adds`` is the ordered list of ``(metric, addend)``
        accumulations the scalar path would perform, for the caller to
        replay (and memoize across repeated query templates).
        """
        hit = arrs["hit"]
        seq_mbps = arrs["seq_mbps"]
        one_minus_hit = arrs["one_minus_hit"]
        iops_floor = arrs["iops_floor"]
        n = hit.shape[0]
        io_s = np.zeros(n)
        cpu_s = np.zeros(n)
        n_nodes = len(self.cluster)
        col_adds: List[tuple] = []

        for scan in q.scans:
            table = workload.tables[scan.table]
            # Planner estimates: est_seq is config-free, est_idx scales
            # with random_page_cost exactly as the scalar expression.
            est_seq = table.pages * 1.0
            matched_rows = table.rows * scan.selectivity
            est_idx = matched_rows / _ROWS_PER_PAGE * arrs["rpc"] + matched_rows * 0.005
            if scan.index_available:
                use_index = est_idx < est_seq
            else:
                use_index = np.zeros(n, dtype=bool)

            fetch_pages = matched_rows / _ROWS_PER_PAGE
            misses = fetch_pages * one_minus_hit
            io_idx = misses / iops_floor
            read_idx = misses * 8.0 / 1024.0

            seq_hit = np.minimum(hit, arrs["bp"] / max(table.size_mb, 1.0))
            read_seq = table.size_mb * (1.0 - seq_hit) * arrs["comp_ratio"]
            io_seq = read_seq / seq_mbps
            comp_lane = (~use_index) & arrs["comp_lt1"]
            cpu_scan = np.where(
                comp_lane,
                table.size_mb * one_minus_hit * arrs["comp_cpu_ms"] / 1000.0,
                0.0,
            )
            col_adds.append(("compression_cpu_s", cpu_scan))
            col_adds.append(("index_scans", use_index))
            col_adds.append(("seq_scans", ~use_index))

            read_mb = np.where(use_index, read_idx, read_seq)
            col_adds.append(("pages_read_mb", read_mb))
            col_adds.append(("pages_read", read_mb * 1024.0 / 8.0))
            io_s += np.where(use_index, io_idx, io_seq)
            cpu_s += cpu_scan
            cpu_s += (
                table.size_mb * scan.selectivity * q.cpu_ms_per_mb / 1000.0
                / node.cpu_speed
            )

        if q.sort_mb > 0:
            runs = q.sort_mb / np.maximum(arrs["work_mem"], 0.5)
            multi = runs > 1.0
            passes = np.maximum(
                1.0,
                np.ceil(
                    emap_where(
                        multi,
                        lambda r: math.log(r, _MERGE_FANOUT),
                        runs,
                        fill=_MERGE_FANOUT,
                    )
                ),
            )
            spill = 2.0 * q.sort_mb * passes
            col_adds.append(("spill_mb", np.where(multi, spill, 0.0)))
            col_adds.append(("sort_external_runs", np.where(multi, runs, 0.0)))
            io_s += np.where(multi, spill / arrs["half_rw"], 0.0)
            cpu_s += (
                q.sort_mb * 1.5 * math.log2(max(q.sort_mb, 2.0)) / 1000.0
                / node.cpu_speed
            )

        if q.hash_build_mb > 0:
            hash_mem = arrs["work_mem"] * arrs["hash_mult"]
            overflow = q.hash_build_mb > hash_mem
            spill_h = 2.5 * q.hash_build_mb
            col_adds.append(("spill_mb", np.where(overflow, spill_h, 0.0)))
            io_s += np.where(overflow, spill_h / arrs["half_rw"], 0.0)
            cpu_s += q.hash_build_mb * 2.0 / 1000.0 / node.cpu_speed

        amdahl = (1.0 - q.parallel_fraction) + q.parallel_fraction / arrs["workers"]
        cpu_s *= amdahl
        io_s /= n_nodes
        io_s *= self.cluster.straggler_factor() ** 0.5
        setup_s = 0.004 * arrs["workers"] + 0.002 * n_nodes

        col_adds.append(("io_time_s", io_s))
        col_adds.append(("cpu_time_s", cpu_s))
        qt = np.maximum(io_s, cpu_s) + 0.25 * np.minimum(io_s, cpu_s) + setup_s
        return qt, col_adds

    def _oltp_time_vec(
        self,
        workload: DbmsWorkload,
        configs: Sequence[Configuration],
        node,
        arrs: Dict[str, np.ndarray],
        cols: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Batch-axis mirror of :meth:`_oltp_time`."""
        hit = arrs["hit"]
        sessions = arrs["sessions"]
        n = hit.shape[0]
        total_w = sum(t.weight for t in workload.transactions)
        reads = sum(t.reads * t.weight for t in workload.transactions) / total_w
        writes = sum(t.writes * t.weight for t in workload.transactions) / total_w
        wal_kb = sum(t.wal_kb * t.weight for t in workload.transactions) / total_w
        contention = workload.mean_contention()

        read_s = reads * arrs["one_minus_hit"] / arrs["iops_floor"]
        write_s = 0.3 * writes * (8.0 / 1024.0) / node.disk_write_mbps
        cpu_s = (0.15 + 0.02 * (reads + writes)) / 1000.0 / node.cpu_speed

        flush_s = 1.0 / max(node.disk_random_iops, 1.0)
        policy = knob_values(configs, "log_flush_policy")
        is_commit = np.array([p == "commit" for p in policy], dtype=bool)
        is_batch = np.array([p == "batch" for p in policy], dtype=bool)
        wal_buffers = knob_floats(configs, "wal_buffers_mb")
        wal_buffer_factor = np.minimum(1.0, wal_buffers / 16.0) * 0.3 + 0.7
        delay_s = knob_floats(configs, "commit_delay_us") / 1e6
        group = 1.0 + np.minimum(sessions / 2.0, 1.0 + delay_s * 2000.0)
        commit_s = np.where(
            is_commit,
            flush_s / wal_buffer_factor,
            np.where(
                is_batch,
                delay_s / 2.0 + flush_s / group / wal_buffer_factor,
                0.05 * flush_s,
            ),
        )
        cols["commit_wait_s"] = commit_s.copy()

        timeout_s = knob_floats(configs, "deadlock_timeout_ms") / 1000.0
        base_tx_s = read_s + write_s + cpu_s + commit_s
        checks = base_tx_s / np.maximum(timeout_s, 1e-3)
        check_cost_s = 0.003 * (np.minimum(sessions, 32.0) / 16.0) * np.maximum(
            0.0, checks
        )
        deadlock_prob = contention * 0.02
        stall_s = deadlock_prob * timeout_s
        wait_s = contention * base_tx_s * np.minimum(sessions, 16.0) * 0.15
        lock_s = check_cost_s + stall_s + wait_s
        cols["lock_wait_s"] = lock_s.copy()
        cols["deadlock_checks"] = checks.copy()

        tx_s = base_tx_s + lock_s
        concurrency = np.minimum(sessions, float(node.cores * 4))
        tps = concurrency / np.maximum(tx_s, 1e-6)
        tps = np.minimum(tps, node.cores * node.cpu_speed / max(cpu_s, 1e-9))
        cols["tps"] = tps.copy()
        elapsed = workload.n_transactions / np.maximum(tps, 1e-6)

        wal_mb = workload.n_transactions * wal_kb / 1024.0
        cols["wal_mb"] = np.full(n, wal_mb)
        interval = knob_floats(configs, "checkpoint_interval_s")
        write_rate_mb_s = tps * writes * 8.0 / 1024.0
        bg_absorb = 0.5 + 0.5 * np.minimum(
            1.0, knob_floats(configs, "bgwriter_delay_ms") / 1000.0
        )
        hot_write_set_mb = 0.05 * sum(t.size_mb for t in workload.tables.values())
        dirty_mb = np.minimum(
            np.minimum(write_rate_mb_s * interval * bg_absorb, hot_write_set_mb),
            arrs["bp"],
        )
        cols["bg_writes_mb"] = write_rate_mb_s * elapsed * (1.0 - bg_absorb)
        per_cp_s = 0.5 + dirty_mb / node.disk_write_mbps
        cp_fraction = per_cp_s / interval
        wal_capacity_s = 600.0 * np.sqrt(wal_buffers / 16.0)
        stall_fraction = np.where(
            interval > wal_capacity_s,
            np.minimum(0.15, 0.05 * (interval / wal_capacity_s - 1.0)),
            0.0,
        )
        over = (dirty_mb - 0.5 * arrs["bp"]) / arrs["bp"]
        stall_fraction = np.where(
            dirty_mb >= 0.5 * arrs["bp"],
            stall_fraction + 0.2 * over * over,
            stall_fraction,
        )
        overhead_s = elapsed * (cp_fraction + stall_fraction)
        cols["checkpoint_overhead_s"] = overhead_s.copy()
        cols["io_time_s"] += read_s * workload.n_transactions
        cols["cpu_time_s"] += cpu_s * workload.n_transactions
        return elapsed + overhead_s

    # ------------------------------------------------------------------
    def explain(self, workload: Workload, config: Configuration) -> List[Dict[str, float]]:
        """Per-query cost breakdown under a configuration.

        Returns one dict per analytical query with the planner's access
        path decisions and the time/spill attribution — the facility a
        profiling tuner (ADDM, Dione) would consume.  Transactional
        mixes are summarized as a single pseudo-entry.
        """
        self.check_workload(workload)
        assert isinstance(workload, DbmsWorkload)
        node = self.cluster.min_node
        sessions = min(workload.sessions, int(config["max_connections"]))
        workers = min(int(config["max_parallel_workers"]), self.cluster.total_cores)
        bp = float(config["buffer_pool_mb"])
        ws = max(workload.hot_set_mb(), 1.0)
        hit = min(0.995, bp / (bp + 0.5 * ws))
        prefetch_boost = 0.7 + 0.3 * min(1.0, config["prefetch_depth"] / 32.0)
        seq_mbps = node.disk_read_mbps * prefetch_boost
        eff_iops = node.disk_random_iops * math.sqrt(
            min(float(config["io_concurrency"]), 64.0)
        )
        comp_ratio, comp_cpu_ms = 1.0, 0.0
        if config["compression"]:
            comp_ratio, comp_cpu_ms = _COMPRESSION[config["compression_algo"]]

        plans: List[Dict[str, float]] = []
        for q in workload.queries:
            m: Dict[str, float] = {k: 0.0 for k in self.METRIC_NAMES}
            elapsed = self._query_time(
                q, workload, config, node, hit, seq_mbps, eff_iops,
                comp_ratio, comp_cpu_ms, workers, m,
            )
            plans.append({
                "query": q.name,
                "elapsed_s": elapsed,
                "io_s": m["io_time_s"],
                "cpu_s": m["cpu_time_s"],
                "spill_mb": m["spill_mb"],
                "index_scans": m["index_scans"],
                "seq_scans": m["seq_scans"],
                "pages_read_mb": m["pages_read_mb"],
            })
        if workload.transactions and workload.n_transactions > 0:
            m = {k: 0.0 for k in self.METRIC_NAMES}
            elapsed = self._oltp_time(
                workload, config, node, hit, eff_iops, sessions, m
            )
            plans.append({
                "query": "(transaction mix)",
                "elapsed_s": elapsed,
                "io_s": m["io_time_s"],
                "cpu_s": m["cpu_time_s"],
                "spill_mb": 0.0,
                "lock_wait_s": m["lock_wait_s"],
                "commit_wait_s": m["commit_wait_s"],
                "checkpoint_overhead_s": m["checkpoint_overhead_s"],
                "tps": m["tps"],
            })
        return plans

    # ------------------------------------------------------------------
    def _query_time(
        self,
        q: QuerySpec,
        workload: DbmsWorkload,
        config: Configuration,
        node: NodeSpec,
        hit: float,
        seq_mbps: float,
        eff_iops: float,
        comp_ratio: float,
        comp_cpu_ms: float,
        workers: int,
        m: Dict[str, float],
    ) -> float:
        io_s = 0.0
        cpu_s = 0.0
        n_nodes = len(self.cluster)

        for scan in q.scans:
            table = workload.tables[scan.table]
            io_scan_s, cpu_scan_s = self._scan_time(
                scan, table, config, hit, seq_mbps, eff_iops,
                comp_ratio, comp_cpu_ms, m,
            )
            io_s += io_scan_s
            cpu_s += cpu_scan_s
            cpu_s += table.size_mb * scan.selectivity * q.cpu_ms_per_mb / 1000.0 / node.cpu_speed

        # Sorts: external merge when the input exceeds work_mem.
        if q.sort_mb > 0:
            work_mem = float(config["work_mem_mb"])
            runs = q.sort_mb / max(work_mem, 0.5)
            if runs > 1.0:
                passes = max(1, math.ceil(math.log(runs, _MERGE_FANOUT)))
                spill = 2.0 * q.sort_mb * passes
                m["spill_mb"] += spill
                m["sort_external_runs"] += runs
                io_s += spill / (0.5 * (seq_mbps + node.disk_write_mbps))
            cpu_s += q.sort_mb * 1.5 * math.log2(max(q.sort_mb, 2.0)) / 1000.0 / node.cpu_speed

        # Hash joins: partition to disk when the build side overflows.
        if q.hash_build_mb > 0:
            hash_mem = config["work_mem_mb"] * config["hash_mem_multiplier"]
            if q.hash_build_mb > hash_mem:
                spill = 2.5 * q.hash_build_mb
                m["spill_mb"] += spill
                io_s += spill / (0.5 * (seq_mbps + node.disk_write_mbps))
            cpu_s += q.hash_build_mb * 2.0 / 1000.0 / node.cpu_speed

        # Parallel execution: Amdahl on CPU, near-linear I/O scale-out
        # across nodes, straggler tax on the synchronous finish.
        amdahl = (1.0 - q.parallel_fraction) + q.parallel_fraction / workers
        cpu_s *= amdahl
        io_s /= n_nodes
        io_s *= self.cluster.straggler_factor() ** 0.5
        setup_s = 0.004 * workers + 0.002 * n_nodes

        m["io_time_s"] += io_s
        m["cpu_time_s"] += cpu_s
        # Partial CPU/I/O overlap: the longer phase dominates.
        return max(io_s, cpu_s) + 0.25 * min(io_s, cpu_s) + setup_s

    def _scan_time(
        self,
        scan: ScanSpec,
        table,
        config: Configuration,
        hit: float,
        seq_mbps: float,
        eff_iops: float,
        comp_ratio: float,
        comp_cpu_ms: float,
        m: Dict[str, float],
    ) -> tuple:
        """Planner-mediated access path choice, then actual cost."""
        # Planner estimates (unitless, PostgreSQL-style).
        est_seq = table.pages * 1.0
        matched_rows = table.rows * scan.selectivity
        est_idx = matched_rows / _ROWS_PER_PAGE * config["random_page_cost"] + matched_rows * 0.005
        use_index = scan.index_available and est_idx < est_seq

        cpu_s = 0.0
        if use_index:
            m["index_scans"] += 1
            fetch_pages = matched_rows / _ROWS_PER_PAGE
            misses = fetch_pages * (1.0 - hit)
            io_s = misses / max(eff_iops, 1.0)
            read_mb = misses * 8.0 / 1024.0
        else:
            m["seq_scans"] += 1
            # A single-pass scan cannot hit cached pages beyond what the
            # pool can physically hold of this table.
            seq_hit = min(hit, config["buffer_pool_mb"] / max(table.size_mb, 1.0))
            read_mb = table.size_mb * (1.0 - seq_hit) * comp_ratio
            io_s = read_mb / seq_mbps
            if comp_ratio < 1.0:
                cpu_s += table.size_mb * (1.0 - hit) * comp_cpu_ms / 1000.0
                m["compression_cpu_s"] += cpu_s
        m["pages_read_mb"] += read_mb
        m["pages_read"] += read_mb * 1024.0 / 8.0
        return io_s, cpu_s

    # ------------------------------------------------------------------
    def _oltp_time(
        self,
        workload: DbmsWorkload,
        config: Configuration,
        node: NodeSpec,
        hit: float,
        eff_iops: float,
        sessions: int,
        m: Dict[str, float],
    ) -> float:
        total_w = sum(t.weight for t in workload.transactions)
        reads = sum(t.reads * t.weight for t in workload.transactions) / total_w
        writes = sum(t.writes * t.weight for t in workload.transactions) / total_w
        wal_kb = sum(t.wal_kb * t.weight for t in workload.transactions) / total_w
        contention = workload.mean_contention()

        # Per-transaction service demands (seconds).
        read_s = reads * (1.0 - hit) / max(eff_iops, 1.0)
        # Writes are deferred to WAL + background flushing; foreground
        # charge is a fraction of the raw cost.
        write_s = 0.3 * writes * (8.0 / 1024.0) / node.disk_write_mbps
        cpu_s = (0.15 + 0.02 * (reads + writes)) / 1000.0 / node.cpu_speed

        # Commit durability cost by flush policy.
        flush_s = 1.0 / max(node.disk_random_iops, 1.0)  # one log force
        policy = config["log_flush_policy"]
        wal_buffer_factor = min(1.0, config["wal_buffers_mb"] / 16.0) * 0.3 + 0.7
        if policy == "commit":
            commit_s = flush_s / wal_buffer_factor
        elif policy == "batch":
            delay_s = config["commit_delay_us"] / 1e6
            group = 1.0 + min(sessions / 2.0, 1.0 + delay_s * 2000.0)
            commit_s = delay_s / 2.0 + flush_s / group / wal_buffer_factor
        else:  # async
            commit_s = 0.05 * flush_s
        m["commit_wait_s"] = commit_s

        # Lock management: frequent deadlock checks are pure overhead at
        # tiny timeouts; long timeouts stall genuinely deadlocked work.
        timeout_s = config["deadlock_timeout_ms"] / 1000.0
        base_tx_s = read_s + write_s + cpu_s + commit_s
        # Each deadlock check walks the waits-for graph: expensive under
        # concurrency, and checks fire once per timeout while blocked.
        check_cost_s = 0.003 * (min(sessions, 32) / 16.0) * max(
            0.0, base_tx_s / max(timeout_s, 1e-3)
        )
        deadlock_prob = contention * 0.02
        stall_s = deadlock_prob * timeout_s
        wait_s = contention * base_tx_s * min(sessions, 16) * 0.15
        lock_s = check_cost_s + stall_s + wait_s
        m["lock_wait_s"] = lock_s
        m["deadlock_checks"] = base_tx_s / max(timeout_s, 1e-3)

        tx_s = base_tx_s + lock_s
        concurrency = min(sessions, node.cores * 4)
        tps = concurrency / max(tx_s, 1e-6)
        tps = min(tps, node.cores * node.cpu_speed / max(cpu_s, 1e-9))
        m["tps"] = tps
        elapsed = workload.n_transactions / max(tps, 1e-6)

        # WAL volume and checkpoint overhead.
        wal_mb = workload.n_transactions * wal_kb / 1024.0
        m["wal_mb"] = wal_mb
        interval = float(config["checkpoint_interval_s"])
        write_rate_mb_s = tps * writes * 8.0 / 1024.0
        # Aggressive background writing drains dirty pages early; hot-row
        # rewrites bound the distinct dirty set by the hot working set.
        bg_absorb = 0.5 + 0.5 * min(1.0, config["bgwriter_delay_ms"] / 1000.0)
        hot_write_set_mb = 0.05 * sum(t.size_mb for t in workload.tables.values())
        dirty_mb = min(
            write_rate_mb_s * interval * bg_absorb,
            hot_write_set_mb,
            config["buffer_pool_mb"],
        )
        m["bg_writes_mb"] = write_rate_mb_s * elapsed * (1.0 - bg_absorb)
        per_cp_s = 0.5 + dirty_mb / node.disk_write_mbps
        cp_fraction = per_cp_s / interval
        # WAL capacity couples with wal_buffers: outrunning it triggers
        # emergency checkpoints whose stalls grow with the overrun.
        wal_capacity_s = 600.0 * math.sqrt(config["wal_buffers_mb"] / 16.0)
        stall_fraction = 0.0
        if interval > wal_capacity_s:
            stall_fraction = min(0.15, 0.05 * (interval / wal_capacity_s - 1.0))
        if dirty_mb >= 0.5 * config["buffer_pool_mb"]:
            over = (dirty_mb - 0.5 * config["buffer_pool_mb"]) / config["buffer_pool_mb"]
            stall_fraction += 0.2 * over * over
        overhead_s = elapsed * (cp_fraction + stall_fraction)
        m["checkpoint_overhead_s"] = overhead_s
        m["io_time_s"] += read_s * workload.n_transactions
        m["cpu_time_s"] += cpu_s * workload.n_transactions
        return elapsed + overhead_s
