"""Driver batching benchmark: parallel speedup for ask/tell tuners.

``python -m repro bench driver --json BENCH_driver.json`` measures the
headline payoff of the :class:`~repro.core.driver.SearchDriver`
refactor: tuners that used to run one experiment at a time now propose
multi-candidate batches, and the driver fans every batch out through
the session's :class:`~repro.exec.runner.ParallelRunner` — with results
byte-identical to the serial loop.

Each cell runs one tuner twice against a DBMS simulator whose every
run is padded with a fixed sleep (standing in for a real experiment's
wall-clock cost): once serially, once with a thread-pool runner.  The
report records both wall times and the speedup, and asserts the two
:meth:`~repro.core.measurement.TuningHistory.digest` values match —
parallel execution must never change what the search observes.  The
speedups are reported, not asserted: they depend on the host.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.matrix import make_report
from repro.core.measurement import Measurement
from repro.core.system import InstrumentedSystem, SystemUnderTune, SystemWrapper
from repro.core.tuner import Budget
from repro.core.workload import Workload
from repro.exec.runner import ParallelRunner

__all__ = ["run"]

#: Per-experiment sleep standing in for real experiment latency.
_RUN_DELAY_S = 0.04

#: Thread-pool width of the parallel leg.
_JOBS = 4

COLUMNS = ("tuner", "n_real_runs", "serial_wall_s", "parallel_wall_s", "speedup")


class _SleepingSystem(SystemWrapper):
    """Wrapper adding fixed wall-clock latency to every run.

    Deliberately does *not* override :meth:`run_batch` and defines no
    vectorized kernel: the inherited serial loop means all concurrency
    comes from the :class:`~repro.core.system.InstrumentedSystem` runner
    fan-out — exactly the path the driver exercises.  ``time.sleep``
    releases the GIL, so a thread-mode runner overlaps the delays.
    """

    def __init__(self, inner: SystemUnderTune, delay_s: float = _RUN_DELAY_S):
        super().__init__(inner)
        self.delay_s = delay_s

    def run(self, workload: Workload, config) -> Measurement:
        time.sleep(self.delay_s)
        return self.inner.run(workload, config)


def _specs(quick: bool) -> List[Tuple[str, Callable[[], Any], int]]:
    """(name, factory, max_runs) for every previously serial-only tuner
    whose ask/tell port proposes multi-candidate batches."""
    from repro.tuners import (
        AdaptiveSamplingTuner,
        BayesOptTuner,
        CrossEntropyTuner,
        EnsembleTuner,
        GeneticTuner,
        GridSearchTuner,
        NeuralNetTuner,
        RandomSearchTuner,
        RecursiveRandomSearchTuner,
    )

    scale = 1 if quick else 2
    return [
        ("random-search", lambda: RandomSearchTuner(), 33 * scale),
        ("grid-search", lambda: GridSearchTuner(levels=3, n_knobs=3),
         28 * scale),
        ("genetic", lambda: GeneticTuner(population=8, elite=2), 33 * scale),
        ("cem", lambda: CrossEntropyTuner(batch=8), 33 * scale),
        ("rrs", lambda: RecursiveRandomSearchTuner(
            n_global=12, local_fail_limit=1, shrink=0.05), 31 * scale),
        ("adaptive-sampling", lambda: AdaptiveSamplingTuner(
            n_bootstrap=18, n_candidates=80), 22 * scale),
        ("nn-tuner", lambda: NeuralNetTuner(
            n_init=18, epochs=30, hidden=(16, 16), n_candidates=80),
         21 * scale),
        ("ensemble", lambda: EnsembleTuner(
            n_init=18, mlp_epochs=30, n_candidates=80), 20 * scale),
        ("bayesopt", lambda: BayesOptTuner(n_init=18, n_candidates=80),
         20 * scale),
    ]


def _run_leg(
    factory: Callable[[], Any],
    max_runs: int,
    runner: Optional[ParallelRunner],
) -> Tuple[str, int, float]:
    """One (tuner, execution mode) measurement.

    Returns (history digest, real runs, wall seconds).  Everything is
    seeded, so both legs of a cell observe identical histories.
    """
    from repro.systems.dbms import DbmsSimulator
    from repro.workloads import htap_mixed

    system = InstrumentedSystem(
        _SleepingSystem(DbmsSimulator()), runner=runner
    )
    tuner = factory()
    start = time.perf_counter()
    result = tuner.tune(
        system, htap_mixed(), Budget(max_runs=max_runs),
        rng=np.random.default_rng(42),
    )
    wall_s = time.perf_counter() - start
    return result.history.digest(), result.n_real_runs, wall_s


def run(quick: bool = True) -> Dict[str, Any]:
    """Measure serial vs parallel wall time per batched ask/tell tuner.

    Args:
        quick: halved run budgets (the CI setting).

    Returns:
        Report dict with one cell per tuner.  Raises ``AssertionError``
        if any parallel history digest differs from its serial one.
    """
    start = time.perf_counter()
    cells: List[Dict[str, Any]] = []
    for name, factory, max_runs in _specs(quick):
        serial_digest, serial_runs, serial_s = _run_leg(
            factory, max_runs, runner=None
        )
        with ParallelRunner(jobs=_JOBS, mode="thread") as runner:
            parallel_digest, parallel_runs, parallel_s = _run_leg(
                factory, max_runs, runner=runner
            )
        assert serial_digest == parallel_digest, (
            f"{name}: parallel history diverged from serial "
            f"({parallel_digest} != {serial_digest})"
        )
        cells.append({
            "tuner": name,
            "n_real_runs": serial_runs,
            "digest": serial_digest,
            "digests_identical": True,
            "serial_wall_s": round(serial_s, 3),
            "parallel_wall_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 2),
        })
        assert serial_runs == parallel_runs
    speedups = [c["speedup"] for c in cells]
    return make_report(
        "driver", quick, cells, start,
        jobs=_JOBS,
        run_delay_s=_RUN_DELAY_S,
        n_tuners=len(cells),
        n_tuners_at_2x=sum(1 for s in speedups if s >= 2.0),
        median_speedup=round(float(np.median(speedups)), 2) if speedups
        else None,
    )
