"""Tests for the cold-vs-warm transfer benchmark."""

import numpy as np
import pytest

from repro.bench.transfer import (
    TRANSFER_CELLS,
    evals_to_threshold,
    run_cell,
)
from repro.core import Budget
from repro.systems.dbms import DbmsSimulator, olap_analytics
from repro.tuners import RandomSearchTuner


@pytest.fixture(scope="module")
def cells():
    """The two cheapest cells, each a full populate→cold→warm scenario."""
    return {
        ("dbms", "ituned"): run_cell("dbms", "ituned", quick=True),
        ("dbms", "bayesopt"): run_cell("dbms", "bayesopt", quick=True),
    }


class TestEvalsToThreshold:
    def test_counts_real_runs_one_based(self):
        system = DbmsSimulator()
        result = RandomSearchTuner().tune(
            system, olap_analytics(), Budget(max_runs=6),
            np.random.default_rng(0),
        )
        # threshold equal to the final best is met exactly at the run
        # where the incumbent last improved
        idx = evals_to_threshold(result, result.best_runtime_s)
        assert 1 <= idx <= 6
        # an unreachable threshold is never met
        assert evals_to_threshold(result, result.best_runtime_s / 100) is None
        # a trivial threshold is met by the first real run
        assert evals_to_threshold(result, float("inf")) == 1


class TestTransferCells:
    def test_cell_structure(self, cells):
        for cell in cells.values():
            assert cell["n_prior_observations"] > 0
            assert cell["target_workload"] not in cell["prior_workloads"]
            assert {m["workload"] for m in cell["matched_workloads"]} <= set(
                cell["prior_workloads"]
            )
            assert cell["cold_runs"] <= 24 and cell["warm_runs"] <= 24

    def test_warm_start_meets_acceptance_bar(self, cells):
        """Acceptance: warm start reaches within 5% of the cold-start
        best in >=30% fewer evaluations for >=2 tuner×system pairs."""
        winners = [
            key for key, cell in cells.items()
            if cell["warm_reached_threshold"]
            and cell["eval_savings"] is not None
            and cell["eval_savings"] >= 0.30
        ]
        assert len(winners) >= 2, f"savings below bar: {cells}"

    def test_cells_are_deterministic(self, cells):
        """Re-running a cell reproduces it bit-for-bit (fixed seed)."""
        again = run_cell("dbms", "ituned", quick=True)
        first = dict(cells[("dbms", "ituned")])
        again.pop("wall_s"), first.pop("wall_s")
        assert again == first

    def test_matrix_covers_required_pairs(self):
        assert len(TRANSFER_CELLS) >= 4
        assert len({system for system, _ in TRANSFER_CELLS}) >= 2
        assert ("dbms", "ottertune") in TRANSFER_CELLS
