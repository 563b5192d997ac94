"""Unit tests for the ask/tell SearchDriver contract."""

import math
from typing import Dict, List

import numpy as np
import pytest

from repro.core import Budget, StreamResult
from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.measurement import MODEL, Measurement
from repro.core.parameters import ConfigurationSpace, NumericParameter
from repro.core.system import SystemUnderTune
from repro.core.tuner import OnlineTuner
from repro.core.workload import Workload
from repro.kb.warmstart import PriorObservation, TransferPrior


class ToyWorkload(Workload):
    @property
    def system_kind(self) -> str:
        return "toy"

    def signature(self) -> Dict[str, float]:
        return {"w": 1.0}


class ToySystem(SystemUnderTune):
    """Runtime is 1 + x; every run is recorded for inspection."""

    name = "toy"
    kind = "toy"

    def __init__(self, runtime_s: float = None, fail: bool = False):
        self._space = ConfigurationSpace(
            [NumericParameter("x", 5, 0, 10)], name="toy"
        )
        self._runtime_s = runtime_s
        self._fail = fail
        self.calls: List[float] = []

    @property
    def config_space(self) -> ConfigurationSpace:
        return self._space

    def run(self, workload, config) -> Measurement:
        self.calls.append(float(config["x"]))
        if self._fail:
            return Measurement.failure()
        if self._runtime_s is not None:
            return Measurement(runtime_s=self._runtime_s)
        return Measurement(runtime_s=1.0 + float(config["x"]))


class RecordingTuner(SearchTuner):
    """Asks scripted batches; records every ask and tell."""

    name = "recording"
    category = "search-based"

    def __init__(self, batches: List[List[Candidate]]):
        self._batches = batches

    def setup(self, state: SearchState) -> None:
        self.asks = 0
        self.tells: List[List] = []

    def ask(self, state: SearchState):
        if self.asks >= len(self._batches):
            return []
        batch = self._batches[self.asks]
        self.asks += 1
        return batch

    def tell(self, state: SearchState, results) -> None:
        self.tells.append(list(results))


def _config(system, x):
    return system.config_space.configuration({"x": x})


def _tune(tuner, system, max_runs=10, time_cap=None, prior=None, seed=0):
    return tuner.tune(
        system, ToyWorkload("toy-wl"),
        Budget(max_runs=max_runs, max_experiment_time_s=time_cap),
        rng=np.random.default_rng(seed), prior=prior,
    )


class TestDriverLoop:
    def test_default_evaluated_first_and_told(self):
        tuner = RecordingTuner([])
        result = _tune(tuner, ToySystem())

        assert result.n_real_runs == 1
        assert result.history.observations[0].tag == "default"
        # The default's final observation was told before any ask.
        assert len(tuner.tells) == 1
        assert tuner.tells[0][0].tag == "default"

    def test_tell_gets_one_final_per_candidate_in_order(self):
        system = ToySystem()
        batch = [
            Candidate(_config(system, x), tag=f"c{x}") for x in (9, 2, 7)
        ]
        tuner = RecordingTuner([batch])
        _tune(tuner, system)

        told = tuner.tells[1]
        assert [o.tag for o in told] == ["c9", "c2", "c7"]
        assert [o.config["x"] for o in told] == [9, 2, 7]

    def test_bare_configurations_are_promoted(self):
        system = ToySystem()
        tuner = RecordingTuner([[_config(system, 3)]])
        result = _tune(tuner, system)

        assert result.n_real_runs == 2
        assert tuner.tells[1][0].tag == ""

    def test_partial_tell_then_no_more_asks(self):
        system = ToySystem()
        batch = [Candidate(_config(system, x), tag=f"c{x}") for x in (1, 2, 3)]
        tuner = RecordingTuner([batch, batch])
        result = _tune(tuner, system, max_runs=3)

        # 1 default + 2 of the 3 proposed: the tell is partial and the
        # second scripted batch is never requested.
        assert result.n_real_runs == 3
        assert len(tuner.tells[1]) == 2
        assert tuner.asks == 1

    def test_retries_collapse_to_one_final_observation(self):
        from repro.exec.resilience import ExecutionPolicy

        system = ToySystem(fail=True)
        tuner = RecordingTuner([[Candidate(_config(system, 4), tag="c")]])
        tuner.tune(
            system, ToyWorkload("toy-wl"), Budget(max_runs=8),
            rng=np.random.default_rng(0),
            execution=ExecutionPolicy(max_retries=2, backoff_base_s=0.0),
        )

        told = tuner.tells[1]
        assert len(told) == 1
        assert told[0].tag == "c"
        assert told[0].measurement.failed

    def test_predictions_are_recorded_not_charged(self):
        system = ToySystem()
        tuner = RecordingTuner([[
            Candidate(
                _config(system, 6), tag="c",
                predicted_runtime_s=42.0, predict_tag="model",
            )
        ]])
        result = _tune(tuner, system)

        predicted = [
            o for o in result.history.observations if o.source == MODEL
        ]
        assert len(predicted) == 1
        assert predicted[0].tag == "model"
        assert predicted[0].runtime_s == 42.0
        assert result.n_real_runs == 2  # default + candidate; no charge


class TestTimeCappedBatches:
    def _batch(self, system):
        return [Candidate(_config(system, x), tag=f"c{x}") for x in (1, 2, 3)]

    def test_non_atomic_batch_splits_at_wall_clock_cap(self):
        system = ToySystem(runtime_s=10.0)
        tuner = RecordingTuner([self._batch(system)])
        result = _tune(tuner, system, max_runs=10, time_cap=15.0)

        # Default (10s) leaves 5s; the split batch stops after its
        # first member crosses the cap.
        assert result.n_real_runs == 2
        assert len(tuner.tells[1]) == 1

    def test_atomic_batch_charges_whole_batch(self):
        system = ToySystem(runtime_s=10.0)
        tuner = RecordingTuner([self._batch(system)])
        tuner.atomic_batches = True
        result = _tune(tuner, system, max_runs=10, time_cap=15.0)

        assert result.n_real_runs == 4
        assert len(tuner.tells[1]) == 3


def _toy_prior(system, xs=(0, 1, 2, 3)):
    rows = [
        PriorObservation(
            values={"x": x}, runtime_s=1.0 + x,
            source_workload="src", source_session=1,
        )
        for x in xs
    ]
    return TransferPrior(rows=rows)


class TestPriorSeeding:
    def _tuner(self, batches=None, k=2):
        class SeedingTuner(RecordingTuner):
            uses_prior = True

            def wants_prior_seeds(self, state):
                return k

        return SeedingTuner(batches or [])

    def test_seeds_evaluated_tagged_and_told(self):
        system = ToySystem()
        tuner = self._tuner()
        result = _tune(tuner, system, prior=_toy_prior(system))

        tags = [o.tag for o in result.history.observations]
        assert tags == ["default", "prior-0", "prior-1"]
        # Seeds arrive as one tell after the default's.
        assert len(tuner.tells) == 2
        assert [o.tag for o in tuner.tells[1]] == ["prior-0", "prior-1"]

    def test_seeding_respects_reserve(self):
        system = ToySystem()
        tuner = self._tuner(k=5)
        result = _tune(tuner, system, max_runs=3, prior=_toy_prior(system))

        # 1 default + seeds until remaining == PRIOR_SEED_RESERVE (1).
        tags = [o.tag for o in result.history.observations]
        assert tags == ["default", "prior-0"]

    def test_no_prior_means_no_seeding(self):
        system = ToySystem()
        tuner = self._tuner()
        result = _tune(tuner, system)

        assert [o.tag for o in result.history.observations] == ["default"]
        assert len(tuner.tells) == 1


class _CountingOnline(OnlineTuner):
    name = "counting-online"
    category = "adaptive"

    def __init__(self):
        self.stream_lengths: List[int] = []

    def tune_stream(self, system, stream, rng=None) -> StreamResult:
        self.stream_lengths.append(len(stream))
        return StreamResult(tuner_name=self.name, steps=[])


class TestOnlineProbeSizing:
    def test_failed_probe_without_elapsed_runs_single_submission(self):
        """Regression: a failed probe with no elapsed-time metric used
        to assume 1s/run and size the stream far past the cap."""
        system = ToySystem(fail=True)
        tuner = _CountingOnline()
        tuner.tune(
            system, ToyWorkload("toy-wl"),
            Budget(max_runs=50, max_experiment_time_s=100.0),
            rng=np.random.default_rng(0),
        )

        assert tuner.stream_lengths == [1]

    def test_successful_probe_sizes_stream_from_runtime(self):
        system = ToySystem(runtime_s=10.0)
        tuner = _CountingOnline()
        tuner.tune(
            system, ToyWorkload("toy-wl"),
            Budget(max_runs=50, max_experiment_time_s=100.0),
            rng=np.random.default_rng(0),
        )

        # Probe spent 10s of the 100s cap; 90s / 10s per run = 9 reps.
        assert tuner.stream_lengths == [9]
