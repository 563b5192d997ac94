"""COLT-style continuous online tuning (Schnaitter et al., SIGMOD'06).

COLT's core idea, transplanted from index selection to parameter
tuning: while the workload stream executes, continuously estimate the
*gain* of candidate reconfigurations with a lightweight what-if model,
and reconfigure only when the projected cumulative gain over the
remaining stream outweighs the reconfiguration *cost* (a restart/warm-up
penalty).  Tunes a handful of knobs via local perturbations — COLT
deliberately works with few alternatives at a time.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.core.measurement import Measurement
from repro.core.parameters import Configuration
from repro.core.registry import register_tuner
from repro.core.system import SystemUnderTune
from repro.core.tuner import OnlineTuner, StreamResult, StreamStep
from repro.core.workload import WorkloadStream
from repro.tuners.adaptive.drift import DriftDetector
from repro.tuners.rule_based import SpexValidator
from repro.tuners.simulation import trace_replay_predict

__all__ = ["ColtOnlineTuner"]


@register_tuner("colt")
class ColtOnlineTuner(OnlineTuner):
    """Cost-vs-gain adaptive reconfiguration over a workload stream.

    Args:
        epoch: submissions between reconfiguration decisions.
        n_candidates: perturbed configurations scored per decision.
        reconfig_cost_s: charged (as projected cost, not wall time) per
            reconfiguration — warm-up, cache refill, connection churn.
        step_scale: relative size of local perturbations in unit space.
        warm_start: when tuned offline with a transfer prior, start the
            stream at the prior's best configuration instead of the
            system default — COLT only ever moves by local
            perturbations, so its starting point largely decides where
            it converges.
    """

    name = "colt"
    category = "adaptive"
    supports_initial_config = True

    def __init__(
        self,
        epoch: int = 2,
        n_candidates: int = 12,
        reconfig_cost_s: float = 5.0,
        step_scale: float = 0.15,
        warm_start: bool = False,
    ):
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.epoch = epoch
        self.n_candidates = n_candidates
        self.reconfig_cost_s = reconfig_cost_s
        self.step_scale = step_scale
        self.warm_start = warm_start

    def tune_stream(
        self,
        system: SystemUnderTune,
        stream: WorkloadStream,
        rng: Optional[np.random.Generator] = None,
        initial_config: Optional[Configuration] = None,
    ) -> StreamResult:
        rng = rng or np.random.default_rng(0)
        space = system.config_space
        validator = SpexValidator(space)
        config = initial_config or system.default_configuration()
        steps: List[StreamStep] = []
        last_measurement: Optional[Measurement] = None
        submissions = list(stream)
        hot_set = submissions[0].signature().get("hot_set_mb", 1024.0)

        detector = DriftDetector(delta=0.05, threshold=0.4)
        for i, workload in enumerate(submissions):
            ran_config = config
            measurement = system.run(workload, ran_config)
            reconfigured = False
            remaining = len(submissions) - i - 1

            # A detected regime change forces an immediate decision
            # instead of waiting out the epoch.
            drifted = detector.update(measurement.runtime_s)
            # A hung submission (ok but unbounded runtime) carries no
            # usable baseline for the what-if model: skip the decision.
            decide = (
                ((i + 1) % self.epoch == 0 or drifted)
                and remaining > 0
                and measurement.ok
                and math.isfinite(measurement.runtime_s)
            )
            if decide:
                base = config.to_array()
                best_gain, best_candidate = 0.0, None
                for _ in range(self.n_candidates):
                    x = np.clip(
                        base + rng.normal(scale=self.step_scale, size=base.shape),
                        0.0, 1.0,
                    )
                    candidate = space.from_array_feasible(x, rng)
                    try:
                        predicted = trace_replay_predict(
                            system.kind, config, measurement, candidate, hot_set
                        )
                    except ValueError:
                        continue
                    gain = (measurement.runtime_s - predicted) * remaining
                    if gain > best_gain:
                        best_gain, best_candidate = gain, candidate
                if best_candidate is not None and best_gain > self.reconfig_cost_s:
                    config = best_candidate
                    reconfigured = True
            if not measurement.ok:
                # A crashed submission forces an immediate retreat to a
                # configuration known to work.
                config = system.default_configuration()
                reconfigured = True
            steps.append(
                StreamStep(
                    index=i,
                    workload_name=workload.name,
                    config=ran_config,
                    measurement=measurement,
                    reconfigured=reconfigured,
                )
            )
            if measurement.ok:
                last_measurement = measurement
        return StreamResult(tuner_name=self.name, steps=steps)
