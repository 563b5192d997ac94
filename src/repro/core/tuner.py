"""Tuner interface, budgets, and tuning results.

The tutorial's six categories all fit one contract: given a system, a
workload, and an experiment budget, produce the best configuration you
can.  Categories differ in *how many real runs* they consume and *what
models* they build — which is exactly what
:class:`~repro.core.session.TuningSession` accounts for.

Online (adaptive) tuners additionally implement
:meth:`OnlineTuner.tune_stream`, consuming a
:class:`~repro.core.workload.WorkloadStream` one submission at a time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.core.measurement import Measurement, TuningHistory
from repro.core.parameters import Configuration
from repro.core.session import TuningSession
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload, WorkloadStream
from repro.exceptions import BudgetExhausted
from repro.exec.resilience import ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kb.warmstart import TransferPrior

__all__ = [
    "Budget",
    "TuningResult",
    "Tuner",
    "OnlineTuner",
    "StreamStep",
    "StreamResult",
    "CATEGORIES",
]

#: Canonical category labels, exactly the paper's taxonomy.
CATEGORIES = (
    "rule-based",
    "cost-modeling",
    "simulation-based",
    "experiment-driven",
    "machine-learning",
    "adaptive",
)


@dataclass(frozen=True)
class Budget:
    """How much real experimentation a tuner may spend.

    Attributes:
        max_runs: maximum number of real system executions (inclusive).
        max_experiment_time_s: optional cap on cumulative measured
            runtime across real executions; models the "experiments are
            expensive" axis of Table 1.
    """

    max_runs: int
    max_experiment_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_runs < 0:
            raise ValueError("max_runs must be >= 0")
        if self.max_experiment_time_s is not None and self.max_experiment_time_s <= 0:
            raise ValueError("max_experiment_time_s must be positive")


@dataclass
class TuningResult:
    """What a completed tuning session hands back.

    Attributes:
        best_config: recommended configuration (never None — falls back
            to the system default when nothing better was measured).
        best_runtime_s: measured runtime of best_config, inf if the
            recommendation was never executed within budget.
        n_real_runs: real executions consumed.
        experiment_time_s: cumulative measured seconds across real runs.
        history: full observation log.
        extras: tuner-specific artifacts (rankings, models, rule hits).
    """

    tuner_name: str
    category: str
    best_config: Configuration
    best_runtime_s: float
    n_real_runs: int
    experiment_time_s: float
    history: TuningHistory
    extras: Dict[str, Any] = field(default_factory=dict)

    def speedup_over(self, baseline_runtime_s: float) -> float:
        """Baseline runtime divided by best runtime (>1 means faster)."""
        if self.best_runtime_s <= 0 or math.isinf(self.best_runtime_s):
            return 0.0
        return baseline_runtime_s / self.best_runtime_s


class Tuner(ABC):
    """Base class for all offline tuners.

    Subclasses set :attr:`name` and :attr:`category` (one of
    :data:`CATEGORIES`) and implement :meth:`_tune` against a live
    session.  The template method here handles budget exhaustion,
    fallback recommendations, and result assembly uniformly.
    """

    name: str = "tuner"
    category: str = "experiment-driven"

    #: Whether this tuner class consumes a transfer prior whenever one
    #: is passed to :meth:`tune`.  Other tuners ignore the prior, so
    #: callers can pass one to any tuner.
    uses_prior: bool = False

    def tune(
        self,
        system: SystemUnderTune,
        workload: Workload,
        budget: Budget,
        rng: Optional[np.random.Generator] = None,
        execution: Optional[ExecutionPolicy] = None,
        prior: Optional["TransferPrior"] = None,
    ) -> TuningResult:
        rng = rng or np.random.default_rng(0)
        session = TuningSession(system, workload, budget, rng,
                                execution=execution,
                                prior=prior if self.uses_prior else None)
        try:
            recommended = self._tune(session)
        except BudgetExhausted:
            recommended = None
        # Only runs of the *session* workload count toward the result;
        # probe runs on sampled/alternate workloads (Ernest) have
        # incomparable runtimes.  Hung runs come back "successful" with
        # unbounded runtime — never a valid incumbent.
        own = [
            o for o in session.history.successful()
            if o.workload in ("", workload.name)
            and math.isfinite(o.runtime_s)
        ]
        best = min(own, key=lambda o: o.runtime_s) if own else None
        if recommended is None:
            recommended = best.config if best else system.default_configuration()
        best_runtime = math.inf
        if best is not None and recommended == best.config:
            best_runtime = best.runtime_s
        else:
            # The tuner recommended a config it did not (or could not)
            # measure; report the measured runtime if any observation
            # covered it, else leave inf for the harness to evaluate.
            for obs in own:
                if obs.config == recommended:
                    best_runtime = min(best_runtime, obs.runtime_s)
        if math.isinf(best_runtime) and best is not None:
            recommended = best.config
            best_runtime = best.runtime_s
        extras = dict(session.extras)
        extras.setdefault("resilience", session.resilience_summary())
        if session.prior is not None:
            extras.setdefault("warm_start", session.prior.summary())
        return TuningResult(
            tuner_name=self.name,
            category=self.category,
            best_config=recommended,
            best_runtime_s=best_runtime,
            n_real_runs=session.real_runs,
            experiment_time_s=session.experiment_time_s,
            history=session.history,
            extras=extras,
        )

    @abstractmethod
    def _tune(self, session: TuningSession) -> Optional[Configuration]:
        """Search for a good configuration.

        May raise :class:`BudgetExhausted` at any point — the template
        method falls back to the best configuration measured so far.
        Returning ``None`` means "recommend the best observed".
        """

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r}, category={self.category!r})"


@dataclass
class StreamStep:
    """One submission in an online tuning run."""

    index: int
    workload_name: str
    config: Configuration
    measurement: Measurement
    reconfigured: bool


@dataclass
class StreamResult:
    """Outcome of online tuning over a workload stream."""

    tuner_name: str
    steps: List[StreamStep]

    @property
    def total_runtime_s(self) -> float:
        return sum(
            s.measurement.runtime_s for s in self.steps if s.measurement.ok
        )

    @property
    def n_reconfigurations(self) -> int:
        return sum(1 for s in self.steps if s.reconfigured)

    def runtimes(self) -> List[float]:
        return [s.measurement.runtime_s for s in self.steps]

    def mean_runtime_tail(self, k: int = 5) -> float:
        """Mean runtime over the last ``k`` steps — the converged regime."""
        tail = [r for r in self.runtimes()[-k:] if not math.isinf(r)]
        return sum(tail) / len(tail) if tail else math.inf


class OnlineTuner(Tuner):
    """A tuner that can also adapt while a workload stream executes."""

    category = "adaptive"

    @abstractmethod
    def tune_stream(
        self,
        system: SystemUnderTune,
        stream: WorkloadStream,
        rng: Optional[np.random.Generator] = None,
    ) -> StreamResult:
        """Process the stream one submission at a time, reconfiguring
        between submissions as the approach dictates."""

    def _tune(self, session: TuningSession) -> Optional[Configuration]:
        """Offline entry point: replay the workload as a stream of the
        budgeted length and recommend the best configuration observed
        (an adaptive system keeps running its latest config, but an
        offline *recommendation* should be the stream's best)."""
        reps = max(1, session.budget.max_runs)
        cap = session.budget.max_experiment_time_s
        if cap is not None:
            # Size the stream from one probe run so the wall-clock
            # budget is honored even when max_runs is effectively
            # unbounded.
            probe = session.evaluate(session.default_config(), tag="probe")
            remaining = max(cap - session.experiment_time_s, 0.0)
            if probe.ok and math.isfinite(probe.runtime_s):
                per_run = probe.runtime_s
            else:
                per_run = probe.metric("elapsed_before_failure_s", math.nan)
            if math.isfinite(per_run) and per_run > 0:
                per_run = max(per_run, 1.0)
                reps = min(reps, max(int(remaining // per_run), 0))
            else:
                # The probe failed without telling us how long it ran;
                # assuming a cheap 1.0s/run here used to oversize the
                # stream far past the wall-clock cap.  With no signal,
                # the conservative stream is a single submission.
                reps = min(reps, 1 if remaining > 0 else 0)
            if reps == 0:
                return None
        stream = WorkloadStream.constant(session.workload, reps)
        # The session holds a prior only for a class that uses priors;
        # its ``tune_stream`` then accepts ``initial_config=`` and
        # starts from the prior's best configuration.
        seeds = session.prior_best_configs(k=1)
        if seeds:
            result = self.tune_stream(
                session.system, stream, session.rng, initial_config=seeds[0]
            )
        else:
            result = self.tune_stream(session.system, stream, session.rng)
        # Mirror the stream's executions into the session history so
        # result accounting matches what actually ran.
        for step in result.steps:
            session.record_external(step.config, step.measurement, tag="stream")
        return None
