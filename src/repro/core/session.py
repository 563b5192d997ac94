"""Tuning sessions: budget-enforced access to a system under tune.

A :class:`TuningSession` is the only path through which tuners execute
real experiments.  It charges every execution against the budget,
records observations, and raises
:class:`~repro.exceptions.BudgetExhausted` the moment the budget is
spent — so tuner implementations can be written as straight-line search
loops without budget bookkeeping.

The session is also the harness's *resilient execution layer*: an
optional :class:`~repro.exec.resilience.ExecutionPolicy` adds per-run
deadline enforcement, budget-charged retries with exponential backoff
for environmental failures, and a circuit breaker that quarantines
config-space regions after repeated config-correlated failures.  With
no policy, behaviour is identical to the pre-resilience session.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.fidelity import with_fidelity
from repro.core.measurement import MODEL, REAL, Measurement, Observation, TuningHistory
from repro.core.parameters import Configuration
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.exceptions import BudgetExhausted, CircuitOpen
from repro.exec.resilience import CircuitBreaker, ExecutionPolicy
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event
from repro.obs.trace import span as obs_span

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tuner import Budget
    from repro.kb.warmstart import TransferPrior

__all__ = ["TuningSession"]


class TuningSession:
    """Budgeted, recorded experiment access for one tuning task.

    A session may carry a *transfer prior*
    (:class:`~repro.kb.warmstart.TransferPrior`): observations mapped
    from similar workloads in a persistent knowledge base.  Prior data
    is never charged to the budget and never enters the history — it is
    advisory training data that warm-start-aware tuners opt into via
    :meth:`prior_training_data` and :meth:`prior_best_configs`.
    """

    def __init__(
        self,
        system: SystemUnderTune,
        workload: Workload,
        budget: "Budget",
        rng: np.random.Generator,
        execution: Optional[ExecutionPolicy] = None,
        prior: Optional["TransferPrior"] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        system.check_workload(workload)
        self.system = system
        self.workload = workload
        self.budget = budget
        self.rng = rng
        self.prior = prior
        self.execution = execution or ExecutionPolicy()
        self.failure_policy = self.execution.failure_policy
        # An injected breaker (e.g., the fleet controller's persistent
        # per-tenant breaker) takes precedence over building one from
        # the policy — quarantine knowledge then outlives the session.
        self.breaker: Optional[CircuitBreaker] = breaker
        if breaker is None and self.execution.breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                threshold=self.execution.breaker_threshold,
                resolution=self.execution.breaker_resolution,
                knobs=self.execution.breaker_knobs,
            )
        self.history = TuningHistory()
        self.extras: Dict[str, Any] = {}
        self.real_runs = 0
        #: Fidelity-weighted budget spend: a full run charges 1.0, a
        #: 25% screening run charges 0.25.  Equals ``real_runs`` until
        #: the first sub-fidelity evaluation.
        self.charged_runs = 0.0
        self.experiment_time_s = 0.0
        # -- resilience accounting ----------------------------------------
        self.failed_runs = 0
        self.retries = 0
        self.deadline_kills = 0
        self.quarantine_skips = 0
        self.wasted_time_s = 0.0

    # -- budget ----------------------------------------------------------
    @property
    def remaining_runs(self) -> int:
        """Whole full-fidelity runs the budget still affords.

        Charged spend is fidelity-weighted; partial charges round *up*
        against the budget (half a run spent means one fewer full run
        is guaranteed to fit).  With only full-fidelity runs this is
        exactly ``max_runs - real_runs``, as it always was.
        """
        spent = int(math.ceil(self.charged_runs - 1e-9))
        return max(0, self.budget.max_runs - spent)

    def can_run(self) -> bool:
        # Any unspent charge affords at least one more (possibly
        # partial) evaluation; with integer charges this is the
        # historical "remaining_runs > 0" check.
        if self.budget.max_runs - self.charged_runs <= 1e-9:
            return False
        cap = self.budget.max_experiment_time_s
        if cap is not None and self.experiment_time_s >= cap:
            return False
        return True

    def _affordable(self, n: int, fidelity: float) -> int:
        """How many of ``n`` evaluations at ``fidelity`` the budget
        affords, charged one after another.

        The one affordability rule: a member runs only if
        ``charged_runs + fidelity <= max_runs`` (with a 1e-9 tolerance),
        so spend never exceeds the budget.  A crossed wall-clock cap
        affords nothing.
        """
        if not self.can_run():
            return 0
        spent, count = self.charged_runs, 0
        while count < n and spent + fidelity <= self.budget.max_runs + 1e-9:
            spent += fidelity
            count += 1
        return count

    def _account(
        self,
        config: Configuration,
        measurement: Measurement,
        tag: str,
        workload: Workload,
        fidelity: float = 1.0,
        extra_time_s: float = 0.0,
    ) -> None:
        """Charge one real execution (plus optional retry backoff), count
        it in the metrics and record it in the history.

        A fidelity-``f`` run charges ``f`` of a run — the whole point
        of low-fidelity screening is that a 10% run costs ~10% budget.
        Its (already scaled) measured runtime feeds the wall-clock
        budget as-is.

        Infinite or NaN runtimes never reach the time budget: a run
        that did not finish cleanly is charged its recorded
        ``elapsed_before_failure_s`` (clamped finite and non-negative),
        so one hang cannot exhaust ``max_experiment_time_s`` forever.
        """
        self.real_runs += 1
        self.charged_runs += fidelity
        metrics = global_metrics()
        metrics.inc("session.evaluations")
        if measurement.ok and math.isfinite(measurement.runtime_s):
            self.experiment_time_s += measurement.runtime_s
            metrics.observe("session.runtime_s", measurement.runtime_s)
        else:
            elapsed = measurement.metric("elapsed_before_failure_s", 0.0)
            if not math.isfinite(elapsed) or elapsed < 0:
                elapsed = 0.0
            self.experiment_time_s += elapsed
            self.wasted_time_s += elapsed
            self.failed_runs += 1
            metrics.inc("session.failed_evaluations")
        if extra_time_s > 0:
            self.experiment_time_s += extra_time_s
            self.wasted_time_s += extra_time_s
        self.history.record(Observation(
            config, measurement, source=REAL, tag=tag,
            workload=workload.name, fidelity=fidelity,
        ))

    # -- resilient execution helpers ---------------------------------------
    @staticmethod
    def _sanitize(measurement: Measurement) -> Measurement:
        """Drop non-finite metric values (chaos-corrupted samples).

        Models vectorize metric bags; one NaN there poisons factor
        analysis and workload mapping.  A dropped key reads as the
        consumer's default (0.0), which is the conventional "sample
        missing" value.
        """
        bad = [
            k for k, v in measurement.metrics.items()
            if not math.isfinite(float(v))
        ]
        if not bad:
            return measurement
        metrics = {
            k: v for k, v in measurement.metrics.items() if k not in bad
        }
        metrics["metrics_dropped"] = float(
            measurement.metric("metrics_dropped", 0.0) + len(bad)
        )
        return Measurement(
            runtime_s=measurement.runtime_s,
            metrics=metrics,
            failed=measurement.failed,
            cost_units=measurement.cost_units,
        )

    def _enforce_deadline(self, measurement: Measurement) -> Measurement:
        deadline = self.execution.deadline_s
        if (
            deadline is None
            or not measurement.ok
            or measurement.runtime_s <= deadline
        ):
            return measurement
        self.deadline_kills += 1
        global_metrics().inc("session.deadline_kills")
        obs_event("deadline_kill", deadline_s=deadline,
                  runtime_s=measurement.runtime_s)
        metrics = dict(measurement.metrics)
        metrics["elapsed_before_failure_s"] = deadline
        metrics["deadline_exceeded"] = 1.0
        cost = measurement.cost_units
        if not math.isfinite(cost) or cost < 0:
            cost = deadline / 3600.0
        return Measurement(
            runtime_s=math.inf, metrics=metrics, failed=True, cost_units=cost,
        )

    def _quarantined(
        self, config: Configuration, tag: str, fidelity: float = 1.0
    ) -> Measurement:
        """Handle a proposal into a circuit-open region.

        ``skip`` mode charges one run (no wall-clock) and records a
        synthetic failure, so search loops always terminate and models
        still learn to avoid the region; ``raise`` mode surfaces
        :class:`~repro.exceptions.CircuitOpen` to the caller.  A
        quarantined low-fidelity screen charges only its fidelity
        fraction — the run it skipped would have been cheap too.
        """
        if self.execution.on_quarantine == "raise":
            raise CircuitOpen(region=self.breaker.region(config))
        self.quarantine_skips += 1
        global_metrics().inc("session.quarantine_skips")
        obs_event("quarantine", tag=tag or "quarantined")
        measurement = Measurement(
            runtime_s=math.inf,
            metrics={"quarantined": 1.0, "elapsed_before_failure_s": 0.0},
            failed=True,
        )
        self._account(config, measurement, tag or "quarantined",
                      self.workload, fidelity)
        return measurement

    # -- the evaluation pipeline -------------------------------------------
    def _pipeline(
        self,
        configs: Sequence[Configuration],
        labels: Sequence[str],
        fidelity: float = 1.0,
        workload: Optional[Workload] = None,
        *,
        batch_tag: Optional[str] = None,
        breaker: bool = True,
        retries: bool = False,
        measured: Optional[Sequence[Measurement]] = None,
    ) -> List[Measurement]:
        """Execute one proposal and account each member — the one path
        by which a run reaches the budget and the history.

        The proposal is cut to the members the budget affords
        (:class:`~repro.exceptions.BudgetExhausted` when none fits).
        Then: with ``breaker``, quarantined members are skipped; one
        ``system.run_batch`` call executes the rest; and each member, in
        order, is sanitized, deadline-checked, retried (``retries``),
        charged, counted, and recorded to the history and the breaker.
        ``measured`` instead supplies the results of runs made outside
        the session: they are only sanitized and recorded, unbudgeted.
        A batch (``batch_tag`` set) runs in a ``batch`` span with an
        ``evaluation`` span per member, a single proposal in one
        ``evaluation`` span, and ``measured`` results in none.
        """
        span_attrs = {} if workload is None else {"workload": workload.name}
        workload = self.workload if workload is None else workload
        configs = list(configs)
        external = measured is not None
        if not external:
            configs = configs[: self._affordable(len(configs), fidelity)]
            if not configs:
                raise BudgetExhausted(
                    f"budget spent: {self.charged_runs:g}/"
                    f"{self.budget.max_runs} runs charged, "
                    f"{self.experiment_time_s:.1f}s measured"
                )
        guard = self.breaker if breaker else None
        skip = [guard is not None and guard.is_open(c) for c in configs]
        to_run = [c for c, s in zip(configs, skip) if not s]
        # A fidelity view wraps *outside* the instrumented system, so
        # noise draws, run counters and the evaluation cache stay on the
        # one shared instance.
        system = (
            self.system if fidelity >= 1.0
            else with_fidelity(self.system, fidelity)
        )
        batch = batch_tag is not None
        if batch:
            outer_span = obs_span("batch", size=len(configs), tag=batch_tag)
        elif to_run and not external:
            outer_span = obs_span("evaluation", tag=labels[0], **span_attrs)
        else:
            outer_span = nullcontext()
        results: List[Measurement] = []
        with outer_span as outer:
            if not external:
                measured = system.run_batch(workload, to_run) if to_run else []
            executed = iter(measured)
            for config, label, quarantined in zip(configs, labels, skip):
                if quarantined:
                    results.append(self._quarantined(config, label, fidelity))
                    continue
                member_span = (
                    obs_span("evaluation", tag=label) if batch
                    else nullcontext(outer)
                )
                with member_span as sp:
                    measurement = self._sanitize(next(executed))
                    if not external:
                        measurement = self._enforce_deadline(measurement)
                    attempt, settled = 0, True
                    # Only environmental (injected) failures are worth
                    # retrying; the failed attempt and its backoff both
                    # cost budget, as clusters bill for crashes too.
                    while (
                        retries
                        and measurement.failed
                        and measurement.metric("injected_fault", 0.0) > 0
                        and attempt < self.execution.max_retries
                    ):
                        backoff_s = self.execution.backoff_s(attempt)
                        self.retries += 1
                        global_metrics().inc("session.retries")
                        obs_event("retry", attempt=attempt,
                                  backoff_s=backoff_s)
                        self._account(
                            config, measurement,
                            f"{label}+retry{attempt}" if label
                            else f"retry{attempt}",
                            workload, fidelity, extra_time_s=backoff_s,
                        )
                        attempt += 1
                        settled = self._affordable(1, fidelity) > 0
                        if not settled:
                            break  # out of budget: the retry stays last
                        measurement = self._enforce_deadline(self._sanitize(
                            system.run_batch(workload, [config])[0]
                        ))
                    if settled:
                        self._account(config, measurement, label, workload,
                                      fidelity)
                        if sp is not None:
                            sp.set(ok=measurement.ok,
                                   runtime_s=measurement.runtime_s)
                            if retries:
                                sp.set(attempts=attempt + 1)
                    if guard is not None:
                        guard.record(config, measurement)
                results.append(measurement)
            if batch and outer is not None:
                outer.set(executed=len(to_run),
                          quarantined=len(configs) - len(to_run))
        return results

    # -- experiment execution ---------------------------------------------
    def evaluate(
        self, config: Configuration, tag: str = "", fidelity: float = 1.0
    ) -> Measurement:
        """Run the session workload under ``config`` for real.

        The sequential proposal, and the only entry point that retries
        environmental failures.  ``fidelity`` below 1.0 executes the
        cheap approximation (:func:`repro.core.fidelity.with_fidelity`)
        and charges only that fraction of a run, per attempt.  The
        default 1.0 is byte-identical to the pre-fidelity session.

        Raises:
            BudgetExhausted: before running, if the budget cannot
                afford one run at ``fidelity``.
            CircuitOpen: when the config's region is quarantined and the
                execution policy says ``on_quarantine="raise"``.
        """
        return self._pipeline([config], [tag], fidelity, retries=True)[0]

    def evaluate_batch(
        self,
        configs: Sequence[Configuration],
        tag: str = "",
        tags: Optional[Sequence[str]] = None,
        fidelity: float = 1.0,
    ) -> List[Measurement]:
        """Run a batch of independent configurations as one proposal.

        This models iTuned's parallel-experiment feature: the tuner
        commits to the whole batch *before* seeing any result, so the
        batch is charged to the budget atomically — every executed
        configuration counts, even when a wall-clock cap is crossed
        mid-batch.  A batch the budget cannot fully afford is truncated
        to its affordable prefix; measurements come back in ``configs``
        order.  Execution goes through :meth:`SystemUnderTune.run_batch`
        (vectorized or concurrent, with results identical to a serial
        loop).  Deadlines and the circuit breaker apply per member;
        there is no retry path, whatever the batch size.

        Args:
            configs: proposed configurations (independent experiments).
            tag: provenance label applied to every observation, unless
                ``tags`` gives one per configuration.
            tags: optional per-configuration labels (same length as
                ``configs``).
            fidelity: evaluation fidelity for the whole batch; each
                member charges that fraction of a run.

        Raises:
            BudgetExhausted: before running anything, if the budget
                cannot afford the first member.
            ValueError: when ``tags`` is given with the wrong length.
        """
        configs = list(configs)
        if tags is not None and len(tags) != len(configs):
            raise ValueError(
                f"tags has {len(tags)} entries for {len(configs)} configs"
            )
        if not configs:
            return []
        labels = list(tags) if tags is not None else [tag] * len(configs)
        return self._pipeline(configs, labels, fidelity, batch_tag=tag)

    def evaluate_workload(
        self, workload: Workload, config: Configuration, tag: str = ""
    ) -> Measurement:
        """Run an *alternate* workload (e.g., a probe query) on budget;
        the circuit breaker, which maps the session workload, is off."""
        return self._pipeline(
            [config], [tag], workload=workload, breaker=False
        )[0]

    def record_external(
        self, config: Configuration, measurement: Measurement, tag: str = ""
    ) -> None:
        """Record a real execution performed outside evaluate().

        Used by online tuners that drive the system directly through
        stream processing; charges budget without enforcing it (the
        stream length was already budget-derived).
        """
        self._pipeline([config], [tag], breaker=False, measured=[measurement])

    def predict(self, config: Configuration, runtime_s: float, tag: str = "") -> None:
        """Record a model-based prediction (not charged to budget)."""
        self.history.record(
            Observation(
                config,
                Measurement(runtime_s=max(0.0, runtime_s)),
                source=MODEL,
                tag=tag,
            )
        )

    # -- transfer prior ----------------------------------------------------
    def prior_training_data(self) -> "tuple[np.ndarray, np.ndarray]":
        """Mapped prior observations as (X, y) on the target's runtime
        scale, or empty arrays when the session has no prior."""
        if self.prior is None:
            return np.zeros((0, self.space.dimension)), np.zeros(0)
        return self.prior.training_data(self.space)

    def prior_best_configs(self, k: int = 3) -> List[Configuration]:
        """The prior's top-``k`` configurations, rebuilt against this
        session's space (empty without a prior)."""
        if self.prior is None:
            return []
        return self.prior.best_configs(self.space, k=k)

    # -- convenience -------------------------------------------------------
    @property
    def space(self):
        return self.system.config_space

    def default_config(self) -> Configuration:
        return self.system.default_configuration()

    def best_config(self) -> Optional[Configuration]:
        best = self.history.best()
        return best.config if best else None

    def best_runtime(self) -> float:
        return self.history.best_runtime()

    def evaluate_if_budget(
        self, config: Configuration, tag: str = ""
    ) -> Optional[Measurement]:
        """Like evaluate() but returns None instead of raising."""
        if not self._affordable(1, 1.0):
            return None
        return self.evaluate(config, tag=tag)

    def resilience_summary(self) -> Dict[str, Any]:
        """Robustness accounting for this session.

        ``wasted_run_fraction`` counts runs that produced no usable
        measurement (failures, hangs, quarantine skips);
        ``wasted_time_fraction`` is the share of the charged wall-clock
        spent on them (partial elapsed time plus retry backoff).
        """
        real = self.real_runs
        time_total = self.experiment_time_s
        return {
            "failure_policy": self.failure_policy,
            "real_runs": real,
            "charged_runs": round(self.charged_runs, 4),
            "failed_runs": self.failed_runs,
            "retries": self.retries,
            "deadline_kills": self.deadline_kills,
            "quarantine_skips": self.quarantine_skips,
            "wasted_time_s": round(self.wasted_time_s, 3),
            "wasted_run_fraction": round(self.failed_runs / real, 4) if real else 0.0,
            "wasted_time_fraction": round(self.wasted_time_s / time_total, 4)
            if time_total > 0 else 0.0,
            "circuit": self.breaker.summary() if self.breaker else None,
        }
