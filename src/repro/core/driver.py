"""The ask/tell search driver: one evaluate loop for every tuner.

The paper's central abstraction is that six *categories* of tuners fit
one contract (system, workload, budget -> best configuration).  Before
this module, each tuner also re-implemented the same execution loop:
check the budget, evaluate, handle failures, maybe batch, maybe seed
from a transfer prior.  :class:`SearchDriver` owns that loop once.

Search strategies subclass :class:`SearchTuner` and implement

* :meth:`~SearchTuner.ask` — propose the next batch of candidate
  configurations given a read-only :class:`SearchState`;
* :meth:`~SearchTuner.tell` — digest the resulting observations.

The driver uniformly applies everything the execution substrate offers:

* **budget charging** through :class:`~repro.core.session.TuningSession`
  (the only path to real runs);
* **parallel fan-out** — any ``ask`` returning more than one candidate
  executes through
  :meth:`~repro.core.session.TuningSession.evaluate_batch`, which an
  :class:`~repro.core.system.InstrumentedSystem` with a runner spreads
  across workers (results byte-identical to a serial loop);
* **resilience** — retries, deadlines, and the circuit breaker of the
  session's :class:`~repro.exec.resilience.ExecutionPolicy` apply to
  every single-candidate proposal exactly as they always did;
* **transfer warm-starts** — when the session carries a
  :class:`~repro.kb.warmstart.TransferPrior`, the driver evaluates the
  prior's best configurations (tagged ``prior-{i}``) before the search
  proper, for every strategy that opts in via
  :meth:`~SearchTuner.wants_prior_seeds`;
* **observability** — the whole search runs inside a ``driver`` span
  with per-ask metrics, on top of the session's evaluation spans.

Two execution guarantees strategies can rely on:

1. ``tell`` receives exactly one *final* observation per executed
   candidate, in proposal order (retry attempts are recorded in the
   history but not re-told).
2. If ``tell`` receives fewer observations than the strategy asked for,
   the budget is spent and ``ask`` will not be called again — unless a
   guard or the multi-fidelity scheduler filtered the batch, in which
   case the search continues with the admitted/promoted subset.

Multi-fidelity screening (MFTune-style): a strategy whose ``screening``
is a :class:`PromotionScheduler` runs each large-enough ask through
successive-halving rungs of cheap approximate evaluations (``rung-{r}``
tags, fidelity-weighted budget charges) and only executes — and tells —
the survivors at full fidelity.

Wall-clock caps and batches: a serial loop stops the moment
``max_experiment_time_s`` is crossed, while an atomic batch charges
every member.  To preserve pre-driver semantics, multi-candidate asks
under a time cap execute sequentially unless the strategy declares
:attr:`~SearchTuner.atomic_batches` (iTuned §5: the tuner commits to
the whole batch before seeing any result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.measurement import REAL, Observation, TuningHistory
from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.session import TuningSession
from repro.core.tuner import Tuner
from repro.exceptions import BudgetExhausted
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event
from repro.obs.trace import span as obs_span

__all__ = [
    "MAX_FRUITLESS_ASKS",
    "PRIOR_SEED_RESERVE",
    "Candidate",
    "PromotionScheduler",
    "SearchState",
    "SearchDriver",
    "SearchTuner",
]

#: Consecutive asks a guard vetoes whole before the driver ends the
#: search.
MAX_FRUITLESS_ASKS = 5
#: Budget runs the transfer-prior seeding phase leaves untouched.
PRIOR_SEED_RESERVE = 1


@dataclass
class Candidate:
    """One proposed experiment.

    Attributes:
        config: the configuration to execute.
        tag: provenance label for the resulting observation.
        predicted_runtime_s: when set, the driver records a model
            prediction (:meth:`~repro.core.session.TuningSession
            .predict`) just before executing the candidate — the
            strategy's surrogate estimate, kept out of budget
            accounting.
        predict_tag: label for that prediction (defaults to ``tag``).
        fidelity: evaluation fidelity for this candidate (1.0 = a full
            run).  Strategies normally leave this at 1.0 and let the
            driver's :class:`PromotionScheduler` decide what to screen;
            a strategy may pin it explicitly to request a cheap run.
    """

    config: Configuration
    tag: str = ""
    predicted_runtime_s: Optional[float] = None
    predict_tag: Optional[str] = None
    fidelity: float = 1.0


#: What :meth:`SearchTuner.ask` may return: bare configurations are
#: promoted to untagged candidates.
Proposal = Union[Candidate, Configuration]


class SearchState:
    """Read-only view of a tuning session for search strategies.

    Strategies propose and digest; they never execute.  This facade
    exposes everything a proposal needs — the space, the shared RNG,
    the observation history, budget introspection, and transfer-prior
    data — without the session's evaluate methods.  It is duck-type
    compatible with :func:`repro.tuners.common.history_to_training_data`.

    Attributes:
        seeded_prior_runs: how many transfer-prior seed evaluations the
            driver executed before the first ``ask`` (0 without a
            prior).
    """

    def __init__(self, session: TuningSession):
        self._session = session
        self.seeded_prior_runs = 0

    # -- search surface ----------------------------------------------------
    @property
    def space(self) -> ConfigurationSpace:
        return self._session.space

    @property
    def rng(self) -> np.random.Generator:
        return self._session.rng

    @property
    def history(self) -> TuningHistory:
        return self._session.history

    @property
    def extras(self) -> Dict[str, Any]:
        return self._session.extras

    @property
    def failure_policy(self) -> str:
        return self._session.failure_policy

    # -- budget ------------------------------------------------------------
    @property
    def budget(self):
        return self._session.budget

    @property
    def remaining_runs(self) -> int:
        return self._session.remaining_runs

    def can_run(self) -> bool:
        return self._session.can_run()

    # -- convenience -------------------------------------------------------
    def default_config(self) -> Configuration:
        return self._session.default_config()

    def best_config(self) -> Optional[Configuration]:
        return self._session.best_config()

    def best_runtime(self) -> float:
        return self._session.best_runtime()

    # -- transfer prior ----------------------------------------------------
    @property
    def prior(self):
        return self._session.prior

    def prior_training_data(self):
        return self._session.prior_training_data()

    def prior_best_configs(self, k: int = 3) -> List[Configuration]:
        return self._session.prior_best_configs(k=k)


@dataclass(frozen=True)
class PromotionScheduler:
    """Successive-halving rung schedule for one ask batch.

    MFTune-style screening: evaluate the whole batch at the cheapest
    fidelity, promote the best ``1/eta`` fraction to the next rung,
    repeat until the survivors run at full fidelity.  The ladder is
    geometric — with ``rungs=3`` and ``min_fidelity=0.25`` it reads
    ``[0.25, 0.5, 1.0]`` — so each rung costs roughly the same total
    charge while the field shrinks.

    Attributes:
        rungs: number of fidelity levels including the final full run.
        min_fidelity: fidelity of the cheapest (first) rung.
        eta: halving rate; rung ``r`` keeps ``ceil(n / eta**(r+1))``
            of the original batch.
        min_batch: asks smaller than this constant skip screening
            entirely — halving a two-candidate batch just burns charge.
    """

    rungs: int = 3
    min_fidelity: float = 0.25
    eta: float = 2.0
    min_batch: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.rungs < 2:
            raise ValueError("rungs must be >= 2 (screen + full run)")
        if not (0.0 < self.min_fidelity < 1.0):
            raise ValueError(
                f"min_fidelity must be in (0, 1), got {self.min_fidelity!r}"
            )
        if self.eta <= 1.0:
            raise ValueError("eta must be > 1")

    def ladder(self) -> List[float]:
        """Fidelity per rung, cheapest first, ending at exactly 1.0."""
        span = self.rungs - 1
        return [
            self.min_fidelity ** ((span - r) / span) for r in range(self.rungs)
        ]

    def survivors(self, batch_size: int, rung: int) -> int:
        """How many of an original ``batch_size`` survive rung ``rung``."""
        return max(1, int(math.ceil(batch_size / self.eta ** (rung + 1))))


class SearchTuner(Tuner):
    """Base class for tuners written against the ask/tell contract.

    Subclasses implement :meth:`ask` (and usually :meth:`tell`); the
    inherited :meth:`Tuner._tune` delegates to a
    :class:`SearchDriver`, so a new tuner is ~30 lines of proposal
    logic and gets batching, caching, resilience, warm-starts, and
    tracing from the substrate.

    Per-run mutable state must be initialized in :meth:`setup`, never
    in ``__init__`` — one tuner instance may run many sessions.
    """

    #: Evaluate the system default before the first ask.  Nearly every
    #: strategy wants this: the result can then never be worse than
    #: untuned.
    evaluate_default_first: bool = True
    #: Tag for that default evaluation.
    default_tag: str = "default"
    #: Declare multi-candidate asks atomic: charged whole even when a
    #: wall-clock cap is crossed mid-batch (iTuned §5 semantics).
    #: Leave False to preserve serial stop-at-the-cap behaviour.
    atomic_batches: bool = False
    #: Multi-fidelity screening: with a :class:`PromotionScheduler` here
    #: the driver screens every large-enough ask at low fidelity, only
    #: telling the strategy full-fidelity survivors.
    #: :func:`~repro.core.registry.make_tuner` builds one from the
    #: ``fidelity_*`` options whenever one is passed.  Off by default —
    #: enabling it changes which runs execute, so every existing digest
    #: stays untouched.
    screening: Optional[PromotionScheduler] = None

    def setup(self, state: SearchState) -> None:
        """Initialize per-run state before any evaluation."""

    def ask(self, state: SearchState) -> Sequence[Proposal]:
        """Propose the next candidates.  Empty/None ends the search."""
        raise NotImplementedError

    def tell(self, state: SearchState, results: List[Observation]) -> None:
        """Digest the final observation of each executed candidate.

        ``results`` follows proposal order and covers the executed
        prefix; the driver also tells the default evaluation and any
        prior seeds (before the first ask).  Strategies that read
        ``state.history`` directly may ignore this hook.
        """

    def finish(self, state: SearchState) -> None:
        """Called once after the loop — finalize extras, summaries."""

    def recommend(self, state: SearchState) -> Optional[Configuration]:
        """Final recommendation; None means "best observed"."""
        return None

    def wants_prior_seeds(self, state: SearchState) -> int:
        """How many prior seed evaluations to run (0 = none).

        Called after the default evaluation, only when the session
        carries a transfer prior.  Strategies may inspect the prior
        here (e.g., SARD checks whether it can rank knobs from prior
        data) before committing budget to seeds.
        """
        return 0

    def _tune(self, session: TuningSession) -> Optional[Configuration]:
        return SearchDriver().run(self, session)


class SearchDriver:
    """Owns the evaluate loop between a strategy and a session.

    A strategy whose ``screening`` is a :class:`PromotionScheduler` has
    its large-enough asks screened by it; otherwise every candidate runs
    at full fidelity.

    Args:
        guard: optional guardrail (e.g.,
            :class:`repro.fleet.SafetyGate`) consulted before any
            proposal executes.  ``guard.filter(session, candidates)``
            returns the admitted (possibly clipped) subset; vetoed
            candidates are never executed, so with a guard installed a
            ``tell`` may cover fewer observations than the ask proposed
            while the search still continues.  After
            :data:`MAX_FRUITLESS_ASKS` consecutive fully-vetoed asks the
            driver ends the search (graceful degradation to the
            incumbent) instead of spinning on a strategy whose every
            proposal the guard rejects.
    """

    def __init__(self, guard: Optional[Any] = None):
        self.guard = guard

    def run(
        self, strategy: SearchTuner, session: TuningSession
    ) -> Optional[Configuration]:
        """Drive ``strategy`` against ``session`` until budget or the
        strategy itself ends the search; returns its recommendation."""
        state = SearchState(session)
        metrics = global_metrics()
        scheduler = strategy.screening
        with obs_span("driver", tuner=getattr(strategy, "name", "strategy")):
            strategy.setup(state)
            if strategy.evaluate_default_first and session.can_run():
                mark = len(session.history)
                session.evaluate(
                    session.default_config(), tag=strategy.default_tag
                )
                strategy.tell(state, self._finals(session, mark, single=True))
            self._seed_from_prior(strategy, state, session)
            fruitless = 0
            while session.can_run():
                proposals = strategy.ask(state)
                candidates = [
                    p if isinstance(p, Candidate) else Candidate(p)
                    for p in (proposals or [])
                ]
                if not candidates:
                    break
                metrics.inc("driver.asks")
                metrics.observe("driver.ask_size", float(len(candidates)))
                if self.guard is not None:
                    candidates = list(self.guard.filter(session, candidates))
                    if not candidates:
                        fruitless += 1
                        if fruitless >= MAX_FRUITLESS_ASKS:
                            metrics.inc("driver.guard_exhausted")
                            break
                        continue
                    fruitless = 0
                for c in candidates:
                    if c.predicted_runtime_s is not None:
                        session.predict(
                            c.config,
                            c.predicted_runtime_s,
                            tag=c.predict_tag or c.tag,
                        )
                try:
                    if (
                        scheduler is not None
                        and len(candidates) >= scheduler.min_batch
                        and all(c.fidelity >= 1.0 for c in candidates)
                    ):
                        results = self._execute_screened(
                            strategy, session, candidates, scheduler
                        )
                    else:
                        results = self._execute(strategy, session, candidates)
                except BudgetExhausted:
                    # A partial charge left less than this proposal's
                    # first member costs: the search is over.
                    break
                strategy.tell(state, results)
            strategy.finish(state)
            return strategy.recommend(state)

    # -- execution ---------------------------------------------------------
    def _execute(
        self,
        strategy: SearchTuner,
        session: TuningSession,
        candidates: List[Candidate],
    ) -> List[Observation]:
        """Run one proposal and return its final observations."""
        mixed = len({c.fidelity for c in candidates}) > 1
        if len(candidates) == 1 or mixed or (
            session.budget.max_experiment_time_s is not None
            and not strategy.atomic_batches
        ):
            # The sequential path, where retries, backoff and quarantine
            # handling apply per the session's execution policy.  A
            # serial loop stops the moment the wall-clock cap is
            # crossed, so a capped batch splits to keep that meaning;
            # mixed-fidelity asks split because a session batch
            # executes at one fidelity.
            finals: List[Observation] = []
            for c in candidates:
                if not session.can_run():
                    break
                mark = len(session.history)
                session.evaluate(c.config, tag=c.tag, fidelity=c.fidelity)
                finals.extend(self._finals(session, mark, single=True))
            return finals
        mark = len(session.history)
        session.evaluate_batch(
            [c.config for c in candidates],
            tags=[c.tag for c in candidates],
            fidelity=candidates[0].fidelity,
        )
        return self._finals(session, mark, single=False)

    def _execute_screened(
        self,
        strategy: SearchTuner,
        session: TuningSession,
        candidates: List[Candidate],
        scheduler: PromotionScheduler,
    ) -> List[Observation]:
        """Successive-halving execution of one ask batch.

        Every sub-full rung evaluates the surviving field at that
        rung's fidelity (observations tagged ``rung-{r}``, recorded in
        the history but *not* told — they are screens, on a scaled
        runtime axis) and promotes the best ``1/eta`` fraction.  The
        final survivors execute through the normal full-fidelity path
        and their observations are what the strategy's ``tell``
        receives — so with screening on, a tell covers fewer
        observations than the ask proposed, exactly like the guard
        path.
        """
        metrics = global_metrics()
        ladder = scheduler.ladder()
        batch_size = len(candidates)
        alive = list(candidates)
        summary = session.extras.setdefault(
            "multi_fidelity",
            {
                "ladder": [round(f, 6) for f in ladder],
                "screened_asks": 0,
                "rung_evals": 0,
                "rung_promotions": 0,
                "full_evals": 0,
            },
        )
        summary["screened_asks"] += 1
        for rung, fidelity in enumerate(ladder[:-1]):
            keep = scheduler.survivors(batch_size, rung)
            if len(alive) <= keep:
                # Nothing this rung could screen out; skip its spend.
                continue
            if not session.can_run():
                return []
            tags = [
                f"{c.tag}+rung-{rung}" if c.tag else f"rung-{rung}"
                for c in alive
            ]
            measured = session.evaluate_batch(
                [c.config for c in alive], tags=tags, fidelity=fidelity
            )
            # Rank the measured prefix (budget truncation may have cut
            # the batch); failures and quarantine skips read as inf and
            # never promote.  Ties break on proposal order.
            ranked = sorted(
                (m.runtime_s if m.ok else math.inf, i)
                for i, m in enumerate(measured)
            )
            chosen = sorted(
                i for runtime, i in ranked[:keep] if math.isfinite(runtime)
            )
            promoted = [alive[i] for i in chosen]
            metrics.inc("driver.mf.rung_evals", len(measured))
            metrics.inc("driver.mf.promotions", len(promoted))
            metrics.observe(
                "driver.mf.promotion_rate",
                len(promoted) / len(measured) if measured else 0.0,
            )
            obs_event(
                "mf_rung", rung=rung, fidelity=round(fidelity, 6),
                evaluated=len(measured), promoted=len(promoted),
            )
            summary["rung_evals"] += len(measured)
            summary["rung_promotions"] += len(promoted)
            if not promoted:
                return []
            alive = promoted
        if not session.can_run():
            return []
        summary["full_evals"] += len(alive)
        metrics.inc("driver.mf.full_evals", len(alive))
        return self._execute(strategy, session, alive)

    @staticmethod
    def _finals(
        session: TuningSession, mark: int, single: bool
    ) -> List[Observation]:
        """Final real observations recorded since ``mark``.

        A retried single evaluation records every attempt; only the
        last (settled) observation is the candidate's result.  Batches
        have no retry path — one observation per executed config.
        """
        real = [
            o
            for o in session.history.observations[mark:]
            if o.source == REAL
        ]
        if single:
            return real[-1:]
        return real

    # -- transfer warm-start -----------------------------------------------
    def _seed_from_prior(
        self,
        strategy: SearchTuner,
        state: SearchState,
        session: TuningSession,
    ) -> None:
        """Evaluate the prior's top configurations before the search.

        This is the single site where transfer priors become real runs:
        strategies declare *how many* seeds they want, the driver
        spends the budget (keeping :data:`PRIOR_SEED_RESERVE` runs back)
        and tags the evaluations ``prior-{i}``.
        """
        if session.prior is None:
            return
        k = strategy.wants_prior_seeds(state)
        if k <= 0:
            return
        mark = len(session.history)
        seeded = 0
        for i, config in enumerate(session.prior_best_configs(k=k)):
            if session.remaining_runs <= PRIOR_SEED_RESERVE:
                break
            candidate = Candidate(config, tag=f"prior-{i}")
            if self.guard is not None:
                kept = list(self.guard.filter(session, [candidate]))
                if not kept:
                    continue
                candidate = kept[0]
            if (
                session.evaluate_if_budget(candidate.config, tag=candidate.tag)
                is None
            ):
                break
            seeded += 1
        state.seeded_prior_runs = seeded
        global_metrics().inc("driver.prior_seeds", seeded)
        if seeded:
            strategy.tell(state, self._finals(session, mark, single=False))
