"""The fleet controller: safe continuous tuning for many tenants.

This is ROADMAP item 5 — the adaptive-tuner category operated the way
production database fleets actually run: N tenants, each a (system,
workload stream) pair, kept tuned *continuously* under drift and
standing faults instead of tuned once and abandoned.

Incumbents are kept **per workload**: a configuration is only ever
deployed on the workload it was actually vetted on (its adopting
episode evaluated it there for real), and a workload with no vetted
incumbent runs the default configuration — the safe fallback.  The
fleet never deploys an unvetted (config, workload) pair; cross-workload
extrapolation of an aggressively tuned config is exactly the kind of
silent regression the safety layer exists to prevent.

Per tenant, every **epoch** the controller:

1. **monitors** — runs the current workload's incumbent configuration
   once (the "deployed" run whose runtime is the tenant's experienced
   cost; the cumulative-regret benchmark scores exactly these);
2. **detects drift** — feeds the monitor's runtime and metric vector to
   that workload's :class:`~repro.tuners.adaptive.drift.DriftDetector`
   / :class:`~repro.tuners.adaptive.drift.MetricDriftDetector` pair
   (chaos-injected samples are excluded: weather is not drift), and on
   a config-correlated incumbent failure or a detector firing,
   *demotes* the incumbent — it is not redeployed — and schedules a
   re-tune;
3. **re-tunes** — runs a budgeted tuning episode through the standard
   :class:`~repro.core.driver.SearchDriver`, warm-started from the
   knowledge base's similarity search
   (:func:`~repro.kb.warmstart.warm_start_prior`) and guarded by the
   tenant's :class:`~repro.fleet.safety.SafetyGate` and persistent
   :class:`~repro.exec.resilience.CircuitBreaker` — exploration can
   never deploy a config predicted meaningfully worse than the
   incumbent nor re-enter quarantined regions;
4. **adopts** — promotes the episode's best observed configuration when
   it beats (or replaces a demoted) incumbent, and ingests the episode
   into the KB so *other* tenants' warm starts benefit;
5. **checkpoints** — atomically persists all controller + tenant state
   (:mod:`repro.fleet.checkpoint`); a killed controller resumes from
   the last checkpoint and replays to byte-identical per-tenant
   history digests.

Chaos is mounted per tenant as a standing adversary
(``TenantSpec.chaos_intensity``); injection state is checkpointed so a
resume continues the exact fault sequence.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.chaos.policies import (
    CONFIG_FAULT_KEY,
    INJECTED_FAULT_KEY,
    standard_policies,
)
from repro.chaos.system import ChaosSystem
from repro.core.driver import SearchDriver, SearchTuner
from repro.core.measurement import REAL, Measurement, Observation, TuningHistory
from repro.core.registry import make_tuner
from repro.core.serialize import (
    decode_runtime,
    encode_runtime,
    history_from_jsonable,
    to_jsonable,
)
from repro.core.session import TuningSession
from repro.core.system import SystemUnderTune
from repro.core.tuner import Budget
from repro.core.workload import Workload
from repro.exec.cache import Unfingerprintable, fingerprint
from repro.exec.resilience import CircuitBreaker, ExecutionPolicy, enforce_deadline
from repro.fleet.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.fleet.safety import SafetyGate
from repro.kb.fingerprint import probe_fingerprint
from repro.kb.store import KnowledgeBase
from repro.kb.warmstart import warm_start_prior
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event
from repro.obs.trace import span as obs_span
from repro.surrogate import SurrogateStore, family_of, surrogate_prior
from repro.tuners.adaptive.drift import DriftDetector, MetricDriftDetector

__all__ = ["TenantSpec", "FleetController"]

#: Consecutive config-correlated failures that quarantine a region of a
#: tenant's knob space.
BREAKER_THRESHOLD = 2
#: Recorded runs after which a quarantined region admits one probe.
BREAKER_COOLDOWN_RUNS = 25
#: A tenant's runtime detectors use :class:`DriftDetector`'s defaults;
#: its metric detectors fire at this Page-Hinkley threshold.
METRIC_DRIFT_THRESHOLD = 1.5

#: Monitor bookkeeping metrics that must not feed drift detection.
_BOOKKEEPING_METRICS = (
    INJECTED_FAULT_KEY,
    CONFIG_FAULT_KEY,
    "elapsed_before_failure_s",
    "deadline_exceeded",
)


def _kwargs_fingerprint(kwargs: Mapping[str, Any]) -> Optional[str]:
    """The value-based fingerprint a checkpoint records for a strategy's
    kwargs, JSON or not (a repository object, a numpy scalar); ``None``
    when a kwarg holds state with no stable value, such as a live RNG,
    so the kwargs cannot be compared."""
    try:
        return fingerprint(kwargs)
    except Unfingerprintable:
        return None


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant slot.

    Attributes:
        name: unique tenant identifier (checkpoint key).
        system: the tenant's *clean* system under tune; chaos wrapping
            happens inside the controller so fingerprint probes and
            counterfactual audits can reach the deterministic inner.
        workloads: the tenant's workload phases, cycled every
            ``phase_length`` epochs — the drift the controller must
            chase.
        phase_length: epochs per workload phase.
        chaos_intensity: standing-fault intensity (0 disables chaos).
        episode_budget: real runs per re-tuning episode.
    """

    name: str
    system: SystemUnderTune
    workloads: Sequence[Workload]
    phase_length: int = 4
    chaos_intensity: float = 0.0
    episode_budget: int = 10

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError(f"tenant {self.name!r} needs >= 1 workload")
        if self.phase_length < 1:
            raise ValueError("phase_length must be >= 1")
        if self.episode_budget < 2:
            raise ValueError("episode_budget must be >= 2")
        if self.chaos_intensity < 0:
            raise ValueError("chaos_intensity must be >= 0")

    def workload_for(self, epoch: int) -> Workload:
        return self.workloads[(epoch // self.phase_length) % len(self.workloads)]

    def settings(self) -> Dict[str, Any]:
        """What a checkpoint records of this spec, so that a resume
        under other tenant settings is refused."""
        return {
            "workloads": [w.name for w in self.workloads],
            "phase_length": self.phase_length,
            "chaos_intensity": self.chaos_intensity,
            "episode_budget": self.episode_budget,
        }


@dataclass
class _Tenant:
    """Mutable runtime state of one tenant slot."""

    spec: TenantSpec
    system: SystemUnderTune  # chaos-wrapped when intensity > 0
    chaos: Optional[ChaosSystem]
    rng: np.random.Generator
    gate: SafetyGate
    breaker: CircuitBreaker
    # Per-workload state, keyed by workload name: drift baselines are
    # only comparable within a workload, and an incumbent is only
    # trusted on the workload it was vetted on.
    runtime_drift: Dict[str, DriftDetector] = field(default_factory=dict)
    metric_drift: Dict[str, MetricDriftDetector] = field(default_factory=dict)
    incumbents: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    history: TuningHistory = field(default_factory=TuningHistory)
    deployed: List[Dict[str, Any]] = field(default_factory=list)
    drift_events: List[Dict[str, Any]] = field(default_factory=list)
    monitors: int = 0
    retunes: int = 0
    demotions: int = 0
    total_real_runs: int = 0


class FleetController:
    """Run N tenants through safe continuous-tuning epochs.

    Args:
        tenants: the tenant slots.
        epochs: total epochs to run.
        seed: fleet master seed; every tenant RNG and chaos seed derives
            deterministically from it.
        kb: shared knowledge base for warm starts and episode ingest
            (``None`` disables transfer).  Must be file-backed when
            ``checkpoint_path`` is set — an in-memory KB cannot survive
            the crash the checkpoint exists for.
        surrogate_store: opt-in :class:`~repro.surrogate.SurrogateStore`;
            when set (and ``kb`` is set), each re-tune episode's prior is
            additionally seeded with the family surrogate's top predicted
            configurations (:func:`~repro.surrogate.surrogate_prior`), so
            the opening batch starts from the model's best guesses.
            Default ``None`` keeps the similarity-only prior — resumed
            runs replay to byte-identical digests only when the store
            (and its on-disk state) is supplied identically.
        strategy: registered tuner name used for episodes; must be a
            :class:`~repro.core.driver.SearchTuner` (the episode runs
            through a guarded ``SearchDriver``).
        strategy_kwargs: extra constructor kwargs for the strategy; a
            checkpoint records their value-based fingerprint
            (:func:`~repro.exec.cache.fingerprint`), so any kwarg, a
            repository object too, checkpoints and is compared.
        deadline_s: per-run deadline for episodes *and* monitor runs.
        retune_on_drift: ``False`` gives the one-shot baseline — tune
            a single episode at epoch 0 (the first workload), never
            react to drift, and run later workload phases on the safe
            default (the benchmark's comparison arm).
        checkpoint_path: JSON checkpoint location, written after every
            epoch; when the file already exists the controller *resumes*
            from it, and raises ``ValueError`` if it was written under
            other tenant specs, seed, strategy, ``strategy_kwargs``,
            ``deadline_s`` or ``retune_on_drift``.
        on_tenant_complete: hook called as ``(epoch, tenant_name)``
            after each tenant's epoch — tests use a raising hook to
            simulate mid-epoch kills.
        log: optional line sink for progress output (CLI).
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        epochs: int,
        seed: int = 0,
        kb: Optional[KnowledgeBase] = None,
        surrogate_store: Optional[SurrogateStore] = None,
        strategy: str = "bayesopt",
        strategy_kwargs: Optional[Mapping[str, Any]] = None,
        deadline_s: Optional[float] = 600.0,
        retune_on_drift: bool = True,
        checkpoint_path: Optional[str] = None,
        on_tenant_complete: Optional[Callable[[int, str], None]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if checkpoint_path is not None and kb is not None and kb.path == ":memory:":
            raise ValueError(
                "checkpointing requires a file-backed knowledge base "
                "(an in-memory KB cannot survive the crash being planned for)"
            )
        self.epochs = epochs
        self.seed = int(seed)
        self.kb = kb
        self.surrogate_store = surrogate_store
        self.strategy = strategy
        self.strategy_kwargs = dict(strategy_kwargs or {})
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.retune_on_drift = retune_on_drift
        self.checkpoint_path = checkpoint_path
        self.on_tenant_complete = on_tenant_complete
        self.log = log
        self._epochs_done = 0
        self._tenants = [self._build_tenant(i, spec) for i, spec in enumerate(tenants)]
        self.resumed_from_epoch: Optional[int] = None
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            self._restore(read_checkpoint(checkpoint_path))
            self.resumed_from_epoch = self._epochs_done

    # -- construction ------------------------------------------------------
    def _tenant_seed(self, kind: str, name: str) -> int:
        return zlib.crc32(f"{self.seed}/{kind}/{name}".encode())

    def _build_tenant(self, index: int, spec: TenantSpec) -> _Tenant:
        chaos: Optional[ChaosSystem] = None
        system: SystemUnderTune = spec.system
        if spec.chaos_intensity > 0:
            chaos = ChaosSystem(
                spec.system,
                standard_policies(spec.chaos_intensity),
                seed=self._tenant_seed("chaos", spec.name),
            )
            system = chaos
        return _Tenant(
            spec=spec,
            system=system,
            chaos=chaos,
            rng=np.random.default_rng(
                np.random.SeedSequence([self.seed, index])
            ),
            gate=SafetyGate(),
            breaker=CircuitBreaker(
                BREAKER_THRESHOLD, cooldown_runs=BREAKER_COOLDOWN_RUNS
            ),
        )

    def _reset_detectors(self, tenant: _Tenant, workload_name: str) -> None:
        """Fresh drift baselines for one workload (new incumbent =
        new expected level; the old baseline would fire spuriously)."""
        tenant.runtime_drift[workload_name] = DriftDetector()
        tenant.metric_drift[workload_name] = MetricDriftDetector(
            threshold=METRIC_DRIFT_THRESHOLD
        )

    # -- main loop ---------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Run (or resume) until ``epochs`` epochs are done; returns
        :meth:`report`."""
        metrics = global_metrics()
        with obs_span("fleet", tenants=len(self._tenants), epochs=self.epochs):
            while self._epochs_done < self.epochs:
                epoch = self._epochs_done
                for tenant in self._tenants:
                    self._run_tenant_epoch(tenant, epoch)
                    if self.on_tenant_complete is not None:
                        self.on_tenant_complete(epoch, tenant.spec.name)
                self._epochs_done += 1
                metrics.inc("fleet.epochs")
                if self.checkpoint_path is not None:
                    self.save_checkpoint()
                if self.log is not None:
                    self.log(self._epoch_line(epoch))
            if self.checkpoint_path is not None:
                self.save_checkpoint()
        return self.report()

    def _epoch_line(self, epoch: int) -> str:
        parts = []
        for t in self._tenants:
            last = t.deployed[-1] if t.deployed else {}
            runtime = last.get("runtime_s")
            shown = "fail" if runtime is None or math.isinf(runtime) else f"{runtime:.1f}s"
            parts.append(f"{t.spec.name}={shown}")
        return f"epoch {epoch + 1}/{self.epochs}: " + "  ".join(parts)

    # -- epoch steps -------------------------------------------------------
    def _run_tenant_epoch(self, tenant: _Tenant, epoch: int) -> None:
        spec = tenant.spec
        workload = spec.workload_for(epoch)
        metrics = global_metrics()
        with obs_span("fleet.epoch", tenant=spec.name, epoch=epoch,
                      workload=workload.name):
            measurement, config = self._monitor(tenant, workload, epoch)
            fired = self._detect_drift(tenant, workload, measurement, epoch)
            if fired and self.retune_on_drift:
                incumbent = tenant.incumbents.get(workload.name)
                if incumbent is not None and not incumbent["stale"]:
                    incumbent["stale"] = True
                    tenant.demotions += 1
                    metrics.inc("fleet.demotions")
                    obs_event("fleet.demote", tenant=spec.name, epoch=epoch,
                              workload=workload.name)
            incumbent = tenant.incumbents.get(workload.name)
            needs_retune = incumbent is None or incumbent["stale"]
            if needs_retune and (self.retune_on_drift or tenant.retunes == 0):
                self._run_episode(tenant, workload, epoch)
            metrics.inc("fleet.tenant_epochs")

    def _monitor(self, tenant: _Tenant, workload: Workload, epoch: int):
        """One deployed run of the workload's vetted incumbent.

        A workload with no (or only a demoted) incumbent deploys the
        default configuration — the safe fallback; a config is never
        deployed on a workload it was not vetted on.
        """
        space = tenant.spec.system.config_space
        incumbent = tenant.incumbents.get(workload.name)
        if incumbent is not None and not incumbent["stale"]:
            config = space.configuration(incumbent["values"])
        else:
            config = space.default_configuration()
        measurement = tenant.system.run(workload, config)
        measurement = enforce_deadline(measurement, self.deadline_s)
        tenant.history.record(Observation(
            config, measurement, source=REAL,
            tag=f"monitor-{epoch}", workload=workload.name,
        ))
        tenant.monitors += 1
        tenant.total_real_runs += 1
        injected = measurement.metric(INJECTED_FAULT_KEY, 0.0) > 0
        tenant.deployed.append({
            "epoch": epoch,
            "workload": workload.name,
            "runtime_s": measurement.runtime_s,
            "ok": measurement.ok,
            "injected": injected,
        })
        metrics = global_metrics()
        metrics.inc("fleet.monitor_runs")
        if measurement.ok and math.isfinite(measurement.runtime_s):
            metrics.observe("fleet.monitor_runtime_s", measurement.runtime_s)
        return measurement, config

    def _detect_drift(self, tenant: _Tenant, workload: Workload,
                      measurement: Measurement, epoch: int) -> bool:
        """Feed the monitor sample to the workload's drift detectors.

        Chaos-injected samples never feed the detectors (weather is not
        drift), but a *config-correlated* incumbent failure is an
        immediate demotion trigger — the incumbent fell off a cliff.
        """
        name = workload.name
        if name not in tenant.runtime_drift:
            self._reset_detectors(tenant, name)
        reasons: List[str] = []
        injected = measurement.metric(INJECTED_FAULT_KEY, 0.0) > 0
        config_fault = measurement.metric(CONFIG_FAULT_KEY, 0.0) > 0
        if measurement.ok and math.isfinite(measurement.runtime_s) and not injected:
            if tenant.runtime_drift[name].update(measurement.runtime_s):
                reasons.append("runtime")
            clean_metrics = {
                metric: value
                for metric, value in measurement.metrics.items()
                if metric not in _BOOKKEEPING_METRICS and math.isfinite(value)
            }
            reasons.extend(
                f"metric:{metric}"
                for metric in tenant.metric_drift[name].update(clean_metrics)
            )
        elif not measurement.ok and (config_fault or not injected):
            reasons.append("incumbent-failure")
        if reasons:
            tenant.drift_events.append(
                {"epoch": epoch, "workload": name, "reasons": reasons}
            )
            global_metrics().inc("fleet.drift_events")
            obs_event("fleet.drift", tenant=tenant.spec.name, epoch=epoch,
                      workload=name, reasons=",".join(reasons))
        return bool(reasons)

    def _run_episode(self, tenant: _Tenant, workload: Workload,
                     epoch: int) -> None:
        """One guarded, warm-started re-tuning episode."""
        spec = tenant.spec
        metrics = global_metrics()
        with obs_span("fleet.episode", tenant=spec.name, epoch=epoch):
            prior = self._transfer_prior(spec, workload, epoch)
            strategy = make_tuner(self.strategy, **self.strategy_kwargs)
            if not isinstance(strategy, SearchTuner):
                raise TypeError(
                    f"fleet episodes need a SearchTuner strategy; "
                    f"{self.strategy!r} is {type(strategy).__name__}"
                )
            session = TuningSession(
                tenant.system,
                workload,
                Budget(max_runs=spec.episode_budget),
                rng=tenant.rng,
                execution=ExecutionPolicy(
                    deadline_s=self.deadline_s, max_retries=1
                ),
                prior=prior,
                breaker=tenant.breaker,
            )
            incumbent = tenant.incumbents.get(workload.name)
            if incumbent is not None and not incumbent["stale"]:
                session.evaluate_if_budget(
                    session.space.configuration(incumbent["values"]),
                    tag="incumbent",
                )
            SearchDriver(guard=tenant.gate).run(strategy, session)
            tenant.history.extend(session.history.observations)
            tenant.total_real_runs += session.real_runs
            tenant.retunes += 1
            metrics.inc("fleet.episodes")
            self._adopt(tenant, workload, session, epoch)
            self._ingest(tenant, workload, session, epoch)

    def _adopt(self, tenant: _Tenant, workload: Workload,
               session: TuningSession, epoch: int) -> None:
        """Promote the episode's best real observation to be the
        workload's incumbent (the episode really ran it *on this
        workload*, so the promotion is vetted by construction)."""
        best = session.history.best()
        if best is None:
            return
        incumbent = tenant.incumbents.get(workload.name)
        if (
            incumbent is None
            or incumbent["stale"]
            or best.runtime_s < incumbent["runtime_s"]
        ):
            tenant.incumbents[workload.name] = {
                "values": dict(best.config.to_dict()),
                "runtime_s": best.runtime_s,
                "stale": False,
            }
            self._reset_detectors(tenant, workload.name)
            global_metrics().inc("fleet.adoptions")
            obs_event("fleet.adopt", tenant=tenant.spec.name, epoch=epoch,
                      workload=workload.name, runtime_s=best.runtime_s)

    def _transfer_prior(self, spec: TenantSpec, workload: Workload,
                        epoch: int):
        if self.kb is None or len(self.kb) == 0:
            return None
        fingerprint = probe_fingerprint(spec.system, workload)
        prior = warm_start_prior(
            self.kb, spec.system, workload, fingerprint=fingerprint,
            session_filter=self._session_visible(spec.name, epoch),
        )
        if self.surrogate_store is not None:
            rows = self._surrogate_rows(spec, workload, epoch, fingerprint)
            if rows:
                prior.rows = rows + prior.rows
                global_metrics().inc("fleet.surrogate_priors")
                obs_event("fleet.surrogate_prior", tenant=spec.name,
                          epoch=epoch, workload=workload.name,
                          rows=len(rows))
        return prior if len(prior) else None

    def _surrogate_rows(self, spec: TenantSpec, workload: Workload,
                        epoch: int, fingerprint) -> List[Any]:
        """Family surrogate's top picks as extra prior rows (opt-in).

        Uses the same session-visibility predicate as the similarity
        prior so a resumed run retrains from the same KB slice.  A prior
        must never crash the episode it seeds: any surrogate failure
        degrades to the similarity-only prior.
        """
        assert self.surrogate_store is not None
        space = spec.system.config_space
        try:
            trained = self.surrogate_store.get(
                self.kb, spec.system.kind,
                family_of(workload.name), space,
                session_filter=self._session_visible(spec.name, epoch),
            )
            if trained is None:
                return []
            return surrogate_prior(trained, space, fingerprint)
        except Exception:
            return []

    def _session_visible(self, tenant_name: str, epoch: int):
        """Visibility predicate for deterministic resume.

        A resumed run replays epochs whose episodes the killed run may
        already have ingested; those sessions are "from the future" of
        the replay point and must stay invisible, or the replayed warm
        start would diverge from the uninterrupted run.  Fleet sessions
        are ordered by their (epoch, tenant-slot) ingest position;
        non-fleet sessions are always visible.
        """
        order = {t.spec.name: i for i, t in enumerate(self._tenants)}
        me = order[tenant_name]

        def visible(record) -> bool:
            meta = (record.extras or {}).get("fleet")
            if not isinstance(meta, dict):
                return True
            their_slot = order.get(meta.get("tenant"))
            if their_slot is None:
                return True  # foreign fleet — no replay ordering to honor
            their_epoch = int(meta.get("epoch", -1))
            return their_epoch < epoch or (
                their_epoch == epoch and their_slot < me
            )

        return visible

    def _ingest(self, tenant: _Tenant, workload: Workload,
                session: TuningSession, epoch: int) -> None:
        """Idempotently persist the episode for other tenants' warm
        starts (a resume replaying this epoch must not double-ingest)."""
        if self.kb is None:
            return
        spec = tenant.spec
        ident = self._tenant_seed("episode", f"{spec.name}/{epoch}")
        tuner_name = f"fleet-{self.strategy}"
        if self.kb.has_session(spec.system.kind, workload.name, tuner_name, ident):
            return
        self.kb.ingest_history(
            spec.system, workload, session.history,
            tuner_name=tuner_name, seed=ident,
            extras={"fleet": {"tenant": spec.name, "epoch": epoch}},
        )

    # -- checkpoint / resume ----------------------------------------------
    def save_checkpoint(self) -> None:
        assert self.checkpoint_path is not None
        write_checkpoint(self.checkpoint_path, self._checkpoint_payload())
        global_metrics().inc("fleet.checkpoints")

    def _checkpoint_payload(self) -> Dict[str, Any]:
        return {
            "kind": CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "fleet": {
                "seed": self.seed,
                "epochs": self.epochs,
                "epochs_done": self._epochs_done,
                "strategy": self.strategy,
                "strategy_kwargs": _kwargs_fingerprint(self.strategy_kwargs),
                "deadline_s": encode_runtime(self.deadline_s),
                "retune_on_drift": self.retune_on_drift,
                "tenants": [t.spec.name for t in self._tenants],
                "tenant_specs": {
                    t.spec.name: t.spec.settings() for t in self._tenants
                },
            },
            "tenants": {
                t.spec.name: self._tenant_payload(t) for t in self._tenants
            },
        }

    def _tenant_payload(self, tenant: _Tenant) -> Dict[str, Any]:
        return {
            "rng_state": tenant.rng.bit_generator.state,
            "history": to_jsonable(tenant.history),
            "incumbents": {
                name: {**entry, "runtime_s": encode_runtime(entry["runtime_s"])}
                for name, entry in sorted(tenant.incumbents.items())
            },
            "deployed": [
                {**entry, "runtime_s": encode_runtime(entry["runtime_s"])}
                for entry in tenant.deployed
            ],
            "drift_events": list(tenant.drift_events),
            "monitors": tenant.monitors,
            "retunes": tenant.retunes,
            "demotions": tenant.demotions,
            "total_real_runs": tenant.total_real_runs,
            "runtime_drift": {
                name: det.to_jsonable()
                for name, det in sorted(tenant.runtime_drift.items())
            },
            "metric_drift": {
                name: det.to_jsonable()
                for name, det in sorted(tenant.metric_drift.items())
            },
            "breaker": tenant.breaker.to_jsonable(),
            "gate": tenant.gate.to_jsonable(),
            "chaos": (
                tenant.chaos.injection_state()
                if tenant.chaos is not None else None
            ),
        }

    def _restore(self, payload: Dict[str, Any]) -> None:
        fleet = payload["fleet"]
        expected = [t.spec.name for t in self._tenants]
        if fleet["tenants"] != expected:
            raise ValueError(
                f"checkpoint tenants {fleet['tenants']} do not match "
                f"this controller's {expected}"
            )
        # Checkpoints written before the strategy's kwargs and the
        # deadline were recorded lack those keys and are resumed
        # unchecked on them.
        for key, value, required in (
            ("seed", self.seed, True),
            ("strategy", self.strategy, True),
            ("retune_on_drift", self.retune_on_drift, True),
            ("strategy_kwargs", _kwargs_fingerprint(self.strategy_kwargs), False),
            ("deadline_s", encode_runtime(self.deadline_s), False),
        ):
            if (required or key in fleet) and fleet[key] != value:
                raise ValueError(
                    f"checkpoint has {key}={fleet[key]!r}; "
                    f"this fleet has {value!r}"
                )
        # Checkpoints written before tenant specs were recorded lack
        # the key and are resumed unchecked.
        stored_specs = fleet.get("tenant_specs", {})
        for tenant in self._tenants:
            stored = stored_specs.get(tenant.spec.name)
            if stored is None:
                continue
            for key, value in tenant.spec.settings().items():
                if stored[key] != value:
                    raise ValueError(
                        f"checkpoint has {key}={stored[key]!r} for tenant "
                        f"{tenant.spec.name!r}; this fleet has {value!r}"
                    )
        self._epochs_done = int(fleet["epochs_done"])
        for tenant in self._tenants:
            self._restore_tenant(tenant, payload["tenants"][tenant.spec.name])
        global_metrics().inc("fleet.resumes")
        obs_event("fleet.resume", epoch=self._epochs_done)

    def _restore_tenant(self, tenant: _Tenant, payload: Dict[str, Any]) -> None:
        tenant.rng.bit_generator.state = payload["rng_state"]
        tenant.history = history_from_jsonable(
            tenant.spec.system.config_space, payload["history"]
        )
        tenant.incumbents = {
            name: {**entry, "runtime_s": decode_runtime(entry["runtime_s"])}
            for name, entry in payload["incumbents"].items()
        }
        tenant.deployed = [
            {**entry, "runtime_s": decode_runtime(entry["runtime_s"])}
            for entry in payload["deployed"]
        ]
        tenant.drift_events = list(payload["drift_events"])
        tenant.monitors = int(payload["monitors"])
        tenant.retunes = int(payload["retunes"])
        tenant.demotions = int(payload["demotions"])
        tenant.total_real_runs = int(payload["total_real_runs"])
        tenant.runtime_drift = {
            name: DriftDetector.from_jsonable(state)
            for name, state in payload["runtime_drift"].items()
        }
        tenant.metric_drift = {
            name: MetricDriftDetector.from_jsonable(state)
            for name, state in payload["metric_drift"].items()
        }
        tenant.breaker = CircuitBreaker.from_jsonable(payload["breaker"])
        tenant.gate = SafetyGate.from_jsonable(payload["gate"])
        if tenant.chaos is not None:
            if payload["chaos"] is None:
                raise ValueError(
                    f"checkpoint has no chaos state for tenant "
                    f"{tenant.spec.name!r} but the spec mounts chaos"
                )
            tenant.chaos.restore_injection_state(payload["chaos"])

    # -- reporting ---------------------------------------------------------
    @property
    def epochs_done(self) -> int:
        return self._epochs_done

    def tenant_digests(self) -> Dict[str, str]:
        """Per-tenant history digests — the determinism certificate."""
        return {t.spec.name: t.history.digest() for t in self._tenants}

    def report(self) -> Dict[str, Any]:
        return {
            "epochs_done": self._epochs_done,
            "resumed_from_epoch": self.resumed_from_epoch,
            "retune_on_drift": self.retune_on_drift,
            "strategy": self.strategy,
            "tenants": {
                t.spec.name: self._tenant_report(t) for t in self._tenants
            },
        }

    def _tenant_report(self, tenant: _Tenant) -> Dict[str, Any]:
        return {
            "monitors": tenant.monitors,
            "retunes": tenant.retunes,
            "demotions": tenant.demotions,
            "drift_events": len(tenant.drift_events),
            "total_real_runs": tenant.total_real_runs,
            "incumbents": {
                name: {**entry, "runtime_s": encode_runtime(entry["runtime_s"])}
                for name, entry in sorted(tenant.incumbents.items())
            },
            "deployed": [
                {**entry, "runtime_s": encode_runtime(entry["runtime_s"])}
                for entry in tenant.deployed
            ],
            "history_digest": tenant.history.digest(),
            "gate": tenant.gate.summary(),
            "vetoes": [v.to_jsonable() for v in tenant.gate.vetoes],
            "clip_records": [
                v.to_jsonable() for v in tenant.gate.clip_records
            ],
            "breaker": tenant.breaker.summary(),
            "chaos_faults": (
                dict(tenant.chaos.fault_counts) if tenant.chaos else {}
            ),
        }
