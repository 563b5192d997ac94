"""Exploration guardrails: vet every search proposal before it runs.

Online tuning on a production tenant is only viable when exploration
cannot hurt the tenant: OnlineTune-style systems promise to never
deploy a configuration predicted meaningfully worse than the incumbent.
:class:`SafetyGate` is that promise as a :class:`~repro.core.driver
.SearchDriver` guard — consulted for every candidate (including
transfer-prior seeds) before execution:

* **quarantine veto** — configurations whose region the session's
  :class:`~repro.exec.resilience.CircuitBreaker` would block are
  rejected outright, using the side-effect-free
  :meth:`~repro.exec.resilience.CircuitBreaker.would_block` so the
  breaker's half-open probe slot stays with the executing session;
* **regression veto** — a distance-weighted k-NN surrogate over the
  episode's own finite observations predicts the candidate's runtime;
  anything predicted more than :data:`MAX_REGRESSION` worse than the
  current incumbent is rejected;
* **clipping** — before giving up on a too-aggressive candidate, the
  gate tries to *clip* it: blend it toward the incumbent
  (``alpha * candidate + (1-alpha) * incumbent`` in unit knob space,
  for each ``clip_alphas``) and admit the first blend the surrogate
  accepts — bolder than the incumbent, safer than the raw proposal;
* **graceful degradation** — a veto costs only the gate's bookkeeping:
  the driver never executes the candidate, and regression vetoes are
  recorded as uncharged model observations (tag ``gate-veto``) so the
  decision is visible in the history (and its digest) without touching
  the budget.

Every decision is counted; :meth:`SafetyGate.summary` exposes the audit
trail the fleet benchmark uses to certify "zero guardrail-bypassing
deployments" and to score guardrail saves counterfactually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.driver import Candidate
from repro.obs.metrics import global_metrics
from repro.obs.trace import event as obs_event

__all__ = ["MAX_REGRESSION", "SafetyGate", "VetoRecord"]

#: Fraction above the incumbent's runtime a predicted candidate may
#: reach before it is vetoed: "never deploy anything predicted >25%
#: worse".
MAX_REGRESSION = 0.25
#: Neighbors of the distance-weighted k-NN surrogate.
K_NEIGHBORS = 3
#: Finite observations the episode must hold before the surrogate
#: speaks; below this the gate only enforces quarantine.
MIN_OBSERVATIONS = 3


@dataclass
class VetoRecord:
    """One rejected proposal, kept for counterfactual audits.

    ``predicted_runtime_s`` is the surrogate's estimate (``None`` for
    quarantine vetoes — the breaker, not the surrogate, rejected it);
    ``incumbent_runtime_s`` is the bar the candidate failed.
    """

    values: Dict[str, Any]
    reason: str  # "regression" | "quarantine"
    workload: str
    tag: str = ""
    predicted_runtime_s: Optional[float] = None
    incumbent_runtime_s: Optional[float] = None

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "values": dict(self.values),
            "reason": self.reason,
            "workload": self.workload,
            "tag": self.tag,
            "predicted_runtime_s": self.predicted_runtime_s,
            "incumbent_runtime_s": self.incumbent_runtime_s,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "VetoRecord":
        return cls(
            values=dict(payload["values"]),
            reason=payload["reason"],
            workload=payload["workload"],
            tag=payload.get("tag", ""),
            predicted_runtime_s=payload.get("predicted_runtime_s"),
            incumbent_runtime_s=payload.get("incumbent_runtime_s"),
        )


@dataclass
class _Decision:
    action: str  # "allow" | "clip" | "veto"
    config: Any = None
    predicted: Optional[float] = None
    reason: str = ""
    incumbent: Optional[float] = None
    #: For clips: the surrogate's estimate of the *raw* proposal that
    #: was rejected in favour of the blend.
    original_predicted: Optional[float] = None


class SafetyGate:
    """Guardrail layer for a :class:`~repro.core.driver.SearchDriver`.

    One gate instance typically lives as long as its tenant (across many
    tuning episodes) so its audit counters cover the tenant's lifetime;
    the surrogate itself is stateless — it reads the executing session's
    history on every decision.

    Regression vetoes are recorded as uncharged model observations on
    the session (tag ``gate-veto``), so they are auditable in the
    history.

    Args:
        clip: attempt incumbent-blended clipping before vetoing.
        clip_alphas: blend fractions tried in order (candidate weight).
    """

    def __init__(
        self,
        clip: bool = True,
        clip_alphas: Sequence[float] = (0.5, 0.25, 0.125),
    ):
        self.clip = clip
        self.clip_alphas = tuple(clip_alphas)
        # -- audit trail ---------------------------------------------------
        self.vetoes: List[VetoRecord] = []
        #: Raw proposals rejected in favour of an incumbent blend —
        #: audited like vetoes (the original config never executed).
        self.clip_records: List[VetoRecord] = []
        self.allowed = 0
        self.clipped = 0
        self.quarantine_vetoes = 0
        self.regression_vetoes = 0
        #: Worst predicted-vs-incumbent delta the gate ever admitted —
        #: the "zero bypass" certificate: must stay <= MAX_REGRESSION.
        self.max_allowed_delta = -math.inf
        self.predicted_admissions = 0

    # -- driver guard protocol --------------------------------------------
    def filter(self, session, candidates: List[Candidate]) -> List[Candidate]:
        """Return the admitted (possibly clipped) subset of a proposal."""
        metrics = global_metrics()
        kept: List[Candidate] = []
        for cand in candidates:
            decision = self._vet(session, cand.config)
            if decision.action == "allow":
                self.allowed += 1
                self._note_admission(decision)
                kept.append(cand)
            elif decision.action == "clip":
                self.clipped += 1
                self._note_admission(decision)
                self.clip_records.append(VetoRecord(
                    values=dict(cand.config.to_dict()),
                    reason="clip",
                    workload=session.workload.name,
                    tag=cand.tag,
                    predicted_runtime_s=decision.original_predicted,
                    incumbent_runtime_s=decision.incumbent,
                ))
                metrics.inc("fleet.gate.clipped")
                obs_event("gate.clip", tag=cand.tag,
                          predicted_runtime_s=decision.predicted)
                tag = f"{cand.tag}+clipped" if cand.tag else "clipped"
                kept.append(Candidate(decision.config, tag=tag))
            else:
                self._veto(session, cand, decision, metrics)
        return kept

    def _note_admission(self, decision: _Decision) -> None:
        if decision.predicted is None or decision.incumbent is None:
            return
        if not math.isfinite(decision.incumbent) or decision.incumbent <= 0:
            return
        self.predicted_admissions += 1
        delta = decision.predicted / decision.incumbent - 1.0
        self.max_allowed_delta = max(self.max_allowed_delta, delta)

    def _veto(self, session, cand: Candidate, decision: _Decision,
              metrics) -> None:
        record = VetoRecord(
            values=dict(cand.config.to_dict()),
            reason=decision.reason,
            workload=session.workload.name,
            tag=cand.tag,
            predicted_runtime_s=decision.predicted,
            incumbent_runtime_s=decision.incumbent,
        )
        self.vetoes.append(record)
        if decision.reason == "quarantine":
            self.quarantine_vetoes += 1
        else:
            self.regression_vetoes += 1
        metrics.inc("fleet.gate.vetoes")
        metrics.inc(f"fleet.gate.veto.{decision.reason}")
        obs_event("gate.veto", reason=decision.reason, tag=cand.tag,
                  predicted_runtime_s=decision.predicted)
        if decision.predicted is not None:
            # Auditable, uncharged: the prediction that justified the
            # veto enters the history as a model observation.
            session.predict(cand.config, decision.predicted, tag="gate-veto")

    # -- decision logic ----------------------------------------------------
    def _vet(self, session, config) -> _Decision:
        breaker = getattr(session, "breaker", None)
        if breaker is not None and breaker.would_block(config):
            return _Decision("veto", reason="quarantine")
        incumbent = session.best_runtime()
        predicted = self._predict(session.history, config)
        if predicted is None or not math.isfinite(incumbent) or incumbent <= 0:
            return _Decision("allow", predicted=predicted, incumbent=incumbent)
        limit = incumbent * (1.0 + MAX_REGRESSION)
        if predicted <= limit:
            return _Decision("allow", predicted=predicted, incumbent=incumbent)
        if self.clip:
            clipped = self._try_clip(session, config, breaker, limit, incumbent)
            if clipped is not None:
                clipped.original_predicted = predicted
                return clipped
        return _Decision("veto", predicted=predicted, reason="regression",
                         incumbent=incumbent)

    def _try_clip(self, session, config, breaker, limit: float,
                  incumbent: float) -> Optional[_Decision]:
        best = session.best_config()
        if best is None:
            return None
        base = best.to_array()
        target = config.to_array()
        for alpha in self.clip_alphas:
            arr = base + alpha * (target - base)
            try:
                blended = session.space.from_array(arr)
            except Exception:
                continue  # infeasible blend (constraint violation)
            if breaker is not None and breaker.would_block(blended):
                continue
            predicted = self._predict(session.history, blended)
            if predicted is not None and predicted <= limit:
                return _Decision("clip", config=blended, predicted=predicted,
                                 incumbent=incumbent)
        return None

    def _predict(self, history, config) -> Optional[float]:
        """Distance-weighted k-NN runtime estimate from finite real
        observations (``None`` while too few exist)."""
        observations = history.finite_successful()
        if len(observations) < MIN_OBSERVATIONS:
            return None
        X = np.stack([o.config.to_array() for o in observations])
        y = np.array([o.runtime_s for o in observations], dtype=float)
        d = np.sqrt(((X - config.to_array()) ** 2).sum(axis=1))
        idx = np.argsort(d, kind="stable")[:K_NEIGHBORS]
        weights = 1.0 / (d[idx] + 1e-6)
        return float((weights * y[idx]).sum() / weights.sum())

    # -- audit -------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "allowed": self.allowed,
            "clipped": self.clipped,
            "vetoes": len(self.vetoes),
            "quarantine_vetoes": self.quarantine_vetoes,
            "regression_vetoes": self.regression_vetoes,
            "predicted_admissions": self.predicted_admissions,
            "max_allowed_delta": (
                None if self.max_allowed_delta == -math.inf
                else self.max_allowed_delta
            ),
            "max_regression": MAX_REGRESSION,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Snapshot the gate's audit state (checkpoint support)."""
        return {
            "kind": "safety_gate",
            "clip": self.clip,
            "clip_alphas": list(self.clip_alphas),
            "allowed": self.allowed,
            "clipped": self.clipped,
            "quarantine_vetoes": self.quarantine_vetoes,
            "regression_vetoes": self.regression_vetoes,
            "predicted_admissions": self.predicted_admissions,
            "max_allowed_delta": (
                None if self.max_allowed_delta == -math.inf
                else self.max_allowed_delta
            ),
            "vetoes": [v.to_jsonable() for v in self.vetoes],
            "clip_records": [v.to_jsonable() for v in self.clip_records],
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "SafetyGate":
        """Restore a snapshot.  Older snapshots also carry the veto bar,
        the surrogate's neighbor and support counts and the veto
        recording switch, which were always the module's constants;
        they load with those keys ignored."""
        if payload.get("kind") != "safety_gate":
            raise ValueError(f"not a safety_gate payload: {payload.get('kind')!r}")
        gate = cls(
            clip=payload["clip"], clip_alphas=tuple(payload["clip_alphas"])
        )
        gate.allowed = int(payload["allowed"])
        gate.clipped = int(payload["clipped"])
        gate.quarantine_vetoes = int(payload["quarantine_vetoes"])
        gate.regression_vetoes = int(payload["regression_vetoes"])
        gate.predicted_admissions = int(payload["predicted_admissions"])
        delta = payload["max_allowed_delta"]
        gate.max_allowed_delta = -math.inf if delta is None else float(delta)
        gate.vetoes = [VetoRecord.from_jsonable(v) for v in payload["vetoes"]]
        gate.clip_records = [
            VetoRecord.from_jsonable(v) for v in payload["clip_records"]
        ]
        return gate
