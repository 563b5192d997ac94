"""Cross-session transfer priors built from the knowledge base.

The transfer recipe (OtterTune's workload mapping, generalized):

1. Fingerprint the target workload with one default-config probe run.
2. Rank stored sessions on the same system kind *and the same knob
   catalog* by fingerprint similarity (:func:`repro.kb.fingerprint.rank_similar`).
3. Replay the closest sessions' observation histories, scaling their
   runtimes by the ratio of probe runtimes — the same trick OtterTune
   uses to merge a mapped workload's data with the target's ("deciles
   of the target metric / deciles of the mapped metric", collapsed here
   to the default-config anchor both sides always have).

The result is a :class:`TransferPrior`: pseudo-observations a tuner can
(a) stack into its surrogate model's training data and (b) mine for
promising initial configurations.  Prior data is *never* charged to the
session budget and never enters the session history — it only shapes
where the tuner looks first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import Configuration, ConfigurationSpace
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.kb.fingerprint import (
    WorkloadFingerprint,
    probe_fingerprint,
    rank_similar,
)
from repro.kb.store import KnowledgeBase, SessionRecord

__all__ = ["PriorObservation", "TransferPrior", "warm_start_prior"]

#: Nearest stored sessions a prior replays.
PRIOR_SESSIONS = 3
#: Cap on transferred pseudo-samples (nearest sessions contribute
#: first); bounds surrogate fitting cost.
PRIOR_ROWS = 60


@dataclass(frozen=True)
class PriorObservation:
    """One transferred (config values, scaled runtime) pseudo-sample."""

    values: Dict[str, Any]
    runtime_s: float
    source_workload: str
    source_session: int


@dataclass
class TransferPrior:
    """Mapped prior knowledge for one target (system, workload).

    Attributes:
        rows: transferred pseudo-observations, runtimes already scaled
            to the target workload's probe anchor.
        matched: (workload name, fingerprint distance) of each source
            session, nearest first.
        target_fingerprint: the probe fingerprint the mapping used.
    """

    rows: List[PriorObservation] = field(default_factory=list)
    matched: List[Tuple[str, float]] = field(default_factory=list)
    target_fingerprint: Optional[WorkloadFingerprint] = None

    def __len__(self) -> int:
        return len(self.rows)

    def training_data(
        self, space: ConfigurationSpace
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(X, y) of the prior in ``space``'s unit hypercube.

        Rows whose values no longer validate against the space (knob
        catalog drift) are silently dropped — a prior must never crash
        the session it seeds.
        """
        xs, ys = [], []
        for row in self.rows:
            try:
                config = space.configuration(row.values)
            except Exception:
                continue
            xs.append(config.to_array())
            ys.append(row.runtime_s)
        if not xs:
            return np.zeros((0, space.dimension)), np.zeros(0)
        return np.stack(xs), np.array(ys, dtype=float)

    def best_configs(
        self, space: ConfigurationSpace, k: int = 3
    ) -> List[Configuration]:
        """Top-``k`` distinct configurations by transferred runtime."""
        ranked = sorted(self.rows, key=lambda r: r.runtime_s)
        out: List[Configuration] = []
        for row in ranked:
            try:
                config = space.configuration(row.values)
            except Exception:
                continue
            if config not in out:
                out.append(config)
            if len(out) >= k:
                break
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-safe provenance blob, surfaced in result extras."""
        return {
            "n_prior_observations": len(self.rows),
            "matched_workloads": [
                {"workload": name, "distance": round(dist, 6)}
                for name, dist in self.matched
            ],
        }


def warm_start_prior(
    kb: KnowledgeBase,
    system: SystemUnderTune,
    workload: Workload,
    exclude_workloads: Sequence[str] = (),
    fingerprint: Optional[WorkloadFingerprint] = None,
    session_filter: Optional[Callable[[SessionRecord], bool]] = None,
) -> TransferPrior:
    """Build a transfer prior for tuning ``workload`` on ``system``.

    The prior replays the :data:`PRIOR_SESSIONS` nearest stored sessions
    and keeps at most :data:`PRIOR_ROWS` of their rows.

    Args:
        kb: the knowledge base to draw from.
        exclude_workloads: source workload names to skip — benchmarks
            use this to force strictly cross-workload transfer.
        fingerprint: reuse an already-computed target fingerprint
            instead of probing (e.g., from a service request).
        session_filter: optional predicate; sessions it rejects are
            invisible to this prior.  The fleet controller uses it for
            deterministic resume: a replayed episode must not see
            sessions that were ingested "in its future" by the run
            being resumed.

    Returns an empty prior (rather than raising) when the KB holds
    nothing compatible; warm-started tuners degrade to cold-start.
    """
    space = system.config_space
    if fingerprint is None:
        fingerprint = probe_fingerprint(system, workload)
    excluded = set(exclude_workloads)
    candidates = [
        (record, record.fingerprint)
        for record in kb.sessions(
            system_kind=system.kind, space_names=space.names()
        )
        if record.fingerprint is not None
        and record.workload_name not in excluded
        and (session_filter is None or session_filter(record))
    ]
    ranked = rank_similar(fingerprint, candidates)[:PRIOR_SESSIONS]
    prior = TransferPrior(target_fingerprint=fingerprint)
    for record, distance in ranked:
        prior.matched.append((record.workload_name, distance))
        prior.rows.extend(
            _transferred_rows(kb, record, space, fingerprint)
        )
    del prior.rows[PRIOR_ROWS:]
    return prior


def _transferred_rows(
    kb: KnowledgeBase,
    record: SessionRecord,
    space: ConfigurationSpace,
    target: WorkloadFingerprint,
) -> List[PriorObservation]:
    """Replay one stored session into scaled pseudo-observations."""
    try:
        history = kb.history(record.session_id, space)
    except Exception:
        return []
    scale = 1.0
    source_anchor = (
        record.fingerprint.probe_runtime_s if record.fingerprint else math.inf
    )
    if (
        math.isfinite(target.probe_runtime_s)
        and math.isfinite(source_anchor)
        and target.probe_runtime_s > 0
        and source_anchor > 0
    ):
        scale = target.probe_runtime_s / source_anchor
    rows = []
    for obs in history.finite_successful():
        rows.append(
            PriorObservation(
                values=dict(obs.config.to_dict()),
                runtime_s=obs.runtime_s * scale,
                source_workload=record.workload_name,
                source_session=record.session_id,
            )
        )
    return rows
