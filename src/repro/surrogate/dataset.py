"""Training-matrix extraction from the knowledge base.

The surrogate layer learns *runtime ratios*: every stored session
carries a fingerprint whose probe runtime anchors its scale, so pooling
observations across scale variants of one workload family is just
``y = log(runtime / probe_anchor)``.  Targets stay dimensionless and a
model trained on ``wordcount-6g`` + ``wordcount-12g`` transfers to
``wordcount-8g`` without any per-workload recalibration.

Rows are grouped per *workload family* — the workload name with its
scale suffix stripped (``wordcount-6g`` → ``wordcount``,
``olap-analytics@2x`` → ``olap-analytics``) — because knob response
surfaces are family-shaped: scale moves the anchor, not the shape.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measurement import REAL
from repro.core.parameters import ConfigurationSpace
from repro.kb.store import KnowledgeBase, SessionRecord

__all__ = ["TrainingMatrix", "build_matrices", "family_of"]

_SCALE_SUFFIX = re.compile(r"(?:-\d+(?:\.\d+)?g|-x\d+|@\d+(?:\.\d+)?x)$")


def family_of(workload_name: str) -> str:
    """Workload family: the name with scale suffixes stripped.

    Suffixes strip repeatedly from the right, so compound names like
    ``spark-kmeans-3g-x10`` reduce all the way to ``spark-kmeans``.
    """
    name = workload_name
    while True:
        stripped = _SCALE_SUFFIX.sub("", name)
        if stripped == name:
            return name
        name = stripped


@dataclass
class TrainingMatrix:
    """Pooled (config, fingerprint) → log-runtime-ratio data for one
    workload family.

    Attributes:
        X_knobs: unit-scaled configuration vectors, one row per
            observation.
        F: raw fingerprint features per row — the session fingerprint's
            metric vector followed by ``log(probe_runtime)``.  Constant
            within a session, varying across scale variants.
        y: ``log(runtime / probe_anchor)`` for successful rows,
            ``nan`` for failed/hung rows (the trainer drops those and
            reports them; see :func:`repro.surrogate.trainer.train_surrogate`).
        failed: per-row failure mask.
        workloads: source workload name per row.
        anchors: probe runtime per contributing workload (newest session
            wins) — recommenders use these to turn predicted ratios back
            into seconds.
    """

    system_kind: str
    family: str
    knob_names: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    X_knobs: np.ndarray
    F: np.ndarray
    y: np.ndarray
    failed: np.ndarray
    workloads: Tuple[str, ...]
    n_sessions: int
    anchors: Dict[str, float]

    @property
    def n_rows(self) -> int:
        return int(self.X_knobs.shape[0])

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())


def build_matrices(
    kb: KnowledgeBase,
    system_kind: str,
    space: ConfigurationSpace,
    metric_names: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    session_filter: Optional[Callable[[SessionRecord], bool]] = None,
    group: Callable[[str], str] = family_of,
) -> Dict[str, TrainingMatrix]:
    """Extract per-family training matrices from the knowledge base.

    Only sessions recorded against exactly ``space``'s knob catalog and
    carrying a finite-anchor fingerprint contribute.  Within a session,
    rows are real observations that are not prior-tagged (transferred
    pseudo-observations must not be re-learned — they were synthesized
    from other sessions and would double-count, self-reinforcing).
    Failed and hung runs are kept as masked rows so trainers can choose
    to penalize the regions they came from.

    Args:
        metric_names: fingerprint metric ordering; defaults to the
            newest contributing session's recorded metric catalog.
        families: restrict extraction to these families (None = all).
        session_filter: optional predicate; rejected sessions are
            invisible (the fleet controller's resume-visibility hook).
        group: workload-name → family mapping, overridable for corpora
            whose naming does not follow the built-in scale suffixes.
    """
    wanted = None if families is None else set(families)
    records = [
        record
        for record in kb.sessions(
            system_kind=system_kind, space_names=space.names()
        )
        if record.fingerprint is not None
        and math.isfinite(record.fingerprint.probe_runtime_s)
        and record.fingerprint.probe_runtime_s > 0
        and (session_filter is None or session_filter(record))
        and (wanted is None or group(record.workload_name) in wanted)
    ]
    grouped: Dict[str, List[SessionRecord]] = {}
    for record in records:
        grouped.setdefault(group(record.workload_name), []).append(record)

    matrices: Dict[str, TrainingMatrix] = {}
    for family, family_records in sorted(grouped.items()):
        matrix = _family_matrix(
            kb, system_kind, family, family_records, space, metric_names
        )
        if matrix is not None:
            matrices[family] = matrix
    return matrices


def _family_matrix(
    kb: KnowledgeBase,
    system_kind: str,
    family: str,
    records: Sequence[SessionRecord],
    space: ConfigurationSpace,
    metric_names: Optional[Sequence[str]],
) -> Optional[TrainingMatrix]:
    if metric_names is None:
        metric_names = records[0].metric_names
    metric_names = tuple(metric_names)
    xs: List[np.ndarray] = []
    fps: List[np.ndarray] = []
    ys: List[float] = []
    failed: List[bool] = []
    workloads: List[str] = []
    anchors: Dict[str, float] = {}
    n_sessions = 0
    for record in records:
        try:
            history = kb.history(record.session_id, space)
        except Exception:
            continue
        anchor = record.fingerprint.probe_runtime_s
        # sessions() is newest-first; keep the first anchor seen.
        anchors.setdefault(record.workload_name, anchor)
        fp_row = np.append(
            record.fingerprint.vector(metric_names), math.log(anchor)
        )
        contributed = False
        for obs in history:
            if obs.source != REAL or obs.tag.startswith("prior"):
                continue
            if not obs.full_fidelity:
                # Low-fidelity screens live on a scaled runtime axis;
                # they would corrupt the log-ratio targets.
                continue
            xs.append(obs.config.to_array())
            fps.append(fp_row)
            workloads.append(record.workload_name)
            if obs.ok and math.isfinite(obs.runtime_s) and obs.runtime_s > 0:
                ys.append(math.log(obs.runtime_s / anchor))
                failed.append(False)
            else:
                ys.append(math.nan)
                failed.append(True)
            contributed = True
        if contributed:
            n_sessions += 1
    if not xs:
        return None
    return TrainingMatrix(
        system_kind=system_kind,
        family=family,
        knob_names=tuple(space.names()),
        metric_names=metric_names,
        X_knobs=np.stack(xs),
        F=np.stack(fps),
        y=np.array(ys, dtype=float),
        failed=np.array(failed, dtype=bool),
        workloads=tuple(workloads),
        n_sessions=n_sessions,
        anchors=anchors,
    )
