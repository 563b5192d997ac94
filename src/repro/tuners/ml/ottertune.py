"""OtterTune: tuning through large-scale machine learning.

Van Aken et al. (SIGMOD'17).  The pipeline, faithfully staged:

1. **Repository** — historical observations from previously tuned
   workloads (other tenants' sessions).  Here the repository is built by
   sampling the simulator offline; the target workload is excluded.
2. **Metric pruning** — factor analysis embeds each runtime metric by
   its loadings; k-means clusters the embeddings; the metric nearest
   each centroid represents its cluster.
3. **Knob ranking** — lasso-path order over (knobs → runtime) with the
   repository's data picks the few knobs worth tuning.
4. **Workload mapping** — the target's observed metric vectors are
   compared against each repository workload's (predicted) metrics at
   the same configurations; the closest workload's data is merged into
   the training set.
5. **Recommendation** — a GP over the top knobs, trained on mapped +
   target data, maximizes expected improvement to propose the next
   configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.kb.store import KnowledgeBase

import numpy as np

from repro.core.driver import Candidate, SearchState, SearchTuner
from repro.core.parameters import ConfigurationSpace
from repro.core.registry import register_tuner
from repro.core.system import SystemUnderTune
from repro.core.workload import Workload
from repro.exceptions import TuningError
from repro.mlkit.acquisition import expected_improvement
from repro.mlkit.cluster import KMeans
from repro.mlkit.factor import FactorAnalysis
from repro.mlkit.gp import GaussianProcess
from repro.mlkit.linear import lasso_rank_features
from repro.mlkit.sampling import latin_hypercube
from repro.mlkit.scaler import StandardScaler
from repro.tuners.common import candidate_pool, history_to_training_data

__all__ = ["OtterTuneRepository", "OtterTuneTuner", "build_repository"]


@dataclass
class _WorkloadData:
    """Observations for one repository workload."""

    name: str
    X: np.ndarray          # (n, d) unit-scaled configs
    y: np.ndarray          # (n,) runtimes
    metrics: np.ndarray    # (n, m) metric matrix


@dataclass
class OtterTuneRepository:
    """Historical tuning data across many workloads on one system.

    The canonical backing store is the persistent knowledge base
    (:meth:`from_kb`): every tuning session or offline sampling pass
    ingested there becomes repository data, shared across processes and
    tuner kinds.  The plain dataclass constructor remains as the
    in-memory shim for tests and self-contained pipelines
    (:func:`build_repository` without a ``kb``).
    """

    metric_names: List[str]
    workloads: List[_WorkloadData] = field(default_factory=list)

    def add(self, name: str, X: np.ndarray, y: np.ndarray, metrics: np.ndarray) -> None:
        self.workloads.append(_WorkloadData(name, X, y, metrics))

    @classmethod
    def from_kb(
        cls,
        kb: "KnowledgeBase",
        system: SystemUnderTune,
        min_samples: int = 5,
        exclude_workloads: Sequence[str] = (),
    ) -> "OtterTuneRepository":
        """Materialize the repository from stored knowledge-base sessions.

        Sessions are grouped by workload name (only those recorded on
        this system kind with the *same knob catalog*); each workload
        needs ``min_samples`` finite successful observations across its
        sessions to enter the repository.  ``exclude_workloads`` keeps
        the target workload's own history out — OtterTune's repository
        is other tenants' data by definition.
        """
        repo = cls(metric_names=list(system.metric_names))
        space = system.config_space
        excluded = set(exclude_workloads)
        grouped: Dict[str, List[int]] = {}
        for record in kb.sessions(
            system_kind=system.kind, space_names=space.names()
        ):
            if record.workload_name not in excluded:
                grouped.setdefault(record.workload_name, []).append(
                    record.session_id
                )
        for name in sorted(grouped):
            X_rows, y_rows, m_rows = [], [], []
            for session_id in grouped[name]:
                try:
                    history = kb.history(session_id, space)
                except Exception:
                    continue
                for obs in history.finite_successful():
                    X_rows.append(obs.config.to_array())
                    y_rows.append(obs.runtime_s)
                    m_rows.append(
                        obs.measurement.metric_vector(repo.metric_names)
                    )
            if len(y_rows) >= min_samples:
                repo.add(
                    name, np.array(X_rows), np.array(y_rows), np.array(m_rows)
                )
        if not repo.workloads:
            raise TuningError(
                "knowledge base holds no usable repository data for "
                f"system kind {system.kind!r}"
            )
        return repo

    def all_observations(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = np.vstack([w.X for w in self.workloads])
        y = np.concatenate([w.y for w in self.workloads])
        M = np.vstack([w.metrics for w in self.workloads])
        return X, y, M

    # -- stage 2: metric pruning -------------------------------------------
    def pruned_metrics(self, n_factors: int = 5, max_clusters: int = 8) -> List[int]:
        """Indices of representative metrics (one per k-means cluster)."""
        _, _, M = self.all_observations()
        # Drop constant metrics first; they carry no signal.
        keep = [j for j in range(M.shape[1]) if M[:, j].std() > 1e-9]
        if not keep:
            return list(range(min(3, M.shape[1])))
        Z = StandardScaler().fit_transform(M[:, keep])
        fa = FactorAnalysis(n_factors=min(n_factors, Z.shape[1], max(1, Z.shape[0] - 1)))
        fa.fit(Z)
        embeddings = fa.loadings_  # (n_kept_metrics, k)
        k = min(max_clusters, len(keep))
        if k < 2:
            return keep
        km = KMeans(k=k, n_init=3).fit(embeddings)
        reps = km.representatives(embeddings)
        return sorted({keep[int(r)] for r in reps})

    # -- stage 3: knob ranking ----------------------------------------------
    def ranked_knobs(self, space: ConfigurationSpace) -> List[str]:
        X, y, _ = self.all_observations()
        order = lasso_rank_features(X, y)
        names = space.names()
        return [names[j] for j in order]


def build_repository(
    system: SystemUnderTune,
    workloads: Sequence[Workload],
    n_samples: int = 30,
    rng: Optional[np.random.Generator] = None,
    kb: Optional["KnowledgeBase"] = None,
) -> OtterTuneRepository:
    """Sample the system offline over several workloads.

    This plays the role of OtterTune's multi-tenant history: data that
    existed *before* the target tuning session and is therefore not
    charged to its budget.

    Each workload's seeded LHS design runs as one batch through
    :meth:`~repro.core.system.InstrumentedSystem.run_batch` over the
    process evaluation cache (accounted lookups, the vectorized kernel
    where the system has one), so the repository, and the cache's hits
    and misses, equal a per-config ``system.run`` loop's.

    With ``kb`` given, each workload's samples are also persisted as a
    knowledge-base session (tuner ``"repository-sampler"``), making the
    sweep reusable by :meth:`OtterTuneRepository.from_kb` and by
    warm-started tuners in later processes.
    """
    from repro.core.measurement import Observation, TuningHistory
    from repro.core.system import InstrumentedSystem
    from repro.exec.cache import global_cache

    rng = rng or np.random.default_rng(7)
    repo = OtterTuneRepository(metric_names=list(system.metric_names))
    space = system.config_space
    sampler = InstrumentedSystem(system, eval_cache=global_cache())
    for workload in workloads:
        design = latin_hypercube(n_samples, space.dimension, rng)
        configs = space.from_arrays_feasible(design, rng)
        measurements = sampler.run_batch(workload, configs)
        X_rows, y_rows, m_rows = [], [], []
        for config, measurement in zip(configs, measurements):
            X_rows.append(config.to_array())
            if measurement.ok:
                y_rows.append(measurement.runtime_s)
            else:
                y_rows.append(np.inf)
            m_rows.append(measurement.metric_vector(repo.metric_names))
        X = np.array(X_rows)
        y = np.array(y_rows)
        M = np.array(m_rows)
        ok = np.isfinite(y)
        if ok.sum() >= 5:
            worst = y[ok].max()
            y = np.where(ok, y, worst * 3.0)
            repo.add(workload.name, X, y, M)
        if kb is not None:
            history = TuningHistory()
            history.extend(
                Observation(config=c, measurement=m, tag="repository")
                for c, m in zip(configs, measurements)
            )
            kb.ingest_history(
                system, workload, history, tuner_name="repository-sampler"
            )
    if not repo.workloads:
        raise TuningError("repository construction produced no usable data")
    return repo


@register_tuner("ottertune")
class OtterTuneTuner(SearchTuner):
    """The OtterTune recommendation loop against a repository.

    Args:
        repository: historical data (required; OtterTune without history
            degrades to plain BO — use ``BayesOptTuner`` for that).
        top_k_knobs: how many ranked knobs the GP tunes.
        n_init: target-session observations before mapping kicks in.
    """

    name = "ottertune"
    category = "machine-learning"
    #: A knowledge-base transfer prior on top of the repository: the
    #: prior's best configurations replace part of the LHS init design
    #: (the repository already provides the model-side history, so
    #: seeding is the marginal win here).
    uses_prior = True

    def __init__(
        self,
        repository: OtterTuneRepository,
        top_k_knobs: int = 8,
        n_init: int = 5,
        n_candidates: int = 400,
        use_mapping: bool = True,
    ):
        self.repository = repository
        self.top_k_knobs = top_k_knobs
        self.n_init = n_init
        self.n_candidates = n_candidates
        #: Ablation switch: with mapping off, the GP trains on target
        #: observations only (history still drives pruning/ranking).
        self.use_mapping = use_mapping

    # -- stage 4: workload mapping -------------------------------------------
    def _map_workload(
        self, target_X: np.ndarray, target_M: np.ndarray, pruned: List[int]
    ) -> Optional[_WorkloadData]:
        # The GP-per-metric mapping lives in the knowledge-base layer
        # now (generalized to any repository-shaped dataset); this
        # method remains as the tuner's seam for ablations/overrides.
        from repro.kb.fingerprint import map_workload

        return map_workload(
            target_X, target_M, pruned, self.repository.workloads
        )

    def wants_prior_seeds(self, state: SearchState) -> int:
        return 2

    def setup(self, state: SearchState) -> None:
        space = state.space
        metric_names = self.repository.metric_names
        # Stages 2–3 run on repository data alone, before any target
        # experiment is spent.
        self._pruned = self.repository.pruned_metrics()
        top_knobs = self.repository.ranked_knobs(space)[: self.top_k_knobs]
        state.extras["ottertune_pruned_metrics"] = [
            metric_names[i] for i in self._pruned
        ]
        state.extras["ottertune_top_knobs"] = top_knobs
        self._knob_idx = [space.names().index(k) for k in top_knobs]
        self._init_asked = False
        self._step = 0
        self._mapped_name: Optional[str] = None

    def ask(self, state: SearchState) -> Sequence[Candidate]:
        space, rng = state.space, state.rng
        metric_names = self.repository.metric_names
        if not self._init_asked:
            self._init_asked = True
            n_init = min(
                max(self.n_init - state.seeded_prior_runs, 1),
                max(state.remaining_runs - 2, 1),
            )
            design = latin_hypercube(n_init, space.dimension, rng)
            return [
                Candidate(config, tag=f"init-{i}")
                for i, config in enumerate(space.from_arrays_feasible(design, rng))
            ]
        # Hung runs are "successful" with unbounded runtime; they
        # would wreck target_y's median scale and the GP targets.
        obs = state.history.finite_successful()
        target_X = np.stack([o.config.to_array() for o in obs]) if obs else np.zeros((0, space.dimension))
        target_y = np.array([o.runtime_s for o in obs])
        target_M = (
            np.stack([o.measurement.metric_vector(metric_names) for o in obs])
            if obs else np.zeros((0, len(metric_names)))
        )
        mapped = (
            self._map_workload(target_X, target_M, self._pruned)
            if self.use_mapping else None
        )
        if mapped is not None:
            self._mapped_name = mapped.name
            # Scale the mapped workload's runtimes onto the target's
            # scale before merging (OtterTune's target-first merge).
            scale = (
                np.median(target_y) / np.median(mapped.y)
                if len(target_y) and np.median(mapped.y) > 0
                else 1.0
            )
            train_X = np.vstack([mapped.X, target_X])
            train_y = np.concatenate([mapped.y * scale, target_y])
        else:
            train_X, train_y = history_to_training_data(state)
        if len(train_y) < 3:
            return [Candidate(space.sample_configuration(rng), tag="fallback")]

        gp = GaussianProcess(optimize=True).fit(
            train_X[:, self._knob_idx], np.log(np.maximum(train_y, 1e-6))
        )
        best = float(np.log(state.best_runtime()))
        incumbent = state.best_config()
        candidates, Xc = candidate_pool(
            space, rng, n_random=self.n_candidates,
            anchors=[incumbent] if incumbent else None,
        )
        if not candidates:
            return []
        Xc = Xc[:, self._knob_idx]
        mean, std = gp.predict(Xc, return_std=True)
        ei = expected_improvement(mean, std, best)
        step = self._step
        self._step += 1
        return [Candidate(candidates[int(np.argmax(ei))], tag=f"rec-{step}")]

    def finish(self, state: SearchState) -> None:
        state.extras["ottertune_mapped_workload"] = self._mapped_name
