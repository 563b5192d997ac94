"""Persistent tuning knowledge base and cross-session transfer.

The paper's survey closes on the observation that tuning knowledge is
reusable: OtterTune's central repository is what lets it skip most of
the exploration a cold-start tuner pays for.  This package generalizes
that idea beyond the DBMS tuner:

* :mod:`repro.kb.store` — SQLite-backed persistence of completed
  tuning sessions (histories, metrics, fingerprints, resilience stats).
* :mod:`repro.kb.fingerprint` — probe-run workload fingerprints and
  similarity search / OtterTune-style workload mapping.
* :mod:`repro.kb.warmstart` — :class:`TransferPrior` construction:
  replaying similar stored sessions as scaled pseudo-observations that
  warm-start any surrogate-model tuner.
* :mod:`repro.kb.service` — a JSON-over-HTTP recommendation service
  (``python -m repro serve``).
* :mod:`repro.kb.serving` — the serving stack behind it: an admission
  gate on the requests in flight, and the write-behind group-commit
  ingest queue.
"""

from repro.kb.fingerprint import (
    WorkloadFingerprint,
    fingerprint_from_history,
    map_workload,
    probe_fingerprint,
    rank_similar,
)
from repro.kb.service import RecommendationService, make_server, serve_forever
from repro.kb.serving import (
    IngestWriter,
    Overloaded,
    RequestExecutor,
    ServingConfig,
)
from repro.kb.store import KnowledgeBase, SessionRecord
from repro.kb.warmstart import PriorObservation, TransferPrior, warm_start_prior

__all__ = [
    "KnowledgeBase",
    "SessionRecord",
    "WorkloadFingerprint",
    "probe_fingerprint",
    "fingerprint_from_history",
    "rank_similar",
    "map_workload",
    "PriorObservation",
    "TransferPrior",
    "warm_start_prior",
    "RecommendationService",
    "ServingConfig",
    "Overloaded",
    "RequestExecutor",
    "IngestWriter",
    "make_server",
    "serve_forever",
]
