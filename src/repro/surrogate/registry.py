"""Versioned surrogate model registry.

Models are keyed on (system kind, workload family) and stamped with the
:meth:`KnowledgeBase.version` they were trained at.  ``get`` compares
that stamp against the live KB: a match serves the cached model with
zero work; a mismatch (any ingest bumps the version) retrains from the
current store.  With a directory the registry also persists each model
as one JSON document, so a service restart warm-loads every surrogate
that is still fresh.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.parameters import ConfigurationSpace
from repro.exceptions import SurrogateError
from repro.kb.store import KnowledgeBase, SessionRecord, json_safe
from repro.surrogate.dataset import build_matrices
from repro.surrogate.trainer import TrainedSurrogate, train_surrogate

__all__ = ["SurrogateStore"]

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


class SurrogateStore:
    """In-memory + optional on-disk registry of trained surrogates.

    Args:
        path: directory for persisted model documents; ``None`` keeps
            the registry purely in-memory (tests, embedded service).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = Path(path) if path else None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
        self._cache: Dict[Tuple[str, str], TrainedSurrogate] = {}
        #: Guards ``_cache``/``trains`` — the service calls into the
        #: registry from many worker threads at once.  Training itself
        #: runs *outside* this lock (serialized per family by the
        #: service), so one cold family never blocks registry reads.
        self._lock = threading.Lock()
        #: How many times :meth:`get` retrained (cache misses + stale
        #: hits).  Invalidation tests pin this counter.
        self.trains = 0

    # -- persistence -------------------------------------------------------
    def _file(self, system_kind: str, family: str) -> Optional[Path]:
        if self.path is None:
            return None
        stem = _UNSAFE.sub("_", f"{system_kind}__{family}")
        return self.path / f"{stem}.json"

    def save(self, trained: TrainedSurrogate) -> None:
        """Cache (and persist, when disk-backed) one trained model."""
        with self._lock:
            self._cache[(trained.system_kind, trained.family)] = trained
        file = self._file(trained.system_kind, trained.family)
        if file is not None:
            tmp = file.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(trained.to_jsonable(), allow_nan=False))
            tmp.replace(file)

    def load(self, system_kind: str, family: str) -> Optional[TrainedSurrogate]:
        """Stored model regardless of freshness; ``None`` if absent."""
        with self._lock:
            cached = self._cache.get((system_kind, family))
        if cached is not None:
            return cached
        file = self._file(system_kind, family)
        if file is None or not file.exists():
            return None
        try:
            trained = TrainedSurrogate.from_jsonable(
                json.loads(file.read_text())
            )
        except Exception:
            return None
        with self._lock:
            self._cache[(system_kind, family)] = trained
        return trained

    # -- version-checked access --------------------------------------------
    def get(
        self,
        kb: KnowledgeBase,
        system_kind: str,
        family: str,
        space: ConfigurationSpace,
        train: bool = True,
        session_filter: Optional[Callable[[SessionRecord], bool]] = None,
    ) -> Optional[TrainedSurrogate]:
        """A model trained at the KB's *current* version, or ``None``.

        A cached model whose stamp matches ``kb.version()`` is returned
        as-is.  Otherwise (missing or stale) the family is retrained
        from the live KB — unless ``train=False``, which only ever
        serves fresh cache hits.
        """
        version = tuple(kb.version())
        cached = self.load(system_kind, family)
        if cached is not None and cached.kb_version == version:
            return cached
        if not train:
            return None
        matrices = build_matrices(
            kb,
            system_kind,
            space,
            families=[family],
            session_filter=session_filter,
        )
        matrix = matrices.get(family)
        if matrix is None:
            return None
        try:
            trained = train_surrogate(matrix, kb_version=version)
        except SurrogateError:
            return None
        with self._lock:
            self.trains += 1
        self.save(trained)
        return trained

    def train_all(
        self,
        kb: KnowledgeBase,
        system_kind: str,
        space: ConfigurationSpace,
    ) -> Dict[str, TrainedSurrogate]:
        """Train (or freshen) every family of one system kind."""
        matrices = build_matrices(kb, system_kind, space)
        out: Dict[str, TrainedSurrogate] = {}
        for family in matrices:
            trained = self.get(kb, system_kind, family, space)
            if trained is not None:
                out[family] = trained
        return out

    # -- introspection -----------------------------------------------------
    def entries(self) -> List[TrainedSurrogate]:
        """All known models (cache + disk), sorted by key."""
        if self.path is not None:
            for file in sorted(self.path.glob("*.json")):
                try:
                    trained = TrainedSurrogate.from_jsonable(
                        json.loads(file.read_text())
                    )
                except Exception:
                    continue
                with self._lock:
                    self._cache.setdefault(
                        (trained.system_kind, trained.family), trained
                    )
        with self._lock:
            return [self._cache[key] for key in sorted(self._cache)]

    def status(self, kb: Optional[KnowledgeBase] = None) -> Dict[str, Any]:
        """JSON-safe registry summary (the ``/surrogate/status`` body)."""
        version = None if kb is None else list(kb.version())
        models = []
        for trained in self.entries():
            entry = trained.describe()
            if version is not None:
                entry["fresh"] = entry["kb_version"] == version
            models.append(entry)
        return json_safe({
            "store": "memory" if self.path is None else str(self.path),
            "kb_version": version,
            "n_models": len(models),
            "trains": self.trains,
            "models": models,
        })
