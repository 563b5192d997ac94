"""Model (de)serialization dispatch for the surrogate registry.

Every mlkit model that can back a stored surrogate (the trainer's
``gp``, ``forest`` and ``mlp`` kinds) implements ``to_state() -> dict``
/ ``from_state(dict)``; the dict is JSON-safe and round-trips to an
identically-predicting model.  This module maps the ``"kind"``
discriminator each state embeds back to its class, so the registry can
persist heterogeneous models in one document format.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.mlkit.gp import GaussianProcess
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.tree import RandomForest

__all__ = ["MODEL_CLASSES", "dump_model", "load_model"]

MODEL_CLASSES = {
    "gp": GaussianProcess,
    "mlp": MLPRegressor,
    "random_forest": RandomForest,
}


def dump_model(model: Any) -> Dict[str, Any]:
    """Serialize a fitted mlkit model to a JSON-safe state dict."""
    state = model.to_state()
    kind = state.get("kind")
    if kind not in MODEL_CLASSES:
        raise ValueError(f"model state has unknown kind {kind!r}")
    return state


def load_model(state: Dict[str, Any]) -> Any:
    """Reconstruct a fitted mlkit model from :func:`dump_model` output."""
    kind = state.get("kind")
    if kind not in MODEL_CLASSES:
        raise ValueError(f"model state has unknown kind {kind!r}")
    return MODEL_CLASSES[kind].from_state(state)
