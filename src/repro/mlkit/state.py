"""Model (de)serialization dispatch for the surrogate registry.

Every mlkit model that can back a stored surrogate implements
``to_state() -> dict`` / ``from_state(dict)``; the dict is JSON-safe and
round-trips to an identically-predicting model.  This module maps the
``"kind"`` discriminator each state embeds back to its class, so the
registry can persist heterogeneous models in one document format.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.mlkit.gp import GaussianProcess
from repro.mlkit.linear import Lasso, RidgeRegression
from repro.mlkit.neural import MLPRegressor
from repro.mlkit.scaler import MinMaxScaler, StandardScaler
from repro.mlkit.tree import RandomForest, RegressionTree

__all__ = ["MODEL_CLASSES", "dump_model", "load_model"]

MODEL_CLASSES = {
    "gp": GaussianProcess,
    "lasso": Lasso,
    "minmax_scaler": MinMaxScaler,
    "mlp": MLPRegressor,
    "random_forest": RandomForest,
    "regression_tree": RegressionTree,
    "ridge": RidgeRegression,
    "standard_scaler": StandardScaler,
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
