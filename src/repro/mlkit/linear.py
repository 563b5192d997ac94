"""Linear models: ridge regression and lasso via coordinate descent.

OtterTune ranks knobs by running lasso on (knob -> runtime) data with
polynomial interaction features: the order in which coefficients enter
the regularization path is the importance order.  This module provides
the lasso path machinery that pipeline uses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelNotFitted
from repro.mlkit.scaler import StandardScaler

__all__ = ["RidgeRegression", "Lasso", "lasso_path", "lasso_rank_features"]


class RidgeRegression:
    """L2-regularized least squares with intercept."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = float(alpha)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        d = X.shape[1]
        A = Xc.T @ Xc + self.alpha * np.eye(d)
        b = Xc.T @ yc
        self.coef_ = np.linalg.solve(A, b)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise ModelNotFitted("RidgeRegression not fitted")
        return np.atleast_2d(np.asarray(X, dtype=float)) @ self.coef_ + self.intercept_


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


class Lasso:
    """L1-regularized least squares by cyclic coordinate descent.

    Inputs are internally standardized; reported coefficients are on the
    standardized scale (which is what importance ranking wants — raw
    scales would make coefficients incomparable across knobs).
    """

    def __init__(self, alpha: float = 0.1, max_iter: int = 1000, tol: float = 1e-6):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = float(alpha)
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self._scaler: Optional[StandardScaler] = None
        self._y_mean: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Lasso":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n, d = X.shape
        self._scaler = StandardScaler().fit(X)
        Z = self._scaler.transform(X)
        self._y_mean = float(y.mean())
        r = y - self._y_mean
        beta = np.zeros(d)
        col_sq = (Z * Z).sum(axis=0)
        col_sq[col_sq < 1e-12] = 1e-12
        residual = r - Z @ beta
        for _ in range(self.max_iter):
            max_delta = 0.0
            for j in range(d):
                old = beta[j]
                rho = Z[:, j] @ residual + col_sq[j] * old
                new = _soft_threshold(rho, self.alpha * n) / col_sq[j]
                if new != old:
                    residual += Z[:, j] * (old - new)
                    beta[j] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < self.tol:
                break
        self.coef_ = beta
        self.intercept_ = self._y_mean
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self._scaler is None:
            raise ModelNotFitted("Lasso not fitted")
        Z = self._scaler.transform(np.atleast_2d(np.asarray(X, dtype=float)))
        return Z @ self.coef_ + self.intercept_


def lasso_path(
    X: np.ndarray, y: np.ndarray, n_alphas: int = 30
) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficients along a geometric grid of decreasing alphas.

    Returns:
        (alphas, coefs): alphas descending, coefs of shape
        ``(n_alphas, n_features)``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    Z = StandardScaler().fit_transform(X)
    r = y - y.mean()
    alpha_max = float(np.max(np.abs(Z.T @ r)) / n) if n else 1.0
    alpha_max = max(alpha_max, 1e-8)
    alphas = np.geomspace(alpha_max, alpha_max * 1e-3, n_alphas)
    coefs = np.zeros((n_alphas, X.shape[1]))
    for i, a in enumerate(alphas):
        model = Lasso(alpha=a).fit(X, y)
        coefs[i] = model.coef_
    return alphas, coefs


def lasso_rank_features(X: np.ndarray, y: np.ndarray, n_alphas: int = 30) -> List[int]:
    """Feature indices ordered by when they first enter the lasso path.

    Earlier entry (at stronger regularization) means greater importance
    — OtterTune's knob-ranking criterion.  Ties (features entering at
    the same alpha) break by coefficient magnitude at the weakest alpha.
    """
    alphas, coefs = lasso_path(X, y, n_alphas=n_alphas)
    d = coefs.shape[1]
    entry = np.full(d, len(alphas))
    for j in range(d):
        nz = np.nonzero(np.abs(coefs[:, j]) > 1e-10)[0]
        if nz.size:
            entry[j] = nz[0]
    final_mag = np.abs(coefs[-1])
    order = sorted(range(d), key=lambda j: (entry[j], -final_mag[j]))
    return order
