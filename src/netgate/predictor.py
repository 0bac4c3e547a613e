"""Counterfactual outcome prediction via ridge regression on graph-filter
features.

The feature basis stacks hop-0 columns (intercept, z, covariates, and
covariate-treatment interactions) with neighbor means of z and of each
covariate, optionally repeated at hop 2 (mean of neighbor means). A fitted
predictor can then be evaluated under global treatment or global control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import Assignment, as_assignment
from .graph import Graph

_FALLBACK_LAMBDA = 1e-8
_NORMAL_EQ_RTOL = 1e-8


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray
    names: tuple[str, ...]


class FeatureBasis:
    """Feature columns for one graph and covariate set.

    The columns that do not depend on the assignment (1, u, P u, P^2 u) are
    computed once here; `at(z)` adds z, u*z, P z and P^2 z. Columns: [1, z,
    u..., u*z..., nbr-mean z, nbr-mean u..., and at max_hop=2 the 2-hop
    neighbor means of the same]. Isolated nodes get neighbor means 0.
    """

    def __init__(self, g: Graph, covariates: dict[str, np.ndarray], max_hop: int = 2):
        if max_hop not in (1, 2):
            raise ValueError("max_hop must be 1 or 2")
        n = g.node_count
        for name, vec in covariates.items():
            if np.asarray(vec).shape != (n,):
                raise ValueError(f"covariate {name!r} length mismatch")
        p = g.row_normalized()
        self._graph = g
        self._two_hop = max_hop == 2
        self._ones = np.ones(n)
        self._u = [np.asarray(vec, dtype=np.float64) for vec in covariates.values()]
        self._pu = [p @ u for u in self._u]
        self._p2u = [p @ pu for pu in self._pu] if self._two_hop else []
        names = ["const", "z", *covariates, *(f"{c}*z" for c in covariates)]
        names += ["nbr_z", *(f"nbr_{c}" for c in covariates)]
        if self._two_hop:
            names += ["nbr2_z", *(f"nbr2_{c}" for c in covariates)]
        self.names = tuple(names)

    def at(self, z: np.ndarray | Assignment) -> FeatureMatrix:
        """The feature matrix under assignment z (an array or its record)."""
        a = as_assignment(self._graph, z)
        cols = [self._ones, a.z, *self._u, *(u * a.z for u in self._u), a.pz, *self._pu]
        if self._two_hop:
            cols += [a.p2z, *self._p2u]
        return FeatureMatrix(np.column_stack(cols), self.names)


def build_features(
    g: Graph,
    z: np.ndarray,
    covariates: dict[str, np.ndarray],
    max_hop: int = 2,
) -> FeatureMatrix:
    """Deterministic feature matrix for predicting outcomes under assignment z."""
    return FeatureBasis(g, covariates, max_hop).at(z)


def features_at_level(
    g: Graph, covariates: dict[str, np.ndarray], level: int, max_hop: int = 2
) -> FeatureMatrix:
    """Features under the constant assignment z = level."""
    return FeatureBasis(g, covariates, max_hop).at(np.full(g.node_count, float(level)))


@dataclass(frozen=True)
class LinearPredictor:
    coefficients: np.ndarray
    ridge_lambda: float
    names: tuple[str, ...]
    fallback_used: bool = False

    def coefficient(self, name: str) -> float:
        if name not in self.names:
            raise KeyError(f"no feature column named {name!r}")
        return float(self.coefficients[self.names.index(name)])


def fit(
    features: FeatureMatrix,
    y: np.ndarray,
    ridge_lambda: float | None = None,
    mask: np.ndarray | None = None,
) -> LinearPredictor:
    """Ridge least squares over the rows where the boolean mask is set (all
    rows when it is None), solved by a deterministic Cholesky factorization
    of the normal equations.

    ridge_lambda=None resolves to the scale-aware default 1e-6 tr(F'F)/d;
    a rank-deficient solve at lambda=0 falls back to 1e-8 and flags it.
    """
    f = features.values
    y = np.asarray(y, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(f),):
            raise ValueError("training mask must be a boolean vector with one entry per row")
        f, y = f[mask], y[mask]
    if len(y) == 0:
        raise ValueError("training mask is empty")
    d = f.shape[1]
    gram = f.T @ f
    rhs = f.T @ y
    if ridge_lambda is None:
        ridge_lambda = 1e-6 * np.trace(gram) / d
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be nonnegative")

    def solve(lam: float) -> np.ndarray | None:
        lhs = gram + np.diag(np.full(d, lam))
        try:
            w = scipy.linalg.solve(lhs, rhs, assume_a="pos")
        except np.linalg.LinAlgError:
            return None
        resid = np.linalg.norm(lhs @ w - rhs)
        scale = np.linalg.norm(rhs)
        if scale > 0 and resid > _NORMAL_EQ_RTOL * max(scale, 1.0):
            return None
        return w

    fallback = False
    coef = solve(float(ridge_lambda))
    if coef is None:
        fallback = True
        ridge_lambda = _FALLBACK_LAMBDA
        coef = solve(_FALLBACK_LAMBDA)
        if coef is None:
            raise np.linalg.LinAlgError("normal equations unsolvable even with fallback ridge")

    return LinearPredictor(
        coefficients=coef,
        ridge_lambda=float(ridge_lambda),
        names=features.names,
        fallback_used=fallback,
    )


def predict(pred: LinearPredictor, features: FeatureMatrix) -> np.ndarray:
    """Apply fitted coefficients to a feature matrix with matching columns."""
    if features.names != pred.names:
        raise ValueError("feature columns do not match the fitted predictor")
    return features.values @ pred.coefficients

