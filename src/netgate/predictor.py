"""Counterfactual outcome prediction via ridge regression on graph-filter
features.

The feature basis stacks hop-0 columns (intercept, z, covariates, and
covariate-treatment interactions) with neighbor means of z and of each
covariate, optionally repeated at hop 2 (mean of neighbor means). A fitted
predictor can then be evaluated under global treatment or global control.
Counterfactuals does both for each draw of a table; its keyword arguments are
the config's predictor section, checked and defaulted by its signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.linalg import lapack

from .design import Assignment, as_assignment
from .graph import Graph, Partition
from .outcomes import Covariate, covariate_vector

_FALLBACK_LAMBDA = 1e-8
_NORMAL_EQ_RTOL = 1e-8


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray
    names: tuple[str, ...]


class FeatureBasis:
    """Feature columns for one graph and covariate set.

    Columns: [1, z, u..., u*z..., nbr-mean z, nbr-mean u..., and at max_hop=2
    the 2-hop neighbor means of the same]. Isolated nodes get neighbor means
    0. The columns that do not depend on the assignment (1, u, P u, P^2 u)
    are written once into one C-order buffer; `write(z)` fills in z, u*z,
    P z and P^2 z and returns the buffer itself, while `at(z)` returns a
    copy that no later draw overwrites.
    """

    def __init__(self, g: Graph, covariates: dict[str, np.ndarray], max_hop: int = 2):
        if max_hop not in (1, 2):
            raise ValueError("max_hop must be 1 or 2")
        n = g.node_count
        for name, vec in covariates.items():
            if np.asarray(vec).shape != (n,):
                raise ValueError(f"covariate {name!r} length mismatch")
        p = g.row_normalized
        self._graph = g
        self._two_hop = max_hop == 2
        self._u = [np.asarray(vec, dtype=np.float64) for vec in covariates.values()]
        pu = [p @ u for u in self._u]
        zero = np.zeros(n)  # the z-dependent columns, filled in by write
        cols = [np.ones(n), zero, *self._u, *(zero for _ in self._u), zero, *pu]
        if self._two_hop:
            cols += [zero, *(p @ x for x in pu)]
        self._buffer = np.column_stack(cols)
        names = ["const", "z", *covariates, *(f"{c}*z" for c in covariates)]
        names += ["nbr_z", *(f"nbr_{c}" for c in covariates)]
        if self._two_hop:
            names += ["nbr2_z", *(f"nbr2_{c}" for c in covariates)]
        self.names = tuple(names)

    def write(self, z: np.ndarray | Assignment) -> FeatureMatrix:
        """The feature matrix under assignment z (an array or its record),
        held in this basis's one buffer: the next `write` overwrites it."""
        a = as_assignment(self._graph, z)
        f, k = self._buffer, len(self._u)
        f[:, 1] = a.z
        for j, u in enumerate(self._u):
            np.multiply(u, a.z, out=f[:, 2 + k + j])
        f[:, 2 + 2 * k] = a.pz
        if self._two_hop:
            f[:, 3 + 3 * k] = a.p2z
        return FeatureMatrix(f, self.names)

    def at(self, z: np.ndarray | Assignment) -> FeatureMatrix:
        """The feature matrix under assignment z, in an array of its own."""
        return FeatureMatrix(self.write(z).values.copy(), self.names)


def build_features(
    g: Graph,
    z: np.ndarray,
    covariates: dict[str, np.ndarray],
    max_hop: int = 2,
) -> FeatureMatrix:
    """Deterministic feature matrix for predicting outcomes under assignment z."""
    return FeatureBasis(g, covariates, max_hop).write(z)  # the buffer of a basis no one else holds


def features_at_level(
    g: Graph, covariates: dict[str, np.ndarray], level: int, max_hop: int = 2
) -> FeatureMatrix:
    """Features under the constant assignment z = level."""
    return FeatureBasis(g, covariates, max_hop).write(np.full(g.node_count, float(level)))


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
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        # Cholesky factor and solve in one LAPACK call, bit for bit what
        # scipy.linalg.solve(assume_a="pos") computes, without its condition
        # estimate (the residual check below decides); info > 0 means not
        # positive definite
        _, w, info = lapack.dposv(lhs, rhs)
        if info != 0:
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


class Counterfactuals:
    """A table's predictor: a ridge fit on each draw's features in basis (on every node, or on the
    boundary nodes when mask is set), predicted at f1 and f0, under global treatment and control."""

    def __init__(self, g: Graph, max_hop: Literal[1, 2] = 2, ridge_lambda: float | None = None,
                 training_mask: Literal["full", "boundary"] = "full", covariates: list[Covariate] = ("degree",),
                 p_part: Partition | None = None):
        self.ridge_lambda = ridge_lambda
        self.mask = ~p_part.interior_mask if training_mask == "boundary" else None
        if self.mask is not None and not self.mask.any():
            raise ValueError("predictor.training_mask 'boundary': the partition has no boundary node")
        self.basis = FeatureBasis(g, {name: covariate_vector(name, g, p_part) for name in covariates}, max_hop)
        self.f1 = self.basis.at(np.ones(g.node_count))
        self.f0 = self.basis.at(np.zeros(g.node_count))

    def __call__(self, a: Assignment, y: np.ndarray) -> tuple[LinearPredictor, np.ndarray, np.ndarray]:
        """The fit of y on the features under draw a (the basis's one buffer), and its f1 and f0 predictions."""
        fitted = fit(self.basis.write(a), y, self.ridge_lambda, self.mask)
        return fitted, predict(fitted, self.f1), predict(fitted, self.f0)
