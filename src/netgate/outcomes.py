"""Potential-outcome models for simulated experiments on a network.

Two families: a linear model with one- and two-hop interference through the
row-normalized adjacency (zero-diagonal masked), and a partial-linear model
with a treatment-covariate interaction plus a possibly nonlinear response to
the treated-neighbor fraction.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Partition


def covariate_vector(name: str, g: Graph, p_part: Partition | None = None) -> np.ndarray:
    """Named per-node covariate, normalized by its population mean.

    "degree": deg / mean(deg); "clusters": touch count c / mean(c) (needs a
    partition); "constant": all-ones.
    """
    if name == "degree":
        deg = g.degrees.astype(np.float64)
        return deg / deg.mean()
    if name == "clusters":
        if p_part is None:
            raise ValueError("'clusters' covariate needs a partition")
        c = p_part.touch_counts.astype(np.float64)
        return c / c.mean()
    if name == "constant":
        return np.ones(g.node_count)
    raise ValueError(f"unknown covariate {name!r}")


class LinearTwoHopModel:
    """Y(z) = beta z + B z + (interaction weights) * z + sigma eps, where B is
    the zero-diagonal mask of r1 P + r2 P^2 with P the row-normalized adjacency.

    B z is evaluated with two sparse matvecs; the diagonal of P^2 is removed
    exactly, never materializing a dense matrix.
    """

    def __init__(
        self,
        g: Graph,
        beta: float,
        r1: float,
        r2: float,
        sigma: float,
        interaction: np.ndarray | None = None,
        interaction_names: tuple[str, ...] = (),
    ):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.graph = g
        self.beta = float(beta)
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.sigma = float(sigma)
        self.interaction_names = interaction_names
        if interaction is None:
            interaction = np.zeros(g.node_count)
        self.interaction = np.asarray(interaction, dtype=np.float64)
        self.interaction.setflags(write=False)
        self._p = g.row_normalized()
        self._diag_p2 = g.diag_p_squared() if r2 != 0.0 else None

    def potential(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.graph.node_count,):
            raise ValueError("treatment vector length mismatch")
        pz = self._p @ z
        out = self.beta * z + self.r1 * pz + self.interaction * z
        if self.r2 != 0.0:
            out += self.r2 * (self._p @ pz - self._diag_p2 * z)
        return out

    def realize(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        y = self.potential(z)
        if self.sigma > 0:
            y = y + self.sigma * rng.standard_normal(self.graph.node_count)
        return y


_H_BASE = {
    "linear": lambda rho: rho,
    "sqrt": np.sqrt,
    "quadratic": np.square,
}


class PartialLinearModel:
    """Y(z) = (beta + alpha u) z + h_scale * h(rho(z)) + v + sigma eps, with
    rho(z) the treated fraction of each node's neighborhood (0 when isolated)."""

    def __init__(
        self,
        g: Graph,
        beta: float,
        alpha: float,
        u: np.ndarray,
        sigma: float,
        h: str = "linear",
        h_scale: float = 1.0,
        v: np.ndarray | None = None,
    ):
        if h not in _H_BASE:
            raise ValueError(f"unknown response family {h!r}; pick from {sorted(_H_BASE)}")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.graph = g
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.zeros(g.node_count) if v is None else np.asarray(v, dtype=np.float64)
        self.sigma = float(sigma)
        self.h_kind = h
        self.h_scale = float(h_scale)
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        self._p = g.row_normalized()

    def potential(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.graph.node_count,):
            raise ValueError("treatment vector length mismatch")
        rho = self._p @ z
        return (self.beta + self.alpha * self.u) * z + self.h_scale * _H_BASE[self.h_kind](rho) + self.v

    def realize(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        y = self.potential(z)
        if self.sigma > 0:
            y = y + self.sigma * rng.standard_normal(self.graph.node_count)
        return y


OutcomeModel = LinearTwoHopModel | PartialLinearModel


def linear_two_hop(
    g: Graph,
    beta: float = 1.0,
    r1: float = 1.0,
    r2: float = 0.0,
    sigma: float = 2.0,
    interaction: tuple[str, ...] = (),
    interaction_weights: tuple[float, ...] | None = None,
    p_part: Partition | None = None,
) -> LinearTwoHopModel:
    """Build a LinearTwoHopModel from named interaction covariates.

    With k names and no explicit weights, each covariate gets weight 1/k
    (so ("degree", "clusters") gives the half-half combination).
    """
    combined = None
    if interaction:
        if interaction_weights is None:
            interaction_weights = tuple(1.0 / len(interaction) for _ in interaction)
        if len(interaction_weights) != len(interaction):
            raise ValueError("one weight per interaction covariate required")
        combined = np.zeros(g.node_count)
        for name, w in zip(interaction, interaction_weights):
            combined += w * covariate_vector(name, g, p_part)
    return LinearTwoHopModel(g, beta, r1, r2, sigma, combined, tuple(interaction))


def true_gate(model: OutcomeModel) -> float:
    """(1/n) sum_i (Y_i(1) - Y_i(0)), noiseless."""
    n = model.graph.node_count
    ones = np.ones(n)
    zeros = np.zeros(n)
    return float(np.mean(model.potential(ones) - model.potential(zeros)))


def global_treatment_mean(model: OutcomeModel) -> float:
    """(1/n) sum_i Y_i(1), noiseless; the estimand when Y(0) is normalized to 0."""
    return float(np.mean(model.potential(np.ones(model.graph.node_count))))


def interior_mean_gap(model: PartialLinearModel, p_part: Partition) -> float:
    """mu_Int - mu for the model's interacted covariate u."""
    interior = p_part.interior_mask
    if not interior.any():
        raise ValueError("partition has an empty interior set")
    return float(model.u[interior].mean() - model.u.mean())
