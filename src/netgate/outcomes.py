"""Potential-outcome models for simulated experiments on a network.

Two families: a linear model with one- and two-hop interference through the
row-normalized adjacency (zero-diagonal masked), and a partial-linear model
with a treatment-covariate interaction plus a possibly nonlinear response to
the treated-neighbor fraction.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .design import Assignment, as_assignment
from .graph import Graph, Partition

Covariate = Literal["degree", "clusters", "constant"]  # the names covariate_vector takes


def covariate_vector(name: Covariate, g: Graph, p_part: Partition | None = None) -> np.ndarray:
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


class OutcomeModel:
    """Y(z) = potential(z) + sigma eps with eps standard normal per node.

    Subclasses define `potential`, which takes a treatment vector or its
    `design.Assignment` and reads the products of P = D^-1 A from the record.
    """

    def __init__(self, g: Graph, sigma: float):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        self.graph = g
        self.sigma = float(sigma)

    def potential(self, z: np.ndarray | Assignment) -> np.ndarray:
        raise NotImplementedError

    def realize(self, z: np.ndarray | Assignment, rng: np.random.Generator) -> np.ndarray:
        y = self.potential(z)
        if self.sigma > 0:
            noise = rng.standard_normal(self.graph.node_count)
            noise *= self.sigma  # in place, the bits of y + sigma * noise
            noise += y
            y = noise
        return y


class LinearTwoHopModel(OutcomeModel):
    """Y(z) = beta z + B z + (interaction weights) * z + sigma eps, where B is
    the zero-diagonal mask of r1 P + r2 P^2 with P the row-normalized adjacency.

    B z is evaluated from the record's P z and P^2 z; the diagonal of P^2 is
    removed exactly, never materializing a dense matrix.
    """

    def __init__(
        self,
        g: Graph,
        beta: float,
        r1: float,
        r2: float,
        sigma: float,
        interaction: np.ndarray | None = None,
    ):
        super().__init__(g, sigma)
        self.beta = float(beta)
        self.r1 = float(r1)
        self.r2 = float(r2)
        if interaction is None:
            interaction = np.zeros(g.node_count)
        self.interaction = np.asarray(interaction, dtype=np.float64)
        self.interaction.setflags(write=False)
        self._diag_p2 = g.diag_p_squared if r2 != 0.0 else None

    def potential(self, z: np.ndarray | Assignment) -> np.ndarray:
        a = as_assignment(self.graph, z)
        # in place, with the order of operations and so the bits of
        # beta z + r1 P z + interaction z + r2 (P^2 z - diag(P^2) z)
        out = self.beta * a.z
        tmp = self.r1 * a.pz
        out += tmp
        out += np.multiply(self.interaction, a.z, out=tmp)
        if self.r2 != 0.0:
            np.subtract(a.p2z, np.multiply(self._diag_p2, a.z, out=tmp), out=tmp)
            tmp *= self.r2
            out += tmp
        return out


_H_BASE = {
    "linear": lambda rho: rho,
    "sqrt": np.sqrt,
    "quadratic": np.square,
}
_NODE_EFFECTS = ("none", "normal")


class PartialLinearModel(OutcomeModel):
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
        super().__init__(g, sigma)
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.zeros(g.node_count) if v is None else np.asarray(v, dtype=np.float64)
        self.h_kind = h
        self.h_scale = float(h_scale)
        self._slope = self.beta + self.alpha * self.u  # each node's direct-effect coefficient
        for arr in (self.u, self.v, self._slope):
            arr.setflags(write=False)

    def potential(self, z: np.ndarray | Assignment) -> np.ndarray:
        a = as_assignment(self.graph, z)
        h = _H_BASE[self.h_kind](a.pz)
        return self._slope * a.z + self.h_scale * h + self.v


def linear_two_hop(
    g: Graph,
    beta: float = 1.0,
    r1: float = 1.0,
    r2: float = 0.0,
    sigma: float = 2.0,
    interaction: list[Covariate] = (),
    p_part: Partition | None = None,
) -> LinearTwoHopModel:
    """Build a LinearTwoHopModel from named interaction covariates, each with
    weight 1/k for k names (("degree", "clusters") gives the half-half mix)."""
    combined = None
    if interaction:
        w = 1.0 / len(interaction)
        combined = np.zeros(g.node_count)
        for name in interaction:
            combined += w * covariate_vector(name, g, p_part)
    return LinearTwoHopModel(g, beta, r1, r2, sigma, combined)


def partial_linear(
    g: Graph, beta: float = 1.0, alpha: float = 1.0, u: Covariate = "degree", sigma: float = 2.0,
    h: Literal[tuple(_H_BASE)] = "linear", h_scale: float = 1.0, v: Literal[_NODE_EFFECTS] = "none",
    v_seed: int = 2024, p_part: Partition | None = None,
) -> PartialLinearModel:
    """Build a PartialLinearModel from a named covariate u, with node effects
    v that are 0 ("none") or standard normal draws from v_seed ("normal")."""
    if v not in _NODE_EFFECTS:
        raise ValueError(f"v must be one of {_NODE_EFFECTS}, got {v!r}")
    v_vec = np.random.default_rng(int(v_seed)).standard_normal(g.node_count) if v == "normal" else None
    return PartialLinearModel(g, beta, alpha, covariate_vector(u, g, p_part), sigma, h, h_scale, v_vec)


def true_gate(model: OutcomeModel) -> float:
    """(1/n) sum_i (Y_i(1) - Y_i(0)), noiseless."""
    n = model.graph.node_count
    ones = np.ones(n)
    zeros = np.zeros(n)
    return float(np.mean(model.potential(ones) - model.potential(zeros)))


def global_treatment_mean(model: OutcomeModel) -> float:
    """(1/n) sum_i Y_i(1), noiseless; the estimand when Y(0) is normalized to 0."""
    return float(np.mean(model.potential(np.ones(model.graph.node_count))))


def interior_mean_gap(u: np.ndarray, p_part: Partition) -> float:
    """mu_Int - mu for a per-node covariate u, such as a model's interacted one."""
    interior = p_part.interior_mask
    if not interior.any():
        raise ValueError("partition has an empty interior set")
    return float(u[interior].mean() - u.mean())
