"""Cluster-level Bernoulli randomization, exposure indicators, and an exact
enumeration oracle over assignments for small cluster counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import Graph, Partition

ENUMERATION_MAX_CLUSTERS = 20


@dataclass(frozen=True)
class TreatmentDraw:
    """One realized assignment: cluster bits expanded to unit bits."""

    cluster_bits: np.ndarray  # bool, length K
    unit_bits: np.ndarray  # int8 0/1, length n
    p: float


@dataclass(frozen=True)
class AssignmentAtom:
    cluster_bits: np.ndarray
    probability: float


def draw(p_part: Partition, p: float, rng: np.random.Generator) -> TreatmentDraw:
    """Assign each cluster Bernoulli(p) independently and expand to units."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    bits = rng.random(p_part.cluster_count) < p
    units = bits[p_part.cluster_of].astype(np.int8)
    return TreatmentDraw(cluster_bits=bits, unit_bits=units, p=p)


def expand(p_part: Partition, cluster_bits: np.ndarray) -> np.ndarray:
    """Unit bits implied by cluster bits."""
    return np.asarray(cluster_bits)[p_part.cluster_of].astype(np.int8)


def exposure(g: Graph, z: np.ndarray, i: int, level: int) -> int:
    """Full-neighborhood exposure indicator: 1 iff z_i == level and every
    neighbor of i carries the same level. Isolated nodes reduce to z_i == level."""
    if not 0 <= i < g.node_count:
        raise IndexError(f"node {i} out of range")
    z = np.asarray(z)
    if z[i] != level:
        return 0
    nbrs = g.neighbors(i)
    if len(nbrs) and not np.all(z[nbrs] == level):
        return 0
    return 1


def clean_masks(g: Graph, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`exposure` at both levels for all nodes from one A @ z: (d1, d0),
    where d1[i] iff node i and every neighbor are treated and d0[i] iff
    they are all control."""
    z = np.asarray(z, dtype=np.float64)
    treated_nbrs = g.adjacency() @ z
    return (z == 1) & (treated_nbrs == g.degrees), (z == 0) & (treated_nbrs == 0)


def exposure_vector(g: Graph, z: np.ndarray, level: int) -> np.ndarray:
    """exposure(g, z, ., level) for all nodes at once (int8)."""
    d1, d0 = clean_masks(g, z)
    return (d1 if level == 1 else d0).astype(np.int8)


@dataclass(frozen=True)
class DrawExposure:
    """One draw's clean exposure as HT, Hajek and CAE read it.

    w1 = 1/p^c and w0 = 1/(1-p)^c are set on the clean nodes of their level
    and are 0 elsewhere, so a probability that underflows to 0 on a node
    that is not clean never enters a 0/0.
    """

    cluster_bits: np.ndarray  # bool, length K
    d1: np.ndarray  # bool, length n
    d0: np.ndarray
    w1: np.ndarray  # float64, length n
    w0: np.ndarray


def draw_exposure(g: Graph, p_part: Partition, z: np.ndarray, p: float) -> DrawExposure:
    """The exposure record of unit bits z drawn at treatment proportion p."""
    d1, d0 = clean_masks(g, z)
    q1 = exposure_probability_vector(p_part, p, 1)
    q0 = exposure_probability_vector(p_part, p, 0)
    return DrawExposure(
        cluster_bits=cluster_bits(p_part, z),
        d1=d1,
        d0=d0,
        w1=np.divide(1.0, q1, out=np.zeros_like(q1), where=d1),
        w0=np.divide(1.0, q0, out=np.zeros_like(q0), where=d0),
    )


def cluster_bits(p_part: Partition, z: np.ndarray) -> np.ndarray:
    """Cluster bits of unit bits z (z is constant on each cluster)."""
    bits = np.zeros(p_part.cluster_count, dtype=bool)
    bits[p_part.cluster_of[np.asarray(z) == 1]] = True
    return bits


def exposure_probability(p_part: Partition, p: float, i: int, level: int) -> float:
    """Design probability of clean exposure: p^c_i at level 1, (1-p)^c_i at 0."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    c = int(p_part.touch_counts[i])
    return float(p**c if level == 1 else (1.0 - p) ** c)


def exposure_probability_vector(p_part: Partition, p: float, level: int) -> np.ndarray:
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    base = p if level == 1 else 1.0 - p
    return base ** p_part.touch_counts.astype(np.float64)


def enumerate_assignments(p_part: Partition, p: float) -> Iterator[AssignmentAtom]:
    """All 2^K cluster assignments with their design probabilities.

    Exact oracle for expectations over the randomization; guarded at K <= 20.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    k = p_part.cluster_count
    if k > ENUMERATION_MAX_CLUSTERS:
        raise ValueError(
            f"refusing to enumerate 2^{k} assignments (K > {ENUMERATION_MAX_CLUSTERS})"
        )
    for code in range(2**k):
        bits = np.array([(code >> j) & 1 for j in range(k)], dtype=bool)
        treated = int(bits.sum())
        prob = p**treated * (1.0 - p) ** (k - treated)
        yield AssignmentAtom(cluster_bits=bits, probability=prob)
