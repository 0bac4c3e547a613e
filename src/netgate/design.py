"""Cluster-level Bernoulli randomization, the per-draw record of a treatment
vector's sparse products, and an exact enumeration oracle for small K."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .graph import Graph, Partition

ENUMERATION_MAX_CLUSTERS = 20


@dataclass(frozen=True)
class TreatmentDraw:
    """One realized assignment: cluster bits expanded to unit bits."""

    cluster_bits: np.ndarray  # bool, length K
    unit_bits: np.ndarray  # int8 0/1, length n


def expand(p_part: Partition, cluster_bits: np.ndarray) -> np.ndarray:
    """Unit bits implied by cluster bits."""
    return np.asarray(cluster_bits)[p_part.cluster_of].astype(np.int8)


def draw(p_part: Partition, p: float, rng: np.random.Generator) -> TreatmentDraw:
    """Assign each cluster Bernoulli(p) independently and expand to units."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    bits = rng.random(p_part.cluster_count) < p
    return TreatmentDraw(cluster_bits=bits, unit_bits=expand(p_part, bits))


class Assignment:
    """One draw's 0/1 treatment vector z (float64) and its sparse products,
    each computed on first use and kept: P z and P^2 z, with P = D^-1 A the
    row-normalized adjacency, the clean masks read off P z, and the cluster
    bits t of z on the partition.

    The record of a drawn assignment takes its partition and cluster bits t
    and reads P z off integer counts: k = N t counts each node's treated
    neighbors (N is the partition's neighbor_counts) and (P z)_i is entry
    k_i of node i's row of the graph's share table, bit for bit the product.
    The record of a bare vector computes P z as the sparse product and
    derives t from z when asked (z must then be constant on clusters).
    """

    def __init__(
        self, g: Graph, z: np.ndarray, p_part: Partition | None = None, t: np.ndarray | None = None
    ):
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (g.node_count,):
            raise ValueError("treatment vector length mismatch")
        if t is not None and p_part is None:
            raise ValueError("cluster bits need their partition")
        self.graph = g
        self.partition = p_part
        self.z = z
        self._drawn_bits = t

    @cached_property
    def t(self) -> np.ndarray:
        """Cluster bits: bit j is set iff cluster j is treated."""
        if self._drawn_bits is not None:
            return self._drawn_bits
        bits = np.zeros(self.partition.cluster_count, dtype=bool)
        bits[self.partition.cluster_of[self.z == 1]] = True
        return bits

    @cached_property
    def clean(self) -> tuple[np.ndarray, np.ndarray]:
        """(d1, d0): d1[i] iff node i and every neighbor are treated, d0[i]
        iff they are all control (isolated nodes reduce to their own bit).

        Read exactly off P z: (P z)_i is the k_i-th partial sum of fl(1/d_i)
        for k_i treated neighbors, and these sums strictly increase from 0 at
        k_i = 0 to P 1 at k_i = d_i."""
        table, offset = self.graph.share_table
        z, pz = self.z, self.pz
        return (z == 1) & (pz == table[offset + self.graph.degrees]), (z == 0) & (pz == 0)

    @cached_property
    def pz(self) -> np.ndarray:
        if self._drawn_bits is None:
            return self.graph.row_normalized @ self.z
        table, offset = self.graph.share_table
        return table[offset + self.partition.neighbor_counts @ self._drawn_bits]

    @cached_property
    def p2z(self) -> np.ndarray:
        return self.graph.row_normalized @ self.pz


def as_assignment(g: Graph, z: np.ndarray | Assignment, p_part: Partition | None = None) -> Assignment:
    """The record of z on g with partition p_part: a bare vector gets a new
    record, and so does a record without a partition when p_part is given;
    a record of another partition is an error."""
    if isinstance(z, Assignment) and p_part is not None and z.partition is not p_part:
        if z.partition is not None:
            raise ValueError("the assignment record belongs to another partition")
        z = z.z
    return z if isinstance(z, Assignment) else Assignment(g, z, p_part)


def exposure_vector(g: Graph, z: np.ndarray | Assignment, level: int) -> np.ndarray:
    """The clean-exposure indicator at one level for all nodes (int8)."""
    d1, d0 = as_assignment(g, z).clean
    return (d1 if level == 1 else d0).astype(np.int8)


def clean_weights(a: Assignment, p_part: Partition, p: float) -> tuple[np.ndarray, np.ndarray]:
    """HT and Hajek weights (w1, w0) of one draw at treatment proportion p.

    w1 = 1/p^c and w0 = 1/(1-p)^c are set on the clean nodes of their level
    and are 0 elsewhere, so a probability that underflows to 0 on a node
    that is not clean never enters a 0/0; on a clean node it gives an
    infinite weight.
    """
    d1, d0 = a.clean
    inv1, inv0 = p_part.inverse_clean_probability(p)
    return np.where(d1, inv1, 0.0), np.where(d0, inv0, 0.0)


def enumerate_assignments(p_part: Partition, p: float) -> Iterator[tuple[np.ndarray, float]]:
    """All 2^K cluster assignments as (cluster bits, design probability) pairs.

    Exact oracle for expectations over the randomization; guarded at K <= 20.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    k = p_part.cluster_count
    if k > ENUMERATION_MAX_CLUSTERS:
        raise ValueError(f"{k} clusters exceed the enumeration guard ({ENUMERATION_MAX_CLUSTERS})")
    for code in range(2**k):
        bits = np.array([(code >> j) & 1 for j in range(k)], dtype=bool)
        treated = int(bits.sum())
        prob = p**treated * (1.0 - p) ** (k - treated)
        yield bits, prob
