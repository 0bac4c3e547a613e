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


class DrawBlock:
    """The sparse products of B drawn assignments of one graph and partition,
    each held as an n×B block with one column per draw and computed on first
    use: P z from one integer product N T (T holds the draws' cluster bits as
    K×B columns, N is the partition's neighbor_counts) and one lookup in the
    graph's share table, and P^2 z from one product P (P z). Column b of each
    equals, bit for bit, the product of draw b alone: scipy's multi-column
    kernel sums each column in the order of its matrix-vector product. n×B is
    the layout that product takes and gives, so no transposed copy is made."""

    def __init__(self, g: Graph, p_part: Partition, bits: np.ndarray | list[np.ndarray]):
        self.graph = g
        self.partition = p_part
        self.bits = np.array(bits, dtype=bool, ndmin=2)  # B × K, one row per draw
        self.bits.setflags(write=False)

    @cached_property
    def pz(self) -> np.ndarray:
        table, offset = self.graph.share_table
        index = self.partition.neighbor_counts @ self.bits.T  # N T: each node's treated neighbors per draw
        index += offset[:, None]
        pz = table[index]
        pz.setflags(write=False)
        return pz

    @cached_property
    def p2z(self) -> np.ndarray:
        p2z = self.graph.row_normalized @ self.pz
        p2z.setflags(write=False)
        return p2z


class Assignment:
    """One draw's 0/1 treatment vector z (float64) and its sparse products,
    each computed on first use and kept: P z and P^2 z, with P = D^-1 A the
    row-normalized adjacency, the clean masks read off P z, and the cluster
    bits t of z on the partition.

    The record of a drawn assignment copies P z and P^2 z out of column
    `column` of its DrawBlock; given its cluster bits t instead, it is the one
    column of a block of its own. The record of a bare vector computes P z as the
    sparse product and derives t from z when asked (z must then be constant
    on clusters).
    """

    def __init__(
        self, g: Graph, z: np.ndarray, p_part: Partition | None = None, t: np.ndarray | None = None,
        block: DrawBlock | None = None, column: int = 0,
    ):
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (g.node_count,):
            raise ValueError("treatment vector length mismatch")
        if (t is not None or block is not None) and p_part is None:
            raise ValueError("cluster bits need their partition")
        self.graph = g
        self.partition = p_part
        self.z = z
        if t is not None:
            block, column = DrawBlock(g, p_part, t), 0
        self._block, self._column = block, column

    @cached_property
    def t(self) -> np.ndarray:
        """Cluster bits: bit j is set iff cluster j is treated."""
        if self._block is not None:
            return self._block.bits[self._column]
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
        z, pz = self.z, self.pz
        return (z == 1) & (pz == self.graph.p_ones), (z == 0) & (pz == 0)

    @cached_property
    def pz(self) -> np.ndarray:
        if self._block is None:
            return self.graph.row_normalized @ self.z
        return np.ascontiguousarray(self._block.pz[:, self._column])

    @cached_property
    def p2z(self) -> np.ndarray:
        if self._block is None:
            return self.graph.row_normalized @ self.pz
        return np.ascontiguousarray(self._block.p2z[:, self._column])


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
    infinite weight. Where every inverse at p is finite, inv * d has its bits.
    """
    inverses = zip(a.clean, p_part.inverse_clean_probability(p), p_part.inverses_finite(p))
    return tuple(inv * d if finite else np.where(d, inv, 0.0) for d, inv, finite in inverses)


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
