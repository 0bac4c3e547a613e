"""Cluster-level Bernoulli randomization, the per-draw record of a treatment
vector's sparse products, and an exact enumeration oracle for small K."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .graph import Graph, Partition

ENUMERATION_MAX_CLUSTERS = 20


def draw(p_part: Partition, p: float, rng: np.random.Generator) -> Assignment:
    """Assign each cluster Bernoulli(p) independently: column 0 of a block of its own."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"treatment proportion must be in (0,1), got {p}")
    return DrawBlock(p_part, rng.random(p_part.cluster_count) < p).record(0)


class DrawBlock:
    """B drawn assignments of one partition, given by their cluster bits, and
    their sparse products, each held as an n×B block with one column per draw
    and computed on first use: P z from one integer product N T (T holds the
    draws' cluster bits as K×B columns, N is the partition's neighbor_counts)
    and one lookup in the graph's share table, and P^2 z from one product
    P (P z). Column b of each equals, bit for bit, the product of draw b alone:
    scipy's multi-column kernel sums each column in the order of its
    matrix-vector product. n×B is the layout that product takes and gives, so
    no transposed copy is made."""

    def __init__(self, p_part: Partition, bits: np.ndarray | list[np.ndarray]):
        self.partition = p_part
        self.bits = np.array(bits, dtype=bool, ndmin=2)  # B × K, one row per draw
        self.bits.setflags(write=False)

    @cached_property
    def pz(self) -> np.ndarray:
        table, offset = self.partition.graph.share_table
        # N T (int32): each node's treated neighbors per draw; the index is int64,
        # as the table may hold 2^31 entries or more
        index = offset[:, None] + self.partition.neighbor_counts @ self.bits.T
        pz = table[index]
        pz.setflags(write=False)
        return pz

    @cached_property
    def p2z(self) -> np.ndarray:
        p2z = self.partition.graph.row_normalized @ self.pz
        p2z.setflags(write=False)
        return p2z

    def record(self, column: int) -> Assignment:
        """The record of the draw in this column, with z made from its bits."""
        a = Assignment.__new__(Assignment)
        a.graph, a.partition, a._block, a._column = self.partition.graph, self.partition, self, column
        return a


class Assignment:
    """One draw's 0/1 treatment vector z (float64) and its sparse products,
    each computed on first use and kept: P z and P^2 z, with P = D^-1 A the
    row-normalized adjacency, and the clean masks read off P z.

    A record with a partition is a column of a DrawBlock, which holds its
    cluster bits t and its P z and P^2 z. Given z and a partition, it derives
    t, refuses a z that is not 0/1 and constant on every cluster, and is a
    block of its own. Only a record without a partition reads g or computes P z.
    """

    def __init__(self, g: Graph, z: np.ndarray, p_part: Partition | None = None):
        g = g if p_part is None else p_part.graph
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (g.node_count,):
            raise ValueError("treatment vector length mismatch")
        self.graph, self.partition, self.z, self._block, self._column = g, p_part, z, None, 0
        if p_part is not None:
            t = np.zeros(p_part.cluster_count, dtype=bool)
            t[p_part.cluster_of[z == 1]] = True
            if not np.array_equal(t[p_part.cluster_of], z):  # True == 1.0, False == 0.0
                raise ValueError("treatment vector is not 0/1 and constant on every cluster")
            self._block = DrawBlock(p_part, t)

    @property
    def t(self) -> np.ndarray:
        """Cluster bits: bit j is set iff cluster j is treated."""
        if self._block is None:
            raise ValueError("cluster bits need a partition: this record has none")
        return self._block.bits[self._column]

    @cached_property
    def z(self) -> np.ndarray:
        """The unit bits of t as float64, made by one gather (unless given)."""
        return self.t.astype(np.float64)[self.partition.cluster_of]

    @property
    def unit_bits(self) -> np.ndarray:
        """z as int8."""
        return self.z.astype(np.int8)

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
    """The record of z on p_part's graph, or on g without a partition: a bare
    vector gets a new record, and so does a record without a partition when
    p_part is given; a record of another partition is an error."""
    if isinstance(z, Assignment) and p_part is not None and z.partition is not p_part:
        if z.partition is not None:
            raise ValueError("the assignment record belongs to another partition")
        z = z.z
    return z if isinstance(z, Assignment) else Assignment(g, z, p_part)


def exposure_vector(g: Graph, z: np.ndarray | Assignment, level: int) -> np.ndarray:
    """The clean-exposure indicator at one level (0 or 1) for all nodes (int8)."""
    if level not in (0, 1):
        raise ValueError(f"exposure level must be 0 or 1, got {level}")
    d1, d0 = as_assignment(g, z).clean
    return (d1 if level == 1 else d0).astype(np.int8)


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
        yield bits, p**treated * (1.0 - p) ** (k - treated)
