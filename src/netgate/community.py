"""Louvain clustering with a resolution parameter, plus partition statistics.

The implementation is deliberately deterministic: node visit order is a
seeded shuffle, modularity-gain ties break toward the lowest community
index, and a local-move phase ends once a full pass gains < 1e-7.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.sparse as sp

from .graph import Graph, Partition, decompose

_PASS_GAIN_TOL = 1e-7


@dataclass(frozen=True)
class ClusteringStats:
    cluster_count: int
    interior_fraction: float
    within_edge_fraction: float
    modularity: float


def modularity(g: Graph, p: Partition, resolution: float) -> float:
    """Resolution-scaled modularity Q = sum_c [e_c/m - gamma (d_c/2m)^2]."""
    if g.edge_count == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    return _LevelGraph.from_graph(g).modularity_of(p.cluster_of, resolution)


def stats(g: Graph, p: Partition, resolution: float) -> ClusteringStats:
    """Cluster count, interior fraction, within-cluster edge fraction, modularity."""
    edges = g.edge_array()
    within = p.cluster_of[edges[:, 0]] == p.cluster_of[edges[:, 1]]
    return ClusteringStats(
        cluster_count=p.cluster_count,
        interior_fraction=float(p.interior_mask.mean()),
        within_edge_fraction=float(within.mean()),
        modularity=modularity(g, p, resolution),
    )


class _LevelGraph:
    """Weighted working graph for one Louvain level; self-loops held separately.

    Every weight is a count of original edges, so sums of weights are exact
    in floating point whatever the order of additions and subtractions.
    """

    def __init__(self, indptr, indices, weights, self_w, total_weight):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_w = self_w
        self.total_weight = total_weight  # invariant across levels (= 2m)
        self.n = len(indptr) - 1
        self.row_len = np.diff(indptr)
        row = np.repeat(np.arange(self.n), self.row_len)
        # strength includes the self-loop weight once
        self.strength = np.bincount(row, weights=weights, minlength=self.n) + self_w

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        w = np.ones(len(g.indices))
        return cls(g.indptr, g.indices, w, np.zeros(g.node_count), 2.0 * g.edge_count)

    def modularity_of(self, comm: np.ndarray, resolution: float) -> float:
        comm_row = np.repeat(comm, self.row_len)  # comm of each entry's row
        same = comm_row == comm[self.indices]
        k = int(comm.max()) + 1
        intra = np.bincount(comm_row[same], weights=self.weights[same], minlength=k).astype(np.float64)
        intra += np.bincount(comm, weights=self.self_w, minlength=k)
        tot = np.bincount(comm, weights=self.strength, minlength=k)
        t = self.total_weight
        return float(np.sum(intra / t - resolution * (tot / t) ** 2))

    def aggregate(self, comm: np.ndarray) -> "_LevelGraph":
        k = int(comm.max()) + 1
        row = np.repeat(comm, self.row_len)
        col = comm[self.indices]
        coarse = sp.coo_matrix((self.weights, (row, col)), shape=(k, k)).tocsr()
        coarse.sum_duplicates()
        self_w = np.asarray(coarse.diagonal()).ravel()
        self_w += np.bincount(comm, weights=self.self_w, minlength=k)
        coarse.setdiag(0.0)
        coarse.eliminate_zeros()
        return _LevelGraph(
            coarse.indptr.astype(np.int64),
            coarse.indices.astype(np.int64),
            coarse.data,
            self_w,
            self.total_weight,
        )


def _one_level(
    level: _LevelGraph, resolution: float, rng: np.random.Generator, q_trace: list[float]
) -> np.ndarray:
    """Local-move phase; returns the community label per level node.

    The first pass counts each node's neighbour communities afresh. Later
    passes keep one link table per node (community -> summed edge weight,
    no zero entries) and update the neighbours' tables when a node moves.
    The weights are edge counts, so the tables hold exactly the sums a
    fresh count would give and every move is the same.
    """
    # plain lists: the sequential move loop is much faster off numpy scalars
    n = level.n
    comm = list(range(n))
    sigma_tot = level.strength.tolist()
    strength = level.strength.tolist()
    cuts = level.indptr[1:-1]
    # no self-loops at any level: Graph is simple and aggregate() drops the diagonal
    nbrs = [a.tolist() for a in np.split(level.indices, cuts)]
    if (level.weights == 1.0).all():
        wts = None  # integer counts equal the float sums of unit weights
    else:
        wts = [a.tolist() for a in np.split(level.weights, cuts)]
    gamma_over_t = resolution / level.total_weight

    def count_links(i: int) -> dict[int, float]:
        if wts is None:
            return Counter(map(comm.__getitem__, nbrs[i]))
        link: dict[int, float] = {}
        for j, w in zip(nbrs[i], wts[i]):
            c = comm[j]
            link[c] = link.get(c, 0.0) + w
        return link

    links: list[dict[int, float]] | None = None  # built after the first pass
    q_prev = level.modularity_of(np.asarray(comm), resolution)
    while True:
        for i in rng.permutation(n).tolist():
            a = comm[i]
            link = count_links(i) if links is None else links[i]
            ki = strength[i]
            sigma_tot[a] -= ki
            gk = gamma_over_t * ki  # gk * s rounds exactly as gamma_over_t * ki * s
            best_c = a
            best_gain = link.get(a, 0.0) - gk * sigma_tot[a]
            for c, w in link.items():
                if c != a:
                    gain = w - gk * sigma_tot[c]
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_c, best_gain = c, gain
            sigma_tot[best_c] += ki
            comm[i] = best_c
            if links is not None and best_c != a:
                for j, w in zip(nbrs[i], repeat(1) if wts is None else wts[i]):
                    lj = links[j]
                    left = lj[a] - w
                    if left:
                        lj[a] = left
                    else:
                        del lj[a]
                    lj[best_c] = lj.get(best_c, 0) + w
        q_now = level.modularity_of(np.asarray(comm), resolution)
        q_trace.append(q_now)
        if q_now - q_prev < _PASS_GAIN_TOL:
            break
        q_prev = q_now
        if links is None:
            links = [count_links(i) for i in range(n)]
    return np.asarray(comm)


def _dense_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Relabel to 0..K-1 in order of first appearance by node index."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse]


def louvain_with_history(
    g: Graph, resolution: float, seed: int
) -> tuple[Partition, list[float]]:
    """Louvain partition plus the modularity value after every local-move pass."""
    if g.node_count == 0 or g.edge_count == 0:
        raise ValueError("clustering needs a non-empty graph with edges")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    rng = np.random.default_rng(seed)
    level = _LevelGraph.from_graph(g)
    node_to_comm = np.arange(g.node_count)
    q_trace: list[float] = []
    while True:
        comm = _one_level(level, resolution, rng, q_trace)
        comm = _dense_first_appearance(comm)
        node_to_comm = comm[node_to_comm]
        k = int(comm.max()) + 1
        if k == level.n:
            break
        level = level.aggregate(comm)
    return decompose(g, _dense_first_appearance(node_to_comm)), q_trace


def louvain(g: Graph, resolution: float, seed: int) -> Partition:
    """Deterministic Louvain clustering of g at the given resolution and seed."""
    part, _ = louvain_with_history(g, resolution, seed)
    return part
