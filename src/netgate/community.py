"""Louvain clustering with a resolution parameter, plus partition statistics.

The implementation is deliberately deterministic: node visit order is a
seeded shuffle, modularity-gain ties break toward the lowest community
index, and a local-move phase ends once a full pass gains < 1e-7.
"""

from __future__ import annotations

from collections import _count_elements  # Counter's C counting loop
from dataclasses import astuple, dataclass
from itertools import repeat

import numpy as np

from .graph import Graph, Partition, decompose, index_dtype, key_csr

_PASS_GAIN_TOL = 1e-7


@dataclass(frozen=True)
class ClusteringStats:
    cluster_count: int
    interior_fraction: float
    within_edge_fraction: float
    modularity: float

    def fields(self) -> list[tuple[str, str]]:
        """(name, value) per statistic as the reports print them, to 12 significant digits."""
        names = ("clusters", "interior_fraction", "within_edge_fraction", "modularity")
        return [(name, f"{value:.12g}") for name, value in zip(names, astuple(self))]

    def text(self) -> str:
        """clustering_stats.txt: one `name value` line per statistic."""
        return "".join(f"{name} {value}\n" for name, value in self.fields())


def _cluster_degrees(p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(intra, tot) per cluster c off the neighbor counts N: intra_c sums column c
    over c's nodes (twice c's edges), tot_c sums c's degrees. Both are the exact
    integer-valued floats of a pass over every edge, and of the sums Louvain keeps
    while it moves."""
    if p.graph.edge_count == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    n = p.neighbor_counts
    column = np.repeat(np.arange(p.cluster_count), np.diff(n.indptr))
    own = p.cluster_of[n.indices] == column
    intra = np.bincount(column[own], weights=n.data[own], minlength=p.cluster_count)
    return intra, np.bincount(p.cluster_of, weights=p.graph.degrees, minlength=p.cluster_count)


def _modularity(intra: np.ndarray, tot: np.ndarray, t: float, resolution: float) -> float:
    """Resolution-scaled modularity Q = sum_c [e_c/m - gamma (d_c/2m)^2] from (intra, tot) and t = 2m."""
    return float(np.sum(intra / t - resolution * (tot / t) ** 2))


def stats(p: Partition, resolution: float) -> ClusteringStats:
    """Cluster count, interior and within-cluster edge fractions, modularity on p's graph; no edge pass."""
    intra, tot = _cluster_degrees(p)
    return ClusteringStats(
        cluster_count=p.cluster_count,
        interior_fraction=float(p.interior_mask.mean()),
        within_edge_fraction=float(intra.sum() / 2 / p.graph.edge_count),
        modularity=_modularity(intra, tot, 2.0 * p.graph.edge_count, resolution),
    )


class _LevelGraph:
    """Weighted working graph for one Louvain level; self-loops held separately.

    Every weight is a count of original edges, so sums of weights are exact
    in floating point whatever the order of additions and subtractions.
    weights is None when every weight is 1, as at level 0.
    """

    def __init__(self, indptr, indices, weights, self_w, total_weight):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.self_w = self_w
        self.total_weight = total_weight  # invariant across levels (= 2m)
        self.n = len(indptr) - 1
        self.row_len = np.diff(indptr)
        row_w = self.row_len  # each row's weight sum
        if weights is not None:
            row_w = np.bincount(np.repeat(np.arange(self.n), self.row_len), weights=weights, minlength=self.n)
        self.strength = row_w + self_w  # the self-loop weight counts once

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        return cls(g.indptr, g.indices, None, np.zeros(g.node_count), 2.0 * g.edge_count)

    def aggregate(self, comm: np.ndarray) -> "_LevelGraph":
        """The level whose nodes are the communities comm labels 0..k-1: an entry
        per linked pair, weighing the entries between them, and a self-loop per
        community, weighing the entries and self-loops within it."""
        k = int(comm.max()) + 1
        # one key comm[row]*k + comm[col] per entry: each run of equal keys is one
        # coarse entry, in CSR order, and the entries on the diagonal are self-loops
        comm = comm.astype(index_dtype(k * k))
        keys = np.repeat(comm * k, self.row_len)
        keys += comm[self.indices]
        if self.weights is not None:  # sorted with their keys; key_csr's sort then keeps the order
            order = np.argsort(keys, kind="stable")
            keys, weights = keys[order], self.weights[order]
        indptr, cols, first = key_csr(keys, k, k)
        starts = np.flatnonzero(first)
        if self.weights is None:
            weights = np.diff(starts, append=len(first)).astype(np.float64)
        else:
            weights = np.add.reduceat(weights, starts)
        loop = cols == np.repeat(np.arange(k), np.diff(indptr))
        self_w = np.bincount(comm, weights=self.self_w, minlength=k)
        self_w[cols[loop]] += weights[loop]
        indptr[1:] -= np.cumsum(np.bincount(cols[loop], minlength=k))
        return _LevelGraph(indptr, cols[~loop], weights[~loop], self_w, self.total_weight)


def _one_level(
    level: _LevelGraph, resolution: float, rng: np.random.Generator, q_trace: list[float]
) -> np.ndarray:
    """Local-move phase; returns the community label per level node.

    The neighbour lists share one Python int per node id instead of holding
    one per CSR entry. The first pass counts each node's neighbour
    communities afresh into a plain dict. Later passes keep one such link
    table per node (community -> summed edge weight, no zero entries) and
    update the neighbours' tables when a node moves. Each pass's modularity
    comes from running per-community sums, `intra` (twice the internal
    weight) and `sigma_tot`, updated on every move. The weights are edge
    counts, so the tables and sums hold exactly what a fresh count or an
    edge pass would give, and every move and every trace value is the same.
    """
    # plain lists: the sequential move loop is much faster off numpy scalars
    n = level.n
    comm = list(range(n))
    sigma_tot = level.strength.tolist()
    strength = level.strength.tolist()
    self_w = level.self_w.tolist()
    intra = list(self_w)
    ptr = level.indptr.tolist()
    # no self-loops at any level: Graph is simple and aggregate() keeps them apart;
    # one row's gather at a time, so no gathered copy of every entry is made
    ids = np.array(comm, dtype=object)
    nbrs = [ids[level.indices[s:e]].tolist() for s, e in zip(ptr, ptr[1:])]
    if level.weights is None:
        wts = None  # integer counts equal the float sums of unit weights
    else:
        wts = [level.weights[s:e].tolist() for s, e in zip(ptr, ptr[1:])]
    gamma_over_t = resolution / level.total_weight

    def count_links(i: int) -> dict[int, float]:
        link: dict[int, float] = {}
        if wts is None:
            _count_elements(link, map(comm.__getitem__, nbrs[i]))
            return link
        for j, w in zip(nbrs[i], wts[i]):
            c = comm[j]
            link[c] = link.get(c, 0.0) + w
        return link

    def q_of_comm() -> float:
        k = max(comm) + 1
        return _modularity(np.array(intra[:k]), np.array(sigma_tot[:k]), level.total_weight, resolution)

    links: list[dict[int, float]] | None = None  # built after the first pass
    q_prev = q_of_comm()
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
            if best_c == a:
                continue
            comm[i] = best_c
            intra[a] -= 2 * link.get(a, 0) + self_w[i]
            intra[best_c] += 2 * link[best_c] + self_w[i]
            if links is not None:
                for j, w in zip(nbrs[i], repeat(1) if wts is None else wts[i]):
                    lj = links[j]
                    left = lj[a] - w
                    if left:
                        lj[a] = left
                    else:
                        del lj[a]
                    lj[best_c] = lj.get(best_c, 0) + w
        q_now = q_of_comm()
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
    if not 0 < resolution < np.inf:  # a NaN q would never meet the pass-stop test
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
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
    record = {"method": "louvain", "gamma": float(resolution), "seed": int(seed)}
    return decompose(g, _dense_first_appearance(node_to_comm), record), q_trace


def louvain(g: Graph, resolution: float, seed: int) -> Partition:
    """Deterministic Louvain clustering of g at the given resolution and seed."""
    part, _ = louvain_with_history(g, resolution, seed)
    return part
