"""Undirected interference networks and their interior/boundary decomposition.

Graphs are simple (no self-loops, no parallel edges) and immutable once
built; node ids are dense integers 0..n-1 with the original file labels
kept in a relabeling map.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp


class EdgeListFormatError(ValueError):
    """Malformed network file; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class Graph:
    """Immutable undirected simple graph in CSR form.

    neighbors lists are sorted; degrees[i] == len(neighbors(i)).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        dropped_self_loops: int = 0,
        dropped_duplicates: int = 0,
    ):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.degrees = np.diff(self.indptr)
        self.labels = None if labels is None else np.asarray(labels)
        self.dropped_self_loops = int(dropped_self_loops)
        self.dropped_duplicates = int(dropped_duplicates)
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)
        self._adjacency: sp.csr_matrix | None = None
        self._row_normalized: sp.csr_matrix | None = None
        self._diag_p2: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (read-only view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v."""
        u = np.repeat(np.arange(self.node_count), self.degrees)
        v = self.indices
        keep = u < v
        return np.column_stack([u[keep], v[keep]])

    def adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency matrix (cached)."""
        if self._adjacency is None:
            n = self.node_count
            data = np.ones(len(self.indices), dtype=np.float64)
            self._adjacency = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(n, n)
            )
        return self._adjacency

    def row_normalized(self) -> sp.csr_matrix:
        """Random-walk matrix D^-1 A; rows of isolated nodes are zero (cached)."""
        if self._row_normalized is None:
            n = self.node_count
            inv_deg = np.zeros(n)
            nz = self.degrees > 0
            inv_deg[nz] = 1.0 / self.degrees[nz]
            data = np.repeat(inv_deg, self.degrees)
            self._row_normalized = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(n, n)
            )
        return self._row_normalized

    def diag_p_squared(self) -> np.ndarray:
        """diag((D^-1 A)^2): sum over neighbors j of 1/(deg_i deg_j) (cached)."""
        if self._diag_p2 is None:
            deg = self.degrees.astype(np.float64)
            row = np.repeat(np.arange(self.node_count), self.degrees)
            vals = np.zeros(len(self.indices))
            nz = deg[row] > 0  # indices rows are nonempty by construction
            vals[nz] = 1.0 / (deg[row[nz]] * deg[self.indices[nz]])
            self._diag_p2 = np.bincount(row, weights=vals, minlength=self.node_count)
            self._diag_p2.setflags(write=False)
        return self._diag_p2


def from_edges(
    u: np.ndarray,
    v: np.ndarray,
    node_count: int,
    labels: np.ndarray | None = None,
    dropped_self_loops: int = 0,
    dropped_duplicates: int = 0,
) -> Graph:
    """Build a Graph from parallel endpoint arrays already relabeled to 0..n-1.

    Self-loops and duplicates must have been removed by the caller.
    """
    if node_count <= 0:
        raise EdgeListFormatError("empty graph")
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return Graph(indptr, dst, labels, dropped_self_loops, dropped_duplicates)


def _dedupe_edges(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Drop self-loops and duplicate undirected edges, counting each."""
    loops = u == v
    n_loops = int(loops.sum())
    u, v = u[~loops], v[~loops]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pairs = np.unique(np.column_stack([lo, hi]), axis=0) if len(lo) else np.empty((0, 2), dtype=lo.dtype)
    n_dups = len(lo) - len(pairs)
    return pairs[:, 0], pairs[:, 1], n_loops, n_dups


def _read_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from io.TextIOWrapper(fh, encoding="utf-8")
        return
    if isinstance(source, bytes):
        yield from io.StringIO(source.decode("utf-8"))
        return
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    # binary stream
    yield from io.TextIOWrapper(source, encoding="utf-8")


def load_edge_list(source: str | Path | bytes | IO, fmt: str = "auto") -> Graph:
    """Load an undirected graph from a plain edge list or MatrixMarket file.

    Plain format: whitespace-separated "u v" lines, '#' or '%' comments; any
    integer labels accepted and relabeled densely (sorted label order).
    MatrixMarket coordinate format: the size header fixes the node count
    (isolated nodes retained) and 1-based indices are shifted down.

    fmt: "auto" | "plain-edge-list" | "matrix-market". Auto sniffs the
    %%MatrixMarket banner, falling back to a size-header heuristic.

    Self-loops and duplicate edges are dropped; counts are kept on the Graph.
    """
    if fmt not in ("auto", "plain-edge-list", "matrix-market"):
        raise ValueError(f"unknown format: {fmt!r}")

    raw_u: list[int] = []
    raw_v: list[int] = []
    mm_size: tuple[int, int, int] | None = None  # (nodes, entries, header line)
    saw_banner = False
    first_data = True

    for line_no, line in enumerate(_read_lines(source), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if line_no == 1 and stripped.lower().startswith("%%matrixmarket"):
                saw_banner = True
                lowered = stripped.lower()
                if "coordinate" not in lowered:
                    raise EdgeListFormatError(
                        "only MatrixMarket coordinate format is supported", line_no
                    )
            continue
        if stripped.startswith("#"):
            continue
        parts = stripped.split()
        if first_data:
            first_data = False
            is_mm = fmt == "matrix-market" or saw_banner
            if fmt == "auto" and not saw_banner and len(parts) == 3:
                # headerless networkrepository .mtx: "rows cols nnz" size line
                is_mm = all(p.isdigit() for p in parts)
            if is_mm:
                if len(parts) != 3:
                    raise EdgeListFormatError(
                        f"expected MatrixMarket size header 'rows cols nnz', got {stripped!r}",
                        line_no,
                    )
                try:
                    rows, cols, nnz = (int(p) for p in parts)
                except ValueError:
                    raise EdgeListFormatError(
                        f"non-integer MatrixMarket size header {stripped!r}", line_no
                    ) from None
                if rows != cols:
                    raise EdgeListFormatError(
                        f"adjacency must be square, got {rows}x{cols}", line_no
                    )
                mm_size = (rows, nnz, line_no)
                continue
        if len(parts) < 2:
            raise EdgeListFormatError(f"expected 'u v', got {stripped!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"non-integer endpoints in {stripped!r}", line_no) from None
        raw_u.append(a)
        raw_v.append(b)

    if mm_size is not None and len(raw_u) != mm_size[1]:
        raise EdgeListFormatError(
            f"size header declares {mm_size[1]} entries, file has {len(raw_u)}", mm_size[2]
        )
    if not raw_u:
        raise EdgeListFormatError("empty graph: no edges found")

    u = np.asarray(raw_u, dtype=np.int64)
    v = np.asarray(raw_v, dtype=np.int64)

    if mm_size is not None:
        n = mm_size[0]
        u -= 1
        v -= 1
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            raise EdgeListFormatError("MatrixMarket entry outside declared size")
        labels = np.arange(1, n + 1, dtype=np.int64)
    else:
        labels = np.unique(np.concatenate([u, v]))
        n = len(labels)
        u = np.searchsorted(labels, u)
        v = np.searchsorted(labels, v)

    u, v, n_loops, n_dups = _dedupe_edges(u, v)
    if len(u) == 0:
        raise EdgeListFormatError("empty graph: all edges were self-loops")
    return from_edges(u, v, n, labels, n_loops, n_dups)


def write_edge_list(g: Graph, sink: str | Path | IO) -> None:
    """Write g as a plain edge list over internal ids (one 'u v' line per edge)."""
    edges = g.edge_array()
    text = "".join(f"{a} {b}\n" for a, b in edges)
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


class Partition:
    """Node-to-cluster assignment with the induced interior/boundary split.

    interior_mask[i] is True iff every neighbor of i shares i's cluster;
    touch_counts[i] is the number of distinct clusters met by the closed
    neighborhood {i} union N(i,1), so touch_counts == 1 exactly on interiors.
    """

    def __init__(self, cluster_of: np.ndarray, interior_mask: np.ndarray, touch_counts: np.ndarray):
        self.cluster_of = np.asarray(cluster_of, dtype=np.int64)
        self.interior_mask = np.asarray(interior_mask, dtype=bool)
        self.touch_counts = np.asarray(touch_counts, dtype=np.int64)
        self.cluster_count = int(self.cluster_of.max()) + 1 if len(self.cluster_of) else 0
        for arr in (self.cluster_of, self.interior_mask, self.touch_counts):
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.cluster_of)

    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.interior_mask)


def decompose(g: Graph, cluster_of: np.ndarray) -> Partition:
    """Build the Partition induced on g by a dense cluster assignment.

    cluster indices must be exactly 0..K-1 with every index used.
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    n = g.node_count
    if cluster_of.shape != (n,):
        raise ValueError(f"cluster assignment must cover all {n} nodes")
    used = np.unique(cluster_of)
    if used[0] != 0 or used[-1] != len(used) - 1:
        raise ValueError("cluster indices must be dense 0..K-1")

    row = np.repeat(np.arange(n), g.degrees)
    neighbor_cluster = cluster_of[g.indices]
    mismatch = neighbor_cluster != cluster_of[row]
    boundary = np.bincount(row[mismatch], minlength=n) > 0
    interior = ~boundary

    # distinct clusters over closed neighborhoods via unique (node, cluster) keys
    k = len(used)
    keys = np.concatenate([row * k + neighbor_cluster, np.arange(n) * k + cluster_of])
    touch = np.bincount(np.unique(keys) // k, minlength=n)
    return Partition(cluster_of, interior, touch)


def write_partition(p: Partition, sink: str | Path | IO) -> None:
    """Write "node_id cluster_id" lines."""
    text = "".join(f"{i} {c}\n" for i, c in enumerate(p.cluster_of))
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


def read_partition(g: Graph, source: str | Path | IO) -> Partition:
    """Read a "node_id cluster_id" file and decompose it against g."""
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source.read().splitlines()
    cluster_of = np.zeros(g.node_count, dtype=np.int64)
    seen = np.zeros(g.node_count, dtype=bool)
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"expected 'node cluster', got {stripped!r}", line_no)
        try:
            node, cluster = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"non-integer entry in {stripped!r}", line_no) from None
        if not 0 <= node < g.node_count:
            raise EdgeListFormatError(f"node {node} out of range", line_no)
        if seen[node]:
            raise EdgeListFormatError(f"node {node} listed twice", line_no)
        cluster_of[node] = cluster
        seen[node] = True
    if not seen.all():
        raise ValueError("partition file does not cover every node")
    return decompose(g, cluster_of)
