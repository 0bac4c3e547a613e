"""Undirected interference networks and their interior/boundary decomposition.

Graphs are simple (no self-loops, no parallel edges) and immutable once
built; node ids are dense integers 0..n-1 with the original file labels
kept in a relabeling map.
"""

from __future__ import annotations

import io
import math
import warnings
from functools import cached_property
from pathlib import Path
from typing import Iterable, Literal, get_args

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

    Node i's neighbors are indices[indptr[i]:indptr[i + 1]], sorted; degrees[i]
    is their count. All three are int32 while n and nnz fit it, so scipy's operators share them.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        dropped_self_loops: int = 0,
        dropped_duplicates: int = 0,
    ):
        index = index_dtype(max(len(indptr), len(indices)))
        self.indptr = np.asarray(indptr, dtype=index)
        self.indices = np.asarray(indices, dtype=index)
        self.degrees = np.diff(self.indptr)
        self.labels = None if labels is None else np.asarray(labels)
        self.dropped_self_loops = int(dropped_self_loops)
        self.dropped_duplicates = int(dropped_duplicates)
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v."""
        u = np.repeat(np.arange(self.node_count), self.degrees)
        v = self.indices
        keep = u < v
        return np.column_stack([u[keep], v[keep]])

    def adjacency(self) -> sp.csr_matrix:
        """0/1 adjacency matrix."""
        n = self.node_count
        return sp.csr_matrix((np.ones(len(self.indices)), self.indices, self.indptr), shape=(n, n))

    @cached_property
    def row_normalized(self) -> sp.csr_matrix:
        """Random-walk matrix P = D^-1 A, zero rows on isolated nodes."""
        n = self.node_count
        data = np.repeat(1.0 / np.maximum(self.degrees, 1), self.degrees)  # isolated nodes repeat 0 times
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    @cached_property
    def share_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, offset) with (P z)_i == table[offset[i] + k_i] bit for bit for
        any 0/1 vector z that treats k_i of node i's neighbors (read-only).

        P z adds fl(1/d_i) once per treated neighbor, in index order, so the
        d_i + 1 entries from offset[i] are the sequential partial sums of
        fl(1/d_i), from 0 up to P 1 (p_ones); nodes of one degree share
        them. The table holds at most nnz + n floats."""
        degrees = _sorted_unique(self.degrees)
        starts = np.zeros(len(degrees), dtype=np.int64)
        np.cumsum(degrees[:-1] + 1, out=starts[1:])
        table = np.zeros(int(starts[-1] + degrees[-1]) + 1)
        for d, start in zip(degrees.tolist(), starts.tolist()):
            if d:
                np.cumsum(np.full(d, 1.0 / d), out=table[start + 1 : start + d + 1])
        offset = starts[np.searchsorted(degrees, self.degrees)]
        for arr in (table, offset):
            arr.setflags(write=False)
        return table, offset

    @cached_property
    def p_ones(self) -> np.ndarray:
        """P 1 in every bit: each node's last share-table sum (read-only)."""
        table, offset = self.share_table
        ones = table[offset + self.degrees]
        ones.setflags(write=False)
        return ones

    @cached_property
    def diag_p_squared(self) -> np.ndarray:
        """diag((D^-1 A)^2): sum over neighbors j of 1/(deg_i deg_j), from 0.0 in
        index order (read-only)."""
        deg, diag = self.degrees.astype(np.float64), np.empty(self.node_count)
        for r in range(0, len(diag), 1024):  # a block of rows at a time: no temporary of nnz entries
            rows = slice(r, min(r + 1024, len(diag)))
            row = np.repeat(np.arange(rows.stop - r), self.degrees[rows])
            col = self.indices[self.indptr[r] : self.indptr[rows.stop]]
            diag[rows] = np.bincount(row, weights=1.0 / (deg[rows][row] * deg[col]), minlength=rows.stop - r)
        diag.setflags(write=False)
        return diag


def from_edges(
    u: np.ndarray, v: np.ndarray, node_count: int, labels: np.ndarray | None = None, general: bool = False
) -> Graph:
    """Build a simple Graph from parallel endpoint arrays already relabeled to 0..n-1 (any other
    endpoint is an EdgeListFormatError). Self-loops and edges repeated in either direction are dropped,
    and the Graph counts both; with general=True (the entries of a MatrixMarket general file, which
    lists each edge's mirror entry too) a duplicate is an entry repeated as it is, and an entry
    without its mirror, a directed edge, is an EdgeListFormatError."""
    if node_count <= 0:
        raise EdgeListFormatError("empty graph")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    outside = sum(np.count_nonzero(a.view(np.uint64) >= node_count) for a in (u, v))  # negatives wrap high
    if outside:
        raise EdgeListFormatError(f"entry outside declared size: {outside} endpoints not among the {node_count} nodes")
    kept = u != v
    m = int(kept.sum())
    # one array of the directed keys src*n + dst, forward half then reverse half;
    # key_csr's in-place sort puts both halves in CSR order, and an edge repeated
    # in either direction repeats both of its keys
    keys = np.empty(2 * m, dtype=index_dtype(node_count * node_count))
    np.multiply(u[kept], node_count, out=keys[:m])
    keys[:m] += v[kept]
    np.multiply(v[kept], node_count, out=keys[m:])
    keys[m:] += u[kept]
    entries = len(_sorted_unique(keys[:m])) if general else 0  # counted before the sort mixes the halves
    indptr, indices, _ = key_csr(keys, node_count, node_count)
    if general and entries != len(indices):  # the keys also hold the mirror of every entry
        raise EdgeListFormatError(f"MatrixMarket general file: no mirror entry for {len(indices) - entries} of "
                                  "its distinct entries (list each edge in both directions)")
    distinct = entries if general else len(indices) // 2
    return Graph(indptr, indices, labels, len(u) - m, m - distinct)


def index_dtype(largest: int) -> type:
    """int32 for indices up to `largest` if it fits, else int64; keys row*width + col take rows*width."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def key_csr(keys: np.ndarray, rows: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of keys row*width + col (col < width) of `index_dtype(rows*width)`, sorted here in place:
    indptr, the col of each run of equal keys (one entry a run) and the mask of each run's first key."""
    keys.sort()
    first = run_starts(keys)
    cols = keys[first]
    indptr = np.searchsorted(cols, np.arange(rows + 1, dtype=keys.dtype) * width)  # row r's keys start at r*width
    cols %= width
    return indptr, cols, first


def run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a sorted array."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by one sort; numpy's hash-based unique is several times slower here."""
    a = np.sort(a)
    return a[run_starts(a)]


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_MAX_NODES = math.isqrt(_INT64_MAX)  # edge keys src*n + dst must fit in int64
EdgeFormat = Literal["auto", "plain-edge-list", "matrix-market"]  # the fmt values load_edge_list reads


def _parse_lines(lines: Iterable[str], fmt: str) -> tuple[list[int], list[int], tuple | None]:
    """The line loop: endpoints of every edge line and the MatrixMarket size
    (nodes, entries, header line, whether the banner says general), or an
    EdgeListFormatError with the line number."""
    raw_u: list[int] = []
    raw_v: list[int] = []
    mm_size: tuple[int, int, int, bool] | None = None  # (nodes, entries, header line, general)
    saw_banner = general = False
    first_data = True

    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if line_no == 1 and stripped.lower().startswith("%%matrixmarket"):
                saw_banner = True
                general = stripped.lower().split()[-1] == "general"
                if "coordinate" not in stripped.lower():
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
                if rows > _MAX_NODES:
                    raise EdgeListFormatError(f"{rows} nodes exceed the limit of {_MAX_NODES}", line_no)
                mm_size = (rows, nnz, line_no, general)
                continue
        if not 2 <= len(parts) <= 3:
            raise EdgeListFormatError(f"expected 'u v' or 'u v weight', got {stripped!r}", line_no)
        if len(parts) == 3:
            try:
                float(parts[2])
            except ValueError:
                raise EdgeListFormatError(f"non-numeric weight in {stripped!r}", line_no) from None
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"non-integer endpoints in {stripped!r}", line_no) from None
        if not (_INT64_MIN <= a <= _INT64_MAX and _INT64_MIN <= b <= _INT64_MAX):
            raise EdgeListFormatError(f"endpoint outside the 64-bit integer range in {stripped!r}", line_no)
        raw_u.append(a)
        raw_v.append(b)
    return raw_u, raw_v, mm_size


def _bulk_body(body: bytes) -> np.ndarray | None:
    """The (k, 2) endpoints of an edge-list body in one np.loadtxt call, or None
    unless every line is blank or holds exactly two 64-bit integers between
    whitespace. Any warning refuses too, so numpy 1.x cannot read 1.0 as 1.
    The caller has checked that every '\\r' comes right before a '\\n'."""
    if not body.strip():  # loadtxt warns on an empty body
        return np.empty((0, 2), dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pairs = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, Warning):
            return None
    return pairs if pairs.shape[1] == 2 else None


def _bulk_parse(data: bytes, fmt: str) -> tuple[np.ndarray, np.ndarray, tuple | None] | None:
    """The line loop's result for the lines up to the first data line (the
    banner, leading comments and the size header or first edge) plus the rest
    of the file parsed in bulk; None when the bulk parse cannot vouch for
    every line."""
    if not data.isascii() or data.count(b"\r") != data.count(b"\r\n"):
        return None
    head: list[str] = []
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        head.append(data[pos:end].decode("ascii"))
        pos = end
        stripped = head[-1].strip()
        if stripped and stripped[0] not in "%#":
            break
    raw_u, raw_v, mm_size = _parse_lines(head, fmt)
    body = _bulk_body(data[pos:])
    if body is None:
        return None
    u = np.concatenate([np.asarray(raw_u, dtype=np.int64), body[:, 0]])
    v = np.concatenate([np.asarray(raw_v, dtype=np.int64), body[:, 1]])
    return u, v, mm_size


def load_edge_list(path: str | Path, fmt: EdgeFormat = "auto") -> Graph:
    """Load an undirected graph from a plain edge list or MatrixMarket file.

    Plain format: whitespace-separated "u v" lines, '#' or '%' comments; any
    integer labels accepted and relabeled densely (sorted label order). A
    third column must be a number (a weight, ignored); any other token after
    the endpoints is an error. Lines end at universal newlines.
    MatrixMarket coordinate format: the size header fixes the node count
    (isolated nodes retained) and 1-based indices are shifted down.

    fmt: "auto" | "plain-edge-list" | "matrix-market". Auto sniffs the
    %%MatrixMarket banner, falling back to a size-header heuristic.

    Self-loops and duplicate edges are dropped (in a MatrixMarket general
    file, which lists each edge's mirror entry, a duplicate is an entry
    repeated as it is); counts are kept on the Graph.

    A file whose lines after the header are all blank or "u v" pairs of
    64-bit integers is parsed by np.loadtxt; any other file goes through
    the line loop, which also names the line of a malformed entry.
    """
    if fmt not in get_args(EdgeFormat):
        raise ValueError(f"unknown format: {fmt!r}")

    data = Path(path).read_bytes()
    parsed = _bulk_parse(data, fmt)
    if parsed is None:
        # universal newlines; no name keeps the wrapper, so the del below frees the bytes
        raw_u, raw_v, mm_size = _parse_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), fmt)
        parsed = np.asarray(raw_u, dtype=np.int64), np.asarray(raw_v, dtype=np.int64), mm_size
        del raw_u, raw_v
    u, v, mm_size = parsed
    del data, parsed  # so that the relabeled endpoints replace the parsed ones

    if mm_size is not None and len(u) != mm_size[1]:
        raise EdgeListFormatError(
            f"size header declares {mm_size[1]} entries, file has {len(u)}", mm_size[2]
        )
    if not len(u):
        raise EdgeListFormatError("empty graph: no edges found")

    if mm_size is not None:
        n = mm_size[0]
        u -= 1  # from_edges refuses an entry outside the declared size
        v -= 1
        labels = np.arange(1, n + 1, dtype=np.int64)
    else:
        labels = _sorted_unique(np.concatenate([u, v]))
        n = len(labels)
        u = np.searchsorted(labels, u)
        v = np.searchsorted(labels, v)

    g = from_edges(u, v, n, labels, general=mm_size is not None and mm_size[3])
    if g.edge_count == 0:
        raise EdgeListFormatError("empty graph: all edges were self-loops")
    return g


class Partition:
    """Node-to-cluster assignment with the induced interior/boundary split.

    touch_counts[i] is the number of distinct clusters met by the closed neighborhood
    {i} union N(i,1); interior_mask[i] (touch count 1) is True iff every neighbor of
    i shares i's cluster, and interior_nodes lists those nodes in increasing order
    (read-only). neighbor_counts is the sparse node-by-cluster matrix N whose entry
    (i, j) counts i's neighbors in cluster j (CSC, int32, read-only), so N t counts each
    node's treated neighbors under cluster bits t. graph is the Graph it was
    decomposed on, and clustering records the method that made it (None: by hand).
    """

    def __init__(self, cluster_of: np.ndarray, touch_counts: np.ndarray, neighbor_counts: sp.csc_matrix, graph: Graph,
                 clustering: dict | None = None):
        self.graph = graph
        self.clustering = clustering
        self.cluster_of = np.asarray(cluster_of, dtype=np.int64)
        self.touch_counts = np.asarray(touch_counts, dtype=np.int64)
        self.interior_mask = self.touch_counts == 1
        self.interior_nodes = np.flatnonzero(self.interior_mask)
        self.cluster_count = int(self.cluster_of.max()) + 1 if len(self.cluster_of) else 0
        self.neighbor_counts = neighbor_counts
        for arr in (self.cluster_of, self.interior_mask, self.interior_nodes, self.touch_counts,
                    neighbor_counts.data, neighbor_counts.indices, neighbor_counts.indptr):
            arr.setflags(write=False)
        self._inverses: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def inverse_clean_probability(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(1/p^c, 1/(1-p)^c) per node, read-only and computed once per p; inf, without
        a RuntimeWarning, where p^c or (1-p)^c underflowed to 0 or 1/q overflows."""
        inverses = self._inverses.get(p)
        if inverses is None:
            if not 0.0 < p < 1.0:
                raise ValueError(f"treatment proportion must be in (0,1), got {p}")
            c = self.touch_counts.astype(np.float64)
            with np.errstate(divide="ignore", over="ignore"):
                inverses = 1.0 / p**c, 1.0 / (1.0 - p) ** c
            for arr in inverses:
                arr.setflags(write=False)
            self._inverses[p] = inverses
        return inverses


def decompose(g: Graph, cluster_of: np.ndarray, clustering: dict | None = None) -> Partition:
    """Build the Partition induced on g by a dense cluster assignment and its clustering record.

    cluster indices must be exactly 0..K-1 with every index used.
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    n = g.node_count
    if cluster_of.shape != (n,):
        raise ValueError(f"cluster assignment must cover all {n} nodes")
    used = _sorted_unique(cluster_of)
    if used[0] != 0 or used[-1] != len(used) - 1:
        raise ValueError("cluster indices must be dense 0..K-1")

    # one (cluster, node) key cluster_of[j]*n + i per neighbor j of node i: a run
    # of equal keys holds i's neighbors in cluster j, one entry of N's column j,
    # and node i touches its own cluster and the others its runs name
    k = len(used)
    index = index_dtype(k * n)
    keys = (cluster_of * n).astype(index)[g.indices]
    keys += np.repeat(np.arange(n, dtype=index), g.degrees)
    indptr, node, first = key_csr(keys, k, n)
    other = np.repeat(np.arange(k), np.diff(indptr)) != cluster_of[node]
    touch = 1 + np.bincount(node[other], minlength=n)
    # 4-byte counts (each at most a degree) make N T a 4-byte product
    counts = np.diff(np.flatnonzero(first), append=len(first)).astype(np.int32)
    neighbor_counts = sp.csc_matrix((counts, node, indptr), shape=(n, k))
    return Partition(cluster_of, touch, neighbor_counts, g, clustering)


def write_partition(p: Partition, path: str | Path) -> None:
    """Write "node_id cluster_id" lines."""
    text = "".join(f"{i} {c}\n" for i, c in enumerate(p.cluster_of))
    Path(path).write_text(text, encoding="utf-8")


def read_partition(g: Graph, path: str | Path) -> Partition:
    """Read a "node_id cluster_id" file and decompose it against g. Lines end
    at universal newlines, as in `load_edge_list`: text mode reads each as a line feed."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    n = g.node_count
    cluster_of = np.zeros(n, dtype=np.int64)
    line_of = np.zeros(n, dtype=np.int64)  # 0 until the node is listed
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
        if not 0 <= node < n:
            raise EdgeListFormatError(f"node {node} out of range", line_no)
        if not 0 <= cluster < n:
            raise EdgeListFormatError(f"cluster {cluster} out of range 0..{n - 1}", line_no)
        if line_of[node]:
            raise EdgeListFormatError(f"node {node} listed twice", line_no)
        cluster_of[node] = cluster
        line_of[node] = line_no
    if not line_of.all():
        raise ValueError("partition file does not cover every node")
    if not np.bincount(cluster_of).all():  # a gap below the largest id: name a line that lists it
        top = cluster_of.argmax()
        raise EdgeListFormatError(f"cluster ids must be dense 0..K-1, got {cluster_of[top]}", int(line_of[top]))
    return decompose(g, cluster_of, {"method": "file", "path": str(path)})
