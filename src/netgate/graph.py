"""Undirected interference networks and their interior/boundary decomposition.

Graphs are simple (no self-loops, no parallel edges) and immutable once
built; node ids are dense integers 0..n-1 with the original file labels
kept in a relabeling map.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import IO, Callable, Iterable

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
    is their count.
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
        self._share_table: tuple[np.ndarray, np.ndarray] | None = None
        self._diag_p2: np.ndarray | None = None

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
        """0/1 adjacency matrix (cached)."""
        if self._adjacency is None:
            n = self.node_count
            data = np.ones(len(self.indices), dtype=np.float64)
            self._adjacency = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(n, n)
            )
        return self._adjacency

    def row_normalized(self) -> sp.csr_matrix:
        """Random-walk matrix P = D^-1 A, zero rows on isolated nodes (cached)."""
        if self._row_normalized is None:
            n = self.node_count
            inv_deg = np.zeros(n)
            nz = self.degrees > 0
            inv_deg[nz] = 1.0 / self.degrees[nz]
            data = np.repeat(inv_deg, self.degrees)
            self._row_normalized = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        return self._row_normalized

    def share_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, offset) with (P z)_i == table[offset[i] + k_i] bit for bit for
        any 0/1 vector z that treats k_i of node i's neighbors (cached, read-only).

        P z adds fl(1/d_i) once per treated neighbor, in index order, so the
        d_i + 1 entries from offset[i] are the sequential partial sums of
        fl(1/d_i), from 0 up to P 1 = table[offset + degrees]; nodes of one
        degree share them. The table holds at most nnz + n floats."""
        if self._share_table is None:
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
            self._share_table = table, offset
        return self._share_table

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
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    # one sort of the directed keys src*n + dst puts both halves in CSR order
    keys = np.sort(np.concatenate([u * node_count + v, v * node_count + u]))
    src, dst = np.divmod(keys, node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return Graph(indptr, dst, labels, dropped_self_loops, dropped_duplicates)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) by one sort; numpy's hash-based unique is several times slower here."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _dedupe_edges(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Drop self-loops and duplicate undirected edges over nodes 0..n-1, counting each."""
    loops = u == v
    n_loops = int(loops.sum())
    u, v = u[~loops], v[~loops]
    keys = _sorted_unique(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = np.divmod(keys, n)
    return lo, hi, n_loops, len(u) - len(keys)


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_MAX_DIGITS = 18  # any run of at most 18 decimal digits fits in int64
_MAX_NODES = math.isqrt(_INT64_MAX)  # edge keys lo*n + hi must fit in int64

# byte classes of an edge-list body the bulk parser accepts; every other byte is 0
_DIGIT, _SPACE, _NEWLINE = 1, 2, 3
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_BYTE_CLASS[[ord(" "), ord("\t"), ord("\r")]] = _SPACE
_BYTE_CLASS[ord("\n")] = _NEWLINE


def _read_source(source) -> tuple[bytes | None, Callable[[], Iterable[str]]]:
    """The whole source as bytes (None for a text stream that is not ASCII)
    and a function giving its lines, split at universal newlines ('\\n',
    '\\r\\n' or a lone '\\r') whatever the kind of source."""
    if isinstance(source, io.TextIOBase):
        text = source.read()
        return (text.encode("ascii") if text.isascii() else None), lambda: io.StringIO(text, newline=None)
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source if isinstance(source, bytes) else source.read()
    return data, lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _parse_lines(lines: Iterable[str], fmt: str) -> tuple[list[int], list[int], tuple | None]:
    """The line loop: endpoints of every edge line and the MatrixMarket size
    (nodes, entries, header line), or an EdgeListFormatError with the line number."""
    raw_u: list[int] = []
    raw_v: list[int] = []
    mm_size: tuple[int, int, int] | None = None  # (nodes, entries, header line)
    saw_banner = False
    first_data = True

    for line_no, line in enumerate(lines, start=1):
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
                if rows > _MAX_NODES:
                    raise EdgeListFormatError(f"{rows} nodes exceed the limit of {_MAX_NODES}", line_no)
                mm_size = (rows, nnz, line_no)
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
    """Endpoints u0, v0, u1, v1, ... of an edge-list body in one numpy parse, or
    None unless every line is blank or holds exactly two unsigned integers of at
    most 18 digits between spaces and tabs. Lines end at '\\n'; the caller has
    checked that every '\\r' comes right before one."""
    cls = _BYTE_CLASS[np.frombuffer(body, dtype=np.uint8)]
    if not cls.all():
        return None
    digit = np.zeros(len(cls) + 2, dtype=bool)
    np.equal(cls, _DIGIT, out=digit[1:-1])
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    if len(starts) % 2 or (len(starts) and (ends - starts).max() > _MAX_DIGITS):
        return None
    line = np.searchsorted(np.flatnonzero(cls == _NEWLINE), starts)
    if (line[0::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
        return None
    if not len(starts):
        return np.empty(0, dtype=np.int64)
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    return values if len(values) == len(starts) else None


def _bulk_parse(data: bytes | None, fmt: str) -> tuple[np.ndarray, np.ndarray, tuple | None] | None:
    """The line loop's result for the lines up to the first data line (the
    banner, leading comments and the size header or first edge) plus the rest
    of the file parsed in bulk; None when the bulk parse cannot vouch for
    every line."""
    if data is None or not data.isascii() or data.count(b"\r") != data.count(b"\r\n"):
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
    u = np.concatenate([np.asarray(raw_u, dtype=np.int64), body[0::2]])
    v = np.concatenate([np.asarray(raw_v, dtype=np.int64), body[1::2]])
    return u, v, mm_size


def load_edge_list(source: str | Path | bytes | IO, fmt: str = "auto") -> Graph:
    """Load an undirected graph from a plain edge list or MatrixMarket file.

    Plain format: whitespace-separated "u v" lines, '#' or '%' comments; any
    integer labels accepted and relabeled densely (sorted label order). A
    third column must be a number (a weight, ignored); any other token after
    the endpoints is an error. Lines end at universal newlines.
    MatrixMarket coordinate format: the size header fixes the node count
    (isolated nodes retained) and 1-based indices are shifted down.

    fmt: "auto" | "plain-edge-list" | "matrix-market". Auto sniffs the
    %%MatrixMarket banner, falling back to a size-header heuristic.

    Self-loops and duplicate edges are dropped; counts are kept on the Graph.

    A file whose lines after the header are all blank or "u v" pairs of
    unsigned integers is parsed in one numpy call; any other file goes
    through the line loop, which also names the line of a malformed entry.
    """
    if fmt not in ("auto", "plain-edge-list", "matrix-market"):
        raise ValueError(f"unknown format: {fmt!r}")

    data, lines = _read_source(source)
    parsed = _bulk_parse(data, fmt)
    if parsed is None:
        raw_u, raw_v, mm_size = _parse_lines(lines(), fmt)
        parsed = np.asarray(raw_u, dtype=np.int64), np.asarray(raw_v, dtype=np.int64), mm_size
    u, v, mm_size = parsed

    if mm_size is not None and len(u) != mm_size[1]:
        raise EdgeListFormatError(
            f"size header declares {mm_size[1]} entries, file has {len(u)}", mm_size[2]
        )
    if not len(u):
        raise EdgeListFormatError("empty graph: no edges found")

    if mm_size is not None:
        n = mm_size[0]
        u -= 1
        v -= 1
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            raise EdgeListFormatError("MatrixMarket entry outside declared size")
        labels = np.arange(1, n + 1, dtype=np.int64)
    else:
        labels = _sorted_unique(np.concatenate([u, v]))
        n = len(labels)
        u = np.searchsorted(labels, u)
        v = np.searchsorted(labels, v)

    u, v, n_loops, n_dups = _dedupe_edges(u, v, n)
    if len(u) == 0:
        raise EdgeListFormatError("empty graph: all edges were self-loops")
    return from_edges(u, v, n, labels, n_loops, n_dups)


class Partition:
    """Node-to-cluster assignment with the induced interior/boundary split.

    touch_counts[i] is the number of distinct clusters met by the closed
    neighborhood {i} union N(i,1); interior_mask[i] (touch count 1) is True
    iff every neighbor of i shares i's cluster. neighbor_counts is the sparse
    node-by-cluster matrix N whose entry (i, j) counts i's neighbors in
    cluster j (CSC, read-only), so N t counts each node's treated neighbors
    under cluster bits t.
    """

    def __init__(self, cluster_of: np.ndarray, touch_counts: np.ndarray, neighbor_counts: sp.csc_matrix):
        self.cluster_of = np.asarray(cluster_of, dtype=np.int64)
        self.touch_counts = np.asarray(touch_counts, dtype=np.int64)
        self.interior_mask = self.touch_counts == 1
        self.cluster_count = int(self.cluster_of.max()) + 1 if len(self.cluster_of) else 0
        self.neighbor_counts = neighbor_counts
        for arr in (self.cluster_of, self.interior_mask, self.touch_counts,
                    neighbor_counts.data, neighbor_counts.indices, neighbor_counts.indptr):
            arr.setflags(write=False)
        self._clean_probability: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def clean_probability(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """Design probabilities of clean exposure at treatment proportion p:
        (p^c, (1-p)^c) per node, read-only and computed once per p."""
        pair = self._clean_probability.get(p)
        if pair is None:
            if not 0.0 < p < 1.0:
                raise ValueError(f"treatment proportion must be in (0,1), got {p}")
            c = self.touch_counts.astype(np.float64)
            pair = (p**c, (1.0 - p) ** c)
            for arr in pair:
                arr.setflags(write=False)
            # threads racing on a new p all return the one pair kept here
            pair = self._clean_probability.setdefault(p, pair)
        return pair


def decompose(g: Graph, cluster_of: np.ndarray) -> Partition:
    """Build the Partition induced on g by a dense cluster assignment.

    cluster indices must be exactly 0..K-1 with every index used.
    """
    cluster_of = np.asarray(cluster_of, dtype=np.int64)
    n = g.node_count
    if cluster_of.shape != (n,):
        raise ValueError(f"cluster assignment must cover all {n} nodes")
    used = _sorted_unique(cluster_of)
    if used[0] != 0 or used[-1] != len(used) - 1:
        raise ValueError("cluster indices must be dense 0..K-1")

    # one sort of (cluster, node) keys over every neighbor plus each node itself:
    # a run of equal keys holds i's neighbors in cluster j, and i once more when
    # j is i's own cluster, and the runs of node i count its touched clusters
    k = len(used)
    nodes = np.arange(n)
    keys = np.sort(np.concatenate([
        cluster_of[g.indices] * n + np.repeat(nodes, g.degrees), cluster_of * n + nodes
    ]))
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    cluster, node = np.divmod(keys[starts], n)
    touch = np.bincount(node, minlength=n)
    counts = np.diff(starts, append=len(keys)) - (cluster == cluster_of[node])
    linked = counts > 0
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(cluster[linked], minlength=k), out=indptr[1:])
    neighbor_counts = sp.csc_matrix((counts[linked], node[linked], indptr), shape=(n, k))
    return Partition(cluster_of, touch, neighbor_counts)


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
