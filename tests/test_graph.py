import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate import graph
from netgate.graph import (
    EdgeListFormatError,
    decompose,
    from_edges,
    load_edge_list,
    read_partition,
    write_partition,
)

from conftest import neighbors, path_graph, write_edge_list


def test_load_path_graph():
    g = load_edge_list(b"0 1\n1 2\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_drops_duplicates_and_self_loops():
    g = load_edge_list(b"0 1\n0 1\n0 0\n")
    assert g.edge_count == 1
    assert g.dropped_duplicates == 1
    assert g.dropped_self_loops == 1


def test_load_reverse_duplicate_collapses():
    g = load_edge_list(b"0 1\n1 0\n")
    assert g.edge_count == 1
    assert g.dropped_duplicates == 1


def test_load_one_based_labels_relabel_densely():
    g = load_edge_list(b"1 2\n2 3\n")
    assert g.node_count == 3
    assert g.labels.tolist() == [1, 2, 3]
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_sparse_labels_relabel_densely():
    g = load_edge_list(b"10 50\n50 200\n")
    assert g.node_count == 3
    assert g.labels.tolist() == [10, 50, 200]


def test_load_comments_and_blank_lines():
    g = load_edge_list(b"# a comment\n% another\n\n0 1\n")
    assert g.node_count == 2


def test_load_matrix_market_banner_keeps_isolated_nodes():
    text = b"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 2\n1 2\n2 3\n"
    g = load_edge_list(text)
    assert g.node_count == 4
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1, 0]


def test_load_matrix_market_headerless_size_line():
    # networkrepository .mtx files sometimes ship without the banner
    g = load_edge_list(b"5 5 3\n1 2\n2 3\n4 5\n")
    assert g.node_count == 5
    assert g.edge_count == 3


def test_load_explicit_plain_format_ignores_trailing_weight_column():
    # "u v w" lines occur in weighted exports; the size-line heuristic must
    # not kick in when the format is forced to plain
    g = load_edge_list(b"0 1 7\n1 2 3\n", fmt="plain-edge-list")
    assert g.node_count == 3
    assert g.edge_count == 2


@pytest.mark.parametrize("line", ["3 4 x", "3 4 5 6", "3 4 # note"])
def test_load_rejects_extra_column_that_is_not_a_weight(line):
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(f"0 1\n1 2 7\n{line}\n".encode(), fmt="plain-edge-list")
    assert err.value.line_number == 3


def test_load_lone_carriage_return_ends_a_line_in_every_source(tmp_path):
    text = b"1 2\r3 4\n"
    path = tmp_path / "g.edges"
    path.write_bytes(text)
    for source in (text, path, io.BytesIO(text), io.StringIO(text.decode(), newline="")):
        assert load_edge_list(source).edge_count == 2


def test_load_matrix_market_entry_count_must_match_header():
    text = b"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n1 2\n"
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(text)
    assert err.value.line_number == 2
    with pytest.raises(EdgeListFormatError):
        load_edge_list(b"5 5 2\n1 2\n2 3\n4 5\n")


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(b"0 1\nnot an edge\n")
    assert err.value.line_number == 2


def test_load_empty_graph_is_an_error():
    with pytest.raises(EdgeListFormatError):
        load_edge_list(b"# nothing\n")
    with pytest.raises(EdgeListFormatError):
        load_edge_list(b"3 3\n")


@pytest.mark.paperdata
def test_load_real_network_dimensions(stanford3):
    assert stanford3.node_count == 11586
    assert stanford3.edge_count == 568309


def test_decompose_single_cluster_all_interior(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    assert part.interior_mask.all()
    assert (part.touch_counts == 1).all()


def test_decompose_tri_ring(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    assert np.flatnonzero(part.interior_mask).tolist() == [1, 4, 7]
    assert part.touch_counts[0] == 2


def test_decompose_rejects_non_dense_indices(toy_graph):
    with pytest.raises(ValueError):
        decompose(toy_graph, np.array([0, 0, 0, 2, 2, 2, 3, 3, 3]))


def test_partition_roundtrip(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    buf = io.StringIO()
    write_partition(part, buf)
    back = read_partition(toy_graph, io.StringIO(buf.getvalue()))
    assert np.array_equal(back.cluster_of, part.cluster_of)


def test_read_partition_requires_full_cover(toy_graph):
    with pytest.raises(ValueError):
        read_partition(toy_graph, io.StringIO("0 0\n1 0\n"))


def test_read_partition_non_integer_reports_line_number():
    g = path_graph(2)
    with pytest.raises(EdgeListFormatError) as err:
        read_partition(g, io.StringIO("0 0\n1 x\n"))
    assert err.value.line_number == 2


def test_read_partition_duplicate_node_reports_line_number():
    g = path_graph(2)
    with pytest.raises(EdgeListFormatError) as err:
        read_partition(g, io.StringIO("0 0\n0 1\n1 0\n"))
    assert err.value.line_number == 2


@st.composite
def graph_and_clusters(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=60))
    u = np.array([min(a, b) for a, b in edges])
    v = np.array([max(a, b) for a, b in edges])
    u, v = u[u != v], v[u != v]
    if len(u) == 0:
        u, v = np.array([0]), np.array([1])
    pairs_arr = np.unique(np.column_stack([u, v]), axis=0)
    g = from_edges(pairs_arr[:, 0], pairs_arr[:, 1], n)
    k = draw(st.integers(min_value=1, max_value=n))
    raw = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    _, dense = np.unique(np.array(raw), return_inverse=True)
    return g, dense


@given(graph_and_clusters())
@settings(max_examples=60, deadline=None)
def test_partition_invariants(gc):
    g, labels = gc
    part = decompose(g, labels)
    for i in range(g.node_count):
        nbrs = neighbors(g, i)
        # interior exactly when every neighbor shares the node's cluster, both ways
        assert part.interior_mask[i] == bool((labels[nbrs] == labels[i]).all()), i
        # touch count: distinct clusters of the closed neighborhood
        assert part.touch_counts[i] == len(set(labels[np.append(nbrs, i)].tolist())), i


@given(graph_and_clusters())
@settings(max_examples=40, deadline=None)
def test_edge_list_roundtrip(gc):
    g, _ = gc
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(buf.getvalue().encode("utf-8"))
    # nodes that touch no edge cannot survive a plain edge list; the generator
    # may create them, so compare after restricting to non-isolated nodes
    keep = np.flatnonzero(g.degrees > 0)
    assert g2.node_count == len(keep)
    remap = {int(old): new for new, old in enumerate(keep)}
    for old in keep:
        expect = sorted(remap[int(j)] for j in neighbors(g, int(old)))
        assert neighbors(g2, remap[int(old)]).tolist() == expect


def test_load_label_beyond_int64_reports_line_number():
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(b"0 1\n1 2\n99999999999999999999 2\n")
    assert err.value.line_number == 3
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n1 -9999999999999999999\n")
    assert err.value.line_number == 4
    # the largest int64 label is still a label
    g = load_edge_list(b"0 1\n1 9223372036854775807\n")
    assert g.labels.tolist() == [0, 1, 9223372036854775807]


def test_load_matrix_market_node_count_beyond_edge_keys_is_an_error():
    # n*n must fit the int64 edge keys (n <= 3037000499); the header is refused
    # before anything of size n is allocated
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(b"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n1000000000000 1000000000000 1\n1 2\n")
    assert err.value.line_number == 3
    assert "exceed the limit of 3037000499" in str(err.value)


def test_load_path_and_streams_agree(tmp_path):
    text = b"% mtx-like comment\n5 7\n7 9\n\n9 5\n5 5\n"
    path = tmp_path / "g.edges"
    path.write_bytes(text)
    graphs = [
        load_edge_list(path),
        load_edge_list(str(path)),
        load_edge_list(io.BytesIO(text)),
        load_edge_list(io.StringIO(text.decode())),
        load_edge_list(text),
    ]
    for g in graphs:
        assert g.labels.tolist() == [5, 7, 9]
        assert g.indices.tolist() == graphs[0].indices.tolist()
        assert g.dropped_self_loops == 1


def _load_outcome(data, fmt):
    """What load_edge_list makes of data: the graph's arrays and counts, or
    the error's type, message and line number."""
    try:
        g = load_edge_list(data, fmt)
    except (EdgeListFormatError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return (
        g.indptr.tolist(), g.indices.tolist(), g.labels.tolist(),
        g.dropped_self_loops, g.dropped_duplicates,
    )


BAD_LINES = [
    "x 1", "1", "1 2 3", "-4 2", "1.5 2", "99999999999999999999 1", "1 2 # note",
    "1 2 0.5", "1 2 x", "1 2 3 4", "1 2\t-7e-3",  # weights and other extra columns
    "1 2\r3 4", "3\r4", "5 6 7\n8", "9\n10",  # the last three keep the token count even
]


@st.composite
def edge_files(draw):
    """A plain or MatrixMarket edge file with comments, blank lines, CRLF,
    self-loops, reversed duplicates, sparse labels and isolated nodes, and at
    times one comment or malformed line after the first data line; `clean`
    when the bulk parse must take the file."""
    mtx = draw(st.booleans())
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=4))] if pairs else []
    if mtx:
        extra = draw(st.integers(0, 3))  # isolated nodes past the largest index
        label = [i + 1 for i in range(n)]
    else:
        label = draw(st.lists(st.integers(0, 10**18 - 1), min_size=n, max_size=n, unique=True))
    spaces = st.sampled_from(["", " ", "\t", "  "])
    lines = [f"{draw(spaces)}{label[a]} {draw(spaces)}{label[b]}{draw(spaces)}" for a, b in pairs]
    head = [draw(st.sampled_from(["# comment", "% comment", ""])) for _ in range(draw(st.integers(0, 2)))]
    if mtx:
        declared = len(lines) + draw(st.sampled_from([0, 0, 0, 1]))
        head = ["%%MatrixMarket matrix coordinate pattern symmetric", *head, f"{n + extra} {n + extra} {declared}"]
    for _ in range(draw(st.integers(0, 2))):  # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(spaces))
    late = draw(st.booleans()) and bool(lines)
    if late:
        at = draw(st.integers(1, len(lines)))
        comments = ["# late comment", "% late comment", "# 5 6", "%7 8"]
        lines.insert(at, draw(st.sampled_from([*comments, *BAD_LINES])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(head + lines) + draw(st.sampled_from([newline, ""]))
    fmt = draw(st.sampled_from(["auto", "auto", "plain-edge-list", "matrix-market"]))
    return text.encode("ascii"), fmt, not late and newline != "\r" and (mtx or fmt != "matrix-market")


@given(edge_files())
@settings(max_examples=300, deadline=None)
def test_bulk_parse_matches_line_loop(case):
    data, fmt, clean = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_bytes(data)
        sources = (
            lambda: data, lambda: path, lambda: io.BytesIO(data),
            lambda: io.StringIO(data.decode(), newline=""),
        )
        outcomes = []
        for source in sources:
            outcomes.append(_load_outcome(source(), fmt))
            with mock.patch.object(graph, "_bulk_parse", lambda data, fmt: None):
                assert _load_outcome(source(), fmt) == outcomes[-1]
    # every kind of source splits lines at the same universal newlines
    assert outcomes == [outcomes[0]] * len(sources)
    if clean:
        assert graph._bulk_parse(data, fmt) is not None
