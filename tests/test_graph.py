from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate import cli, graph
from netgate.graph import (
    EdgeListFormatError,
    decompose,
    from_edges,
    load_edge_list,
    read_partition,
    write_partition,
)

from conftest import neighbors, path_graph, write_edge_list


def test_load_path_graph(temp_file):
    g = load_edge_list(temp_file(b"0 1\n1 2\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_drops_duplicates_and_self_loops(temp_file):
    g = load_edge_list(temp_file(b"0 1\n0 1\n0 0\n"))
    assert g.edge_count == 1
    assert g.dropped_duplicates == 1
    assert g.dropped_self_loops == 1


def test_load_reverse_duplicate_collapses(temp_file):
    g = load_edge_list(temp_file(b"0 1\n1 0\n"))
    assert g.edge_count == 1
    assert g.dropped_duplicates == 1


def test_load_one_based_labels_relabel_densely(temp_file):
    g = load_edge_list(temp_file(b"1 2\n2 3\n"))
    assert g.node_count == 3
    assert g.labels.tolist() == [1, 2, 3]
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_sparse_labels_relabel_densely(temp_file):
    g = load_edge_list(temp_file(b"10 50\n50 200\n"))
    assert g.node_count == 3
    assert g.labels.tolist() == [10, 50, 200]


def test_load_comments_and_blank_lines(temp_file):
    g = load_edge_list(temp_file(b"# a comment\n% another\n\n0 1\n"))
    assert g.node_count == 2


def test_load_matrix_market_banner_keeps_isolated_nodes(temp_file):
    text = b"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 2\n1 2\n2 3\n"
    g = load_edge_list(temp_file(text))
    assert g.node_count == 4
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1, 0]


GENERAL = "%%MatrixMarket matrix coordinate pattern general\n"
SYMMETRIC = "%%MatrixMarket matrix coordinate pattern symmetric\n"


@pytest.mark.parametrize("comment", ["", "% a comment among the edges: the line loop\n"])
@pytest.mark.parametrize(
    "text, dropped",
    [
        (GENERAL + "3 3 4\n1 2\n{}2 1\n2 3\n3 2\n", 0),  # each edge and its mirror entry
        (GENERAL + "3 3 5\n1 2\n{}2 1\n2 3\n3 2\n1 2\n", 1),  # (1, 2) listed twice
        (SYMMETRIC + "3 3 2\n2 1\n{}3 2\n", 0),
        ("1 2\n{}2 1\n2 3\n", 1),  # a plain list's reversed line repeats its edge
    ],
    ids=["general", "general-repeated", "symmetric", "plain-reversed"],
)
def test_a_general_matrix_markets_mirror_entries_are_not_duplicates(temp_file, capsys, text, dropped, comment):
    """A MatrixMarket general file lists each edge twice, once per direction, so
    only an entry repeated as it is counts as a dropped duplicate, on the bulk
    path and in the line loop; a plain list's reversed line still counts."""
    path = temp_file(text.format(comment).encode())
    g = load_edge_list(path)
    assert (g.edge_count, g.dropped_duplicates, g.dropped_self_loops) == (2, dropped, 0)
    assert g.degrees.tolist() == [1, 2, 1]
    assert cli.main(["stats", "--graph", str(path), "--gamma", "1.0"]) == 0
    note = f"note: the network load dropped 0 self-loops and {dropped} duplicate edge\n" if dropped else ""
    assert capsys.readouterr().err == note


@pytest.mark.parametrize("comment", ["", "% a comment among the edges: the line loop\n"])
def test_a_general_matrix_market_without_mirror_entries_is_refused(temp_file, capsys, comment):
    """A general file that lists (1, 2) and (2, 3) but not their mirrors is a
    directed network, not the path 1-2-3: it is refused on the bulk path and
    in the line loop, with the count of entries that lack a mirror."""
    path = temp_file(f"{GENERAL}3 3 3\n1 2\n{comment}2 3\n3 2\n".encode())
    message = "MatrixMarket general file: no mirror entry for 1 of its distinct entries"
    with pytest.raises(EdgeListFormatError, match=message):
        load_edge_list(path)
    assert cli.main(["stats", "--graph", str(path), "--gamma", "1.0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_load_matrix_market_headerless_size_line(temp_file):
    # networkrepository .mtx files sometimes ship without the banner
    g = load_edge_list(temp_file(b"5 5 3\n1 2\n2 3\n4 5\n"))
    assert g.node_count == 5
    assert g.edge_count == 3


def test_load_explicit_plain_format_ignores_trailing_weight_column(temp_file):
    # "u v w" lines occur in weighted exports; the size-line heuristic must
    # not kick in when the format is forced to plain
    g = load_edge_list(temp_file(b"0 1 7\n1 2 3\n"), fmt="plain-edge-list")
    assert g.node_count == 3
    assert g.edge_count == 2


@pytest.mark.parametrize("line", ["3 4 x", "3 4 5 6", "3 4 # note"])
def test_load_rejects_extra_column_that_is_not_a_weight(temp_file, line):
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(f"0 1\n1 2 7\n{line}\n".encode()), fmt="plain-edge-list")
    assert err.value.line_number == 3


def test_load_lone_carriage_return_ends_a_line_in_every_source(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"1 2\r3 4\n")
    for source in (path, str(path)):
        assert load_edge_list(source).edge_count == 2


def test_load_matrix_market_entry_count_must_match_header(temp_file):
    text = b"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n1 2\n"
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(text))
    assert err.value.line_number == 2
    with pytest.raises(EdgeListFormatError):
        load_edge_list(temp_file(b"5 5 2\n1 2\n2 3\n4 5\n"))


def test_load_malformed_line_reports_line_number(temp_file):
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(b"0 1\nnot an edge\n"))
    assert err.value.line_number == 2


def test_load_empty_graph_is_an_error(temp_file):
    with pytest.raises(EdgeListFormatError):
        load_edge_list(temp_file(b"# nothing\n"))
    with pytest.raises(EdgeListFormatError):
        load_edge_list(temp_file(b"3 3\n"))


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


def test_partition_roundtrip(temp_file, toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    path = temp_file(b"")
    write_partition(part, path)
    back = read_partition(toy_graph, path)
    assert np.array_equal(back.cluster_of, part.cluster_of)


def test_read_partition_requires_full_cover(temp_file, toy_graph):
    with pytest.raises(ValueError):
        read_partition(toy_graph, temp_file(b"0 0\n1 0\n"))


def test_read_partition_non_integer_reports_line_number(temp_file):
    g = path_graph(2)
    with pytest.raises(EdgeListFormatError) as err:
        read_partition(g, temp_file(b"0 0\n1 x\n"))
    assert err.value.line_number == 2


@pytest.mark.parametrize("cluster", ["-1", "2", "99999999999999999999999"])
def test_read_partition_cluster_out_of_range_reports_line_number(temp_file, cluster):
    g = path_graph(2)
    with pytest.raises(EdgeListFormatError, match=f"line 2: cluster {cluster} out of range") as err:
        read_partition(g, temp_file(f"0 0\n1 {cluster}\n".encode()))
    assert err.value.line_number == 2


def test_read_partition_duplicate_node_reports_line_number(temp_file):
    g = path_graph(2)
    with pytest.raises(EdgeListFormatError) as err:
        read_partition(g, temp_file(b"0 0\n0 1\n1 0\n"))
    assert err.value.line_number == 2


def test_read_partition_non_dense_ids_report_the_line_of_the_largest(temp_file, toy_graph):
    text = "".join(f"{i} {5 if i == 1 else 0}\n" for i in range(9))  # ids 0 and 5: 1..4 are unused
    with pytest.raises(EdgeListFormatError, match="line 2: cluster ids must be dense 0..K-1, got 5") as err:
        read_partition(toy_graph, temp_file(text.encode()))
    assert err.value.line_number == 2


@pytest.mark.parametrize(
    "sep, line_number",
    [(sep, 1) for sep in "\x0c\x0b\x1c\x1d\x1e\x85\u2028\u2029"] + [("\n", 2), ("\r", 2), ("\r\n", 2)],
)
def test_partition_and_edge_readers_number_lines_alike(temp_file, sep, line_number):
    """Both readers end lines at universal newlines only; str.splitlines'
    other line boundaries stay inside a line."""
    with pytest.raises(EdgeListFormatError) as part_err:
        read_partition(path_graph(3), temp_file(f"0 0{sep}1 x\n2 0\n".encode()))
    with pytest.raises(EdgeListFormatError) as edge_err:
        load_edge_list(temp_file(f"0 1{sep}1 x\n2 0\n".encode()))
    assert part_err.value.line_number == edge_err.value.line_number == line_number


@st.composite
def graph_and_clusters(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=60))
    u, v = np.array(edges).T
    g = from_edges(u, v, n)  # drops the self-loops and repeats
    if g.edge_count == 0:
        g = from_edges(np.array([0]), np.array([1]), n)
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
@settings(max_examples=60, deadline=None)
def test_interior_nodes_are_the_sorted_read_only_interior_index(gc):
    g, labels = gc
    part = decompose(g, labels)
    nodes = part.interior_nodes
    assert nodes is part.interior_nodes  # computed once
    assert not nodes.flags.writeable
    assert nodes.tolist() == sorted(nodes.tolist())
    assert np.array_equal(nodes, np.flatnonzero(part.interior_mask))


@given(graph_and_clusters())
@settings(max_examples=40, deadline=None)
def test_edge_list_roundtrip(temp_file, gc):
    g, _ = gc
    path = temp_file(b"")
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    # nodes that touch no edge cannot survive a plain edge list; the generator
    # may create them, so compare after restricting to non-isolated nodes
    keep = np.flatnonzero(g.degrees > 0)
    assert g2.node_count == len(keep)
    remap = {int(old): new for new, old in enumerate(keep)}
    for old in keep:
        expect = sorted(remap[int(j)] for j in neighbors(g, int(old)))
        assert neighbors(g2, remap[int(old)]).tolist() == expect


def _dedupe_then_build(u, v, n):
    """Reference of the two-step construction: drop self-loops and dedupe the
    undirected keys min*n + max, then sort both directed halves of the unique
    pairs into CSR order. Returns indptr, indices and the two drop counts."""
    loops = u == v
    u, v = u[~loops], v[~loops]
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = np.divmod(keys, n)
    src, dst = np.divmod(np.sort(np.concatenate([lo * n + hi, hi * n + lo])), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst, int(loops.sum()), len(u) - len(keys)


@st.composite
def endpoint_lists(draw):
    """Endpoints over n nodes (some isolated, possibly no edge at all) with
    self-loops and edges repeated in either direction, in any order."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=30))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=15))
        pairs += [(b, a) if flip else (a, b) for (a, b), flip in repeats]
    pairs += [(i, i) for i in draw(st.lists(node, max_size=4))]
    pairs = draw(st.permutations(pairs))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return u, v, n


@given(endpoint_lists())
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_dedupe_then_build(edges):
    u, v, n = edges
    g = from_edges(u, v, n)
    indptr, indices, loops, duplicates = _dedupe_then_build(u, v, n)
    assert g.indptr.tobytes() == indptr.tobytes()
    assert g.indices.tobytes() == indices.tobytes()
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, duplicates)
    # dense P = D^-1 A with zero rows on isolated nodes
    a = np.zeros((n, n))
    a[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
    deg = a.sum(axis=1)
    p = a / np.where(deg > 0, deg, 1.0)[:, None]
    assert np.array_equal(g.row_normalized.toarray(), p)
    assert np.allclose(g.diag_p_squared, np.diag(p @ p), rtol=0.0, atol=1e-12)


def test_load_label_beyond_int64_reports_line_number(temp_file):
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(b"0 1\n1 2\n99999999999999999999 2\n"))
    assert err.value.line_number == 3
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n1 -9999999999999999999\n"))
    assert err.value.line_number == 4
    # the largest int64 label is still a label
    g = load_edge_list(temp_file(b"0 1\n1 9223372036854775807\n"))
    assert g.labels.tolist() == [0, 1, 9223372036854775807]


def test_load_matrix_market_node_count_beyond_edge_keys_is_an_error(temp_file):
    # n*n must fit the int64 edge keys (n <= 3037000499); the header is refused
    # before anything of size n is allocated
    with pytest.raises(EdgeListFormatError) as err:
        load_edge_list(temp_file(b"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n1000000000000 1000000000000 1\n1 2\n"))
    assert err.value.line_number == 3
    assert "exceed the limit of 3037000499" in str(err.value)


def test_load_path_and_streams_agree(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"% mtx-like comment\n5 7\n7 9\n\n9 5\n5 5\n")
    graphs = [load_edge_list(path), load_edge_list(str(path))]
    for g in graphs:
        assert g.labels.tolist() == [5, 7, 9]
        assert g.indices.tolist() == graphs[0].indices.tolist()
        assert g.dropped_self_loops == 1


def _load_outcome(path, fmt):
    """What load_edge_list makes of the file: the graph's arrays and counts,
    or the error's type, message and line number."""
    try:
        g = load_edge_list(path, fmt)
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
    self-loops, reversed duplicates, sparse signed 64-bit labels written with
    leading zeros or a plus sign, and isolated nodes, and at times one comment
    or malformed line after the first data line; `clean` when the bulk parse
    must take the file."""
    mtx = draw(st.booleans())
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=4))] if pairs else []
    if mtx:
        extra = draw(st.integers(0, 3))  # isolated nodes past the largest index
        label = [i + 1 for i in range(n)]
    else:
        label = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    spaces = st.sampled_from(["", " ", "\t", "  "])

    def text(x):
        sign = "-" if x < 0 else draw(st.sampled_from(["", "", "+"]))
        return f"{sign}{draw(st.sampled_from(['', '', '0', '00']))}{abs(x)}"

    lines = [f"{draw(spaces)}{text(label[a])} {draw(spaces)}{text(label[b])}{draw(spaces)}" for a, b in pairs]
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
def test_bulk_parse_matches_line_loop(temp_file, case):
    data, fmt, clean = case
    path = temp_file(data)
    outcome = _load_outcome(path, fmt)
    with mock.patch.object(graph, "_bulk_parse", lambda data, fmt: None):
        assert _load_outcome(path, fmt) == outcome
    if clean:
        assert graph._bulk_parse(data, fmt) is not None


@pytest.mark.parametrize(
    "body, taken",
    [
        (b"", True),
        (b" \t\r\n\n  ", True),
        (b"-3 +4\n007 -0008\n", True),
        (b"9223372036854775807 -9223372036854775808\n", True),
        (b"5\v6\r\n7\f8\n", True),
        (b"1.0 2\n", False),
        (b"1e3 2\n", False),
        (b"0x10 2\n", False),
        (b"1_000 2\n", False),
        ("\u0661 2\n".encode(), False),  # an Arabic-Indic digit, which int() reads
        (b"1 2\r3 4\n", False),
        (b"1 2 3\n4 5 6\n", False),
        (b"1\n2\n", False),
    ],
)
def test_bulk_parse_takes_a_body_only_as_the_line_loop_reads_it(temp_file, body, taken):
    """np.loadtxt reads the body after the first edge or refuses it, and the
    line loop then reads or names a bad line; the graph is the same either way."""
    data = b"0 1\n" + body
    path = temp_file(data)
    outcome = _load_outcome(path, "auto")
    with mock.patch.object(graph, "_bulk_parse", lambda data, fmt: None):
        assert _load_outcome(path, "auto") == outcome
    assert (graph._bulk_parse(data, "auto") is not None) == taken
