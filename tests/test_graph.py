import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate.graph import (
    EdgeListFormatError,
    decompose,
    from_edges,
    load_edge_list,
    read_partition,
    write_edge_list,
    write_partition,
)

from conftest import path_graph


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
    assert part.interior_nodes().tolist() == [1, 4, 7]
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
    # interior nodes see only their own cluster at one hop
    for i in part.interior_nodes():
        nbrs = g.neighbors(i)
        assert (labels[nbrs] == labels[i]).all()
    # touch count 1 exactly on the interior union
    assert np.array_equal(part.touch_counts == 1, part.interior_mask)


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
        expect = sorted(remap[int(j)] for j in g.neighbors(int(old)))
        assert g2.neighbors(remap[int(old)]).tolist() == expect
