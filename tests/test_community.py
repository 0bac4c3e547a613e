import hashlib
import tracemalloc
from collections import Counter
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netgate import community, sbm
from netgate.community import _LevelGraph, _modularity, louvain, louvain_with_history, stats
from netgate.graph import decompose, from_edges

from conftest import two_triangles


def all_set_partitions(items):
    """Every partition of a small item list (restricted growth strings)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def labels_of(blocks, n):
    labels = np.zeros(n, dtype=int)
    for k, block in enumerate(blocks):
        labels[block] = k
    return labels


def test_two_triangles_is_the_exhaustive_modularity_maximum():
    g = two_triangles()
    best_q, best_blocks = -np.inf, None
    count = 0
    for blocks in all_set_partitions(list(range(6))):
        count += 1
        q = stats(decompose(g, labels_of(blocks, 6)), 1.0).modularity
        if q > best_q:
            best_q, best_blocks = q, blocks
    assert count == 203  # Bell(6)
    assert sorted(sorted(b) for b in best_blocks) == [[0, 1, 2], [3, 4, 5]]

    part = louvain(g, 1.0, seed=123)
    assert part.cluster_count == 2
    assert stats(part, 1.0).modularity == pytest.approx(best_q, abs=1e-12)
    assert best_q == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
def test_modularity_single_cluster_is_one_minus_gamma(toy_graph, gamma):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    assert stats(part, gamma).modularity == pytest.approx(1.0 - gamma, abs=1e-12)


def test_modularity_singletons(toy_graph):
    part = decompose(toy_graph, np.arange(9))
    expected = -sum((d / 24.0) ** 2 for d in toy_graph.degrees)
    q = stats(part, 1.0).modularity
    assert q == pytest.approx(expected, abs=1e-12)
    assert q <= 0


def test_modularity_edgeless_graph_is_an_error():
    g = from_edges(np.array([], dtype=int), np.array([], dtype=int), 3)
    with pytest.raises(ValueError):
        stats(decompose(g, np.zeros(3, dtype=int)), 1.0)


def test_modularity_within_bounds(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    for gamma in (0.5, 1.0, 3.0):
        assert -gamma <= stats(part, gamma).modularity <= 1.0


def test_louvain_pass_trace_is_monotone():
    for seed in (0, 1, 2):
        g, _ = sbm.generate(communities=6, size=25, p_in=0.3, p_out=0.01, seed=seed)
        _, trace = louvain_with_history(g, 1.0, seed=seed)
        diffs = np.diff(np.asarray(trace))
        assert (diffs >= -1e-12).all(), trace


def test_louvain_beats_singletons():
    g, _ = sbm.generate(communities=5, size=30, p_in=0.25, p_out=0.01, seed=4)
    part = louvain(g, 1.0, seed=9)
    singletons = decompose(g, np.arange(g.node_count))
    assert stats(part, 1.0).modularity >= stats(singletons, 1.0).modularity


def test_louvain_fixed_seed_is_bit_identical():
    g, _ = sbm.generate(communities=5, size=30, p_in=0.25, p_out=0.01, seed=4)
    a = louvain(g, 1.0, seed=77)
    b = louvain(g, 1.0, seed=77)
    assert np.array_equal(a.cluster_of, b.cluster_of)


# sha256 of cluster_of (little-endian int64) and the modularity after every
# local-move pass (float.hex), recorded with the fresh-count local-move loop:
# the incremental link tables must reproduce them bit for bit.
GOLDEN_SBMS = {
    "a": dict(communities=6, size=30, p_in=0.3, p_out=0.02, seed=3),
    "b": dict(communities=12, size=25, p_in=0.2, p_out=0.01, seed=11),
}
LOUVAIN_GOLDEN = {
    ("a", 1.0, 0): (
        "78feb8a72c0e2c23643c15d8b32f6e49f3200b86875f7f476766201da27cd4c6",
        "0x1.d3bac6fcb25b0p-3 0x1.7d17bb5d113cfp-2 0x1.c2b7906e93714p-2 0x1.cf328aa5fa066p-2 "
        "0x1.dec4539034da6p-2 0x1.e2bc2249c518cp-2 0x1.f4e72da421a82p-2 0x1.f4e72da421a82p-2 "
        "0x1.2032350690b4dp-1 0x1.2032350690b4dp-1 0x1.2032350690b4cp-1"
    ),
    ("a", 1.0, 20240501): (
        "78feb8a72c0e2c23643c15d8b32f6e49f3200b86875f7f476766201da27cd4c6",
        "0x1.d16ccc6420ef6p-3 0x1.d3e51b8ccf282p-2 0x1.002c6f5001247p-1 0x1.089b0a737808fp-1 "
        "0x1.127af471b005ap-1 0x1.1e07487557232p-1 0x1.1f8c8dbcc8b92p-1 0x1.1f8c8dbcc8b92p-1 "
        "0x1.2032350690b4cp-1 0x1.2032350690b4cp-1 0x1.2032350690b4cp-1"
    ),
    ("a", 5.0, 0): (
        "a8897b2c97277cee0c785927eebb26397ac9e7f35c848082933ca744674a1465",
        "0x1.637c6c9b53912p-4 0x1.bf77a107004dep-4 0x1.d50bbc7daee4fp-4 0x1.e093cb9cfbd51p-4 "
        "0x1.e28719cc7e1aap-4 0x1.e33a860c6c8bep-4 0x1.e33fd09e70259p-4 0x1.e3f71602be4c7p-4 "
        "0x1.e3f71602be4c7p-4 0x1.ed97dd84340e5p-4 0x1.ed97dd84340e5p-4 0x1.ed97dd84340e6p-4"
    ),
    ("a", 5.0, 20240501): (
        "f6d88f487fb1a9f54ec1437834e5bd017d8df3da84a42b21e4818503c1297d1b",
        "0x1.3c2d5a0dabf2bp-4 0x1.c712d2ec2d2bep-4 0x1.f484edbb7614ap-4 0x1.fa3e2294cf5e1p-4 "
        "0x1.fa3e2294cf5e1p-4 0x1.016f05ed28446p-3 0x1.016f05ed28446p-3 0x1.016f05ed28446p-3"
    ),
    ("a", 60.0, 0): (
        "ccb1f0c5e58c5dc4b6595bca6ab11f2f9b8c7198f1582d6591c6417c9a1d100b",
        "-0x1.6ef2af7265d98p-2 -0x1.6ef2af7265d98p-2 -0x1.6ef2af7265d98p-2"
    ),
    ("a", 60.0, 20240501): (
        "89d76f1e66ff13681d9eb086dc346e8e88fec1996d93f4bcf31d070a4defe269",
        "-0x1.6ef2af7265d98p-2 -0x1.6ef2af7265d98p-2 -0x1.6ef2af7265d98p-2"
    ),
    ("b", 1.0, 0): (
        "ed39aec9f1dbcdb54a37a8b2540df2ed83efa1288dd25cba6cd77c4dbf330f1f",
        "0x1.a8532312c59edp-3 0x1.422c569428d4ap-2 0x1.9a94cbd1c7ef2p-2 0x1.c58389fcbe8d0p-2 "
        "0x1.d43b2fb0a2436p-2 0x1.d867abab6ba46p-2 0x1.d867abab6ba46p-2 0x1.0fb95e714fbc0p-1 "
        "0x1.157e107030bb5p-1 0x1.157e107030bb5p-1 0x1.1935d180acee1p-1 0x1.1935d180acee1p-1 "
        "0x1.1935d180acee1p-1"
    ),
    ("b", 1.0, 20240501): (
        "1c78f6df796a156edcfcd9caad1aa19a63c0a15471e041383db8b06757ea3f6b",
        "0x1.6dee32ff45960p-3 0x1.43a51a595933ap-2 0x1.b54a12725aa8ap-2 0x1.d8a4e3d28cc7ep-2 "
        "0x1.e8b82b2a30c92p-2 0x1.f030edc105dafp-2 0x1.f033af40b9f88p-2 0x1.f033af40b9f88p-2 "
        "0x1.1456fdab5b802p-1 0x1.180bd770b9ef2p-1 0x1.180bd770b9ef2p-1 0x1.180bd770b9ef1p-1"
    ),
    ("b", 5.0, 0): (
        "09fb6564e5085a3c7e5fc0de4696e5ca885015bbad328b163bffae197c76b5ab",
        "0x1.3d0aae6607994p-3 0x1.b05d5dec3e381p-3 0x1.e213e7935be9cp-3 0x1.e977cc87dd402p-3 "
        "0x1.ef48bf79ff1e6p-3 0x1.ef48bf79ff1e6p-3 0x1.0e91f37c83fd2p-2 0x1.0f1800f73d532p-2 "
        "0x1.0f1800f73d532p-2 0x1.0f366aa641075p-2 0x1.0f366aa641075p-2 0x1.0f366aa641076p-2"
    ),
    ("b", 5.0, 20240501): (
        "3b35517a139f51737c6850a3e9509549651164ed072af2e48897d0ee279bf4d3",
        "0x1.1bade4b38bb8ep-3 0x1.9727f134ab052p-3 0x1.d96a082fa17a0p-3 0x1.ecccbc6c1f04dp-3 "
        "0x1.f2bfefb5ff776p-3 0x1.f5e2164449f64p-3 0x1.fa4775c21970ep-3 0x1.faf3b36f92a9fp-3 "
        "0x1.faf3b36f92a9fp-3 0x1.0be5e89860bb6p-2 0x1.0ce3f0787b870p-2 0x1.0ce3f0787b870p-2 "
        "0x1.0ce3f0787b870p-2"
    ),
    ("b", 60.0, 0): (
        "ebffc976924b9bb1feddb15cc1d30f3406ec80bf34c57b2347c95ca7b91cc911",
        "-0x1.ab34eb3121218p-3 -0x1.ab34eb3121218p-3 -0x1.ab34eb3121218p-3"
    ),
    ("b", 60.0, 20240501): (
        "b5194dcdfa15f590fd626e1968d6eff58ba8e1941a3195249ff5c779609d4816",
        "-0x1.abb60cda18d50p-3 -0x1.ab98eab8a8c0cp-3 -0x1.ab98eab8a8c0cp-3 "
        "-0x1.ab98eab8a8c0dp-3"
    ),
}


@pytest.mark.parametrize("name, gamma, seed", sorted(LOUVAIN_GOLDEN))
def test_louvain_matches_recorded_partition_and_trace(name, gamma, seed):
    g, _ = sbm.generate(**GOLDEN_SBMS[name])
    part, trace = louvain_with_history(g, gamma, seed)
    digest, q_hex = LOUVAIN_GOLDEN[name, gamma, seed]
    assert hashlib.sha256(part.cluster_of.astype("<i8").tobytes()).hexdigest() == digest
    assert " ".join(q.hex() for q in trace) == q_hex


def test_louvain_rejects_bad_resolution(toy_graph):
    with pytest.raises(ValueError):
        louvain(toy_graph, 0.0, seed=1)


@pytest.mark.parametrize("resolution", [np.nan, np.inf])
def test_louvain_rejects_non_finite_resolution(toy_graph, resolution):
    with pytest.raises(ValueError, match="resolution must be positive"):
        louvain(toy_graph, resolution, seed=1)


def test_louvain_rejects_edgeless_graph():
    g = from_edges(np.array([], dtype=int), np.array([], dtype=int), 4)
    with pytest.raises(ValueError):
        louvain(g, 1.0, seed=1)


def test_louvain_matches_networkx_quality():
    nx = pytest.importorskip("networkx")
    nxc = nx.algorithms.community
    for gamma in (1.0, 5.0):
        g, _ = sbm.generate(communities=8, size=40, p_in=0.25, p_out=0.01, seed=3)
        G = nx.Graph()
        G.add_nodes_from(range(g.node_count))
        G.add_edges_from(map(tuple, g.edge_array()))
        mine = stats(louvain(g, gamma, seed=1), gamma).modularity
        theirs = nxc.modularity(G, nxc.louvain_communities(G, resolution=gamma, seed=1), resolution=gamma)
        assert mine >= theirs - 0.01, (gamma, mine, theirs)


def test_modularity_matches_networkx_formula():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(0)
    g, _ = sbm.generate(communities=5, size=30, p_in=0.2, p_out=0.02, seed=1)
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    G.add_edges_from(map(tuple, g.edge_array()))
    raw = rng.integers(0, 7, g.node_count)
    _, dense = np.unique(raw, return_inverse=True)
    part = decompose(g, dense)
    comms = [set(np.flatnonzero(dense == k)) for k in range(int(dense.max()) + 1)]
    for gamma in (0.5, 1.0, 3.0):
        mine = stats(part, gamma).modularity
        theirs = nx.algorithms.community.modularity(G, comms, resolution=gamma)
        assert mine == pytest.approx(theirs, abs=1e-12)


def nested_sbm(seed=12):
    """16 fine blocks arranged in 4 coarse groups: resolution controls which
    level Louvain settles on."""
    rng = np.random.default_rng(seed)
    fine = 16
    size = 20
    n = fine * size
    labels = np.repeat(np.arange(fine), size)
    coarse = labels // 4
    us, vs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                p = 0.4
            elif coarse[i] == coarse[j]:
                p = 0.05
            else:
                p = 0.002
            if rng.random() < p:
                us.append(i)
                vs.append(j)
    return from_edges(np.array(us), np.array(vs), n)


def test_resolution_controls_granularity():
    g = nested_sbm()
    k_low = louvain(g, 0.3, seed=5).cluster_count
    k_high = louvain(g, 8.0, seed=5).cluster_count
    assert k_low < k_high
    assert k_low <= 6
    assert k_high >= 12


def test_stats_single_cluster(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    s = stats(part, 1.0)
    assert s.interior_fraction == 1.0
    assert s.within_edge_fraction == 1.0


def test_stats_tri_ring(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    s = stats(part, 1.0)
    assert s.cluster_count == 3
    assert s.interior_fraction == pytest.approx(3 / 9)
    assert s.within_edge_fraction == pytest.approx(9 / 12)


@st.composite
def clustered_sbms(draw):
    """A small SBM, often with isolated nodes (sparse blocks and up to 3
    appended), clustered by blocks, as one cluster, as singletons or by
    random labels."""
    g0, blocks = sbm.generate(draw(st.integers(1, 5)), draw(st.integers(1, 12)),
                              draw(st.sampled_from([0.05, 0.3, 1.0])), draw(st.sampled_from([0.0, 0.02, 0.2])),
                              draw(st.integers(0, 1000)))
    isolated = draw(st.integers(0, 3))
    e = g0.edge_array()
    g = from_edges(e[:, 0], e[:, 1], g0.node_count + isolated)
    n = g.node_count
    kind = draw(st.sampled_from(["blocks", "one", "singletons", "random"]))
    if kind == "blocks":
        labels = np.concatenate([blocks, blocks.max() + 1 + np.arange(isolated)])
    elif kind == "one":
        labels = np.zeros(n, dtype=np.int64)
    elif kind == "singletons":
        labels = np.arange(n)
    else:
        raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, draw(st.integers(1, 6)), n)
        labels = np.unique(raw, return_inverse=True)[1]
    return g, decompose(g, labels), draw(st.sampled_from([0.3, 1.0, 5.0, 60.0]))


@given(clustered_sbms())
@settings(max_examples=200, deadline=None)
def test_stats_from_cluster_counts_equal_the_edge_pass_bit_for_bit(case):
    """stats() reads the partition's neighbor counts; it gives the bits of
    the formula over every edge: the Louvain working graph's modularity and
    the mean of within-cluster edges."""
    g, part, gamma = case
    if g.edge_count == 0:
        with pytest.raises(ValueError, match="edgeless"):
            stats(part, gamma)
        return
    q = edge_pass_modularity(_LevelGraph.from_graph(g), part.cluster_of, gamma)
    e = g.edge_array()
    within = float((part.cluster_of[e[:, 0]] == part.cluster_of[e[:, 1]]).mean())
    s = stats(part, gamma)
    assert s.modularity.hex() == q.hex()
    assert s.within_edge_fraction.hex() == within.hex()
    assert s.interior_fraction.hex() == float(part.interior_mask.mean()).hex()
    assert s.cluster_count == part.cluster_count


def edge_pass_modularity(level, comm, resolution):
    """Modularity of labels `comm` on a Louvain working graph by one pass over
    every CSR entry: per-community bincounts of the within-community weights
    plus the self-loops, and of the strengths."""
    comm_row = np.repeat(comm, level.row_len)  # comm of each entry's row
    same = comm_row == comm[level.indices]
    k = int(comm.max()) + 1
    intra = np.bincount(comm_row[same], weights=level.weights[same], minlength=k).astype(np.float64)
    intra += np.bincount(comm, weights=level.self_w, minlength=k)
    tot = np.bincount(comm, weights=level.strength, minlength=k)
    return _modularity(intra, tot, level.total_weight, resolution)


def counter_one_level(level, resolution, rng, q_trace):
    """Reference local-move phase: a fresh array per row, `Counter` link
    tables, and each pass's modularity by an edge pass."""
    n = level.n
    comm = list(range(n))
    sigma_tot = level.strength.tolist()
    strength = level.strength.tolist()
    cuts = level.indptr[1:-1]
    nbrs = [a.tolist() for a in np.split(level.indices, cuts)]
    wts = None if (level.weights == 1.0).all() else [a.tolist() for a in np.split(level.weights, cuts)]
    gamma_over_t = resolution / level.total_weight

    def count_links(i):
        if wts is None:
            return Counter(map(comm.__getitem__, nbrs[i]))
        link = {}
        for j, w in zip(nbrs[i], wts[i]):
            c = comm[j]
            link[c] = link.get(c, 0.0) + w
        return link

    links = None
    q_prev = edge_pass_modularity(level, np.asarray(comm), resolution)
    while True:
        for i in rng.permutation(n).tolist():
            a = comm[i]
            link = count_links(i) if links is None else links[i]
            ki = strength[i]
            sigma_tot[a] -= ki
            gk = gamma_over_t * ki
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
        q_now = edge_pass_modularity(level, np.asarray(comm), resolution)
        q_trace.append(q_now)
        if q_now - q_prev < community._PASS_GAIN_TOL:
            break
        q_prev = q_now
        if links is None:
            links = [count_links(i) for i in range(n)]
    return np.asarray(comm)


def reference_louvain(g, gamma, seed):
    """louvain_with_history with counter_one_level in place of _one_level,
    and the number of levels it ran."""
    levels = []

    def counted(*args):
        levels.append(None)
        return counter_one_level(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(community, "_one_level", counted)
        part, trace = louvain_with_history(g, gamma, seed)
    return part, trace, len(levels)


@st.composite
def multilevel_sbms(draw):
    """A small SBM with 1-3 isolated nodes and 1-4 lone edges appended, and a
    resolution and seed. The lone edges' ends merge whenever 2m > gamma,
    so Louvain mostly runs more than one level."""
    g0, _ = sbm.generate(draw(st.integers(3, 6)), draw(st.integers(6, 12)),
                         draw(st.sampled_from([0.5, 0.8, 1.0])), draw(st.sampled_from([0.02, 0.1, 0.3])),
                         draw(st.integers(0, 1000)))
    n0, isolated, pairs = g0.node_count, draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ends = n0 + isolated + 2 * np.arange(pairs)
    e = np.vstack([g0.edge_array(), np.column_stack([ends, ends + 1])])
    g = from_edges(e[:, 0], e[:, 1], n0 + isolated + 2 * pairs)
    return g, draw(st.sampled_from([0.3, 1.0, 5.0, 60.0])), draw(st.integers(0, 2**32 - 1))


@given(multilevel_sbms())
@settings(max_examples=100, deadline=None)
def test_louvain_equals_the_counter_and_edge_pass_reference_bit_for_bit(case):
    """Shared node ids, plain dict counts and running modularity sums give the
    partition and the q trace of Counter tables and an edge pass per pass."""
    g, gamma, seed = case
    want, want_trace, levels = reference_louvain(g, gamma, seed)
    assume(levels >= 2)
    part, trace = louvain_with_history(g, gamma, seed)
    assert np.array_equal(part.cluster_of, want.cluster_of)
    assert [q.hex() for q in trace] == [q.hex() for q in want_trace]


def test_louvain_allocates_at_most_four_fifths_of_the_reference_peak():
    """Neighbour lists of shared node ids and no per-pass edge arrays: on a
    2,000-node SBM the traced peak was 0.63 of the reference's."""
    g, _ = sbm.generate(communities=20, size=100, p_in=0.15, p_out=0.0009, seed=1)

    def traced_peak(run):
        tracemalloc.start()
        try:
            part = run()
            return part, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want, want_peak = traced_peak(lambda: reference_louvain(g, 5.0, 1)[0])
    part, peak = traced_peak(lambda: louvain(g, 5.0, 1))
    assert np.array_equal(part.cluster_of, want.cluster_of)
    assert peak <= 0.8 * want_peak, (peak, want_peak)
