import hashlib

import numpy as np
import pytest

from netgate import sbm
from netgate.community import louvain, louvain_with_history, modularity, stats
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
        q = modularity(g, decompose(g, labels_of(blocks, 6)), 1.0)
        if q > best_q:
            best_q, best_blocks = q, blocks
    assert count == 203  # Bell(6)
    assert sorted(sorted(b) for b in best_blocks) == [[0, 1, 2], [3, 4, 5]]

    part = louvain(g, 1.0, seed=123)
    assert part.cluster_count == 2
    assert modularity(g, part, 1.0) == pytest.approx(best_q, abs=1e-12)
    assert best_q == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
def test_modularity_single_cluster_is_one_minus_gamma(toy_graph, gamma):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    assert modularity(toy_graph, part, gamma) == pytest.approx(1.0 - gamma, abs=1e-12)


def test_modularity_singletons(toy_graph):
    part = decompose(toy_graph, np.arange(9))
    expected = -sum((d / 24.0) ** 2 for d in toy_graph.degrees)
    q = modularity(toy_graph, part, 1.0)
    assert q == pytest.approx(expected, abs=1e-12)
    assert q <= 0


def test_modularity_edgeless_graph_is_an_error():
    g = from_edges(np.array([], dtype=int), np.array([], dtype=int), 3)
    with pytest.raises(ValueError):
        modularity(g, decompose(g, np.zeros(3, dtype=int)), 1.0)


def test_modularity_within_bounds(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    for gamma in (0.5, 1.0, 3.0):
        assert -gamma <= modularity(toy_graph, part, gamma) <= 1.0


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
    assert modularity(g, part, 1.0) >= modularity(g, singletons, 1.0)


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
        mine = modularity(g, louvain(g, gamma, seed=1), gamma)
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
        mine = modularity(g, part, gamma)
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
    s = stats(toy_graph, part, 1.0)
    assert s.interior_fraction == 1.0
    assert s.within_edge_fraction == 1.0


def test_stats_tri_ring(toy_graph, toy_clusters):
    part = decompose(toy_graph, toy_clusters)
    s = stats(toy_graph, part, 1.0)
    assert s.cluster_count == 3
    assert s.interior_fraction == pytest.approx(3 / 9)
    assert s.within_edge_fraction == pytest.approx(9 / 12)
