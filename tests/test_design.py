import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate import design, estimators, outcomes, predictor, sbm
from netgate.graph import Graph, decompose, from_edges

from conftest import expand, neighbors, path_graph


def ring_graph(n):
    u = np.arange(n)
    return from_edges(u, (u + 1) % n, n)


def exposure(g, z, i, level):
    """Reference: 1 iff z_i == level and every neighbor of i carries the same
    level, one node at a time. Isolated nodes reduce to z_i == level."""
    z = np.asarray(z)
    if z[i] != level:
        return 0
    return int(bool(np.all(z[neighbors(g, i)] == level)))


def exposure_probability(p_part, p, i, level):
    """Reference: p^c_i at level 1, (1-p)^c_i at level 0."""
    c = int(p_part.touch_counts[i])
    return float(p**c if level == 1 else (1.0 - p) ** c)


def test_draw_single_cluster_shares_one_bit(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    d = design.draw(part, 0.5, np.random.default_rng(0))
    assert len(set(d.unit_bits.tolist())) == 1
    assert d.unit_bits[0] == int(d.t[0])


def test_draw_deterministic_for_fixed_seed():
    part = decompose(ring_graph(95), np.arange(95))
    a = design.draw(part, 0.1, np.random.default_rng(42))
    b = design.draw(part, 0.1, np.random.default_rng(42))
    assert np.array_equal(a.t, b.t)


def test_draw_rejects_bad_proportion(toy_partition):
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            design.draw(toy_partition, p, np.random.default_rng(0))


def test_draw_treated_fraction_concentrates():
    # binomial concentration: mean of 10k draws of (sum t_k)/K around p
    part = decompose(ring_graph(95), np.arange(95))
    rng = np.random.default_rng(7)
    fractions = [design.draw(part, 0.3, rng).t.mean() for _ in range(10_000)]
    assert 0.29 <= np.mean(fractions) <= 0.31


def test_exposure_under_global_treatment(toy_graph):
    z = np.ones(9, dtype=np.int8)
    for i in range(9):
        assert exposure(toy_graph, z, i, 1) == 1
        assert exposure(toy_graph, z, i, 0) == 0


def test_exposure_tri_ring_boundary(toy_graph, toy_partition):
    # cluster A = {0,1,2} treated, B and C control
    z = expand(toy_partition, np.array([True, False, False]))
    assert exposure(toy_graph, z, 1, 1) == 1  # interior of A
    assert exposure(toy_graph, z, 2, 1) == 0  # neighbor 3 is control


def test_exposure_isolated_node_uses_own_bit():
    g = from_edges(np.array([0]), np.array([1]), 3)  # node 2 isolated
    z = np.array([1, 1, 0])
    assert exposure(g, z, 2, 0) == 1
    assert exposure(g, z, 2, 1) == 0


def test_interior_exposure_equals_own_bit(toy_graph, toy_partition):
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = design.draw(toy_partition, 0.4, rng)
        for i in np.flatnonzero(toy_partition.interior_mask):
            assert exposure(toy_graph, d.unit_bits, i, 1) == (d.unit_bits[i] == 1)
            assert exposure(toy_graph, d.unit_bits, i, 0) == (d.unit_bits[i] == 0)


def test_exposure_vector_matches_scalar(toy_graph, toy_partition):
    rng = np.random.default_rng(5)
    d = design.draw(toy_partition, 0.5, rng)
    for level in (0, 1):
        vec = design.exposure_vector(toy_graph, d.unit_bits, level)
        scalars = [exposure(toy_graph, d.unit_bits, i, level) for i in range(9)]
        assert vec.tolist() == scalars


def test_exposure_vector_rejects_a_level_other_than_0_or_1(toy_graph):
    for level in (2, -1):
        with pytest.raises(ValueError, match=f"exposure level must be 0 or 1, got {level}"):
            design.exposure_vector(toy_graph, np.ones(9), level)


def test_exposure_probability_values(toy_partition):
    assert exposure_probability(toy_partition, 0.1, 1, 1) == pytest.approx(0.1)
    assert exposure_probability(toy_partition, 0.5, 0, 1) == pytest.approx(0.25)
    assert exposure_probability(toy_partition, 0.3, 0, 0) == pytest.approx(0.49)


def test_exposure_probability_matches_enumeration(toy_graph, toy_partition):
    # exact identity: sum over atoms of exposure * probability == p^c / (1-p)^c
    for p in (0.2, 0.5, 0.77):
        freq1 = np.zeros(9)
        freq0 = np.zeros(9)
        for bits, prob in design.enumerate_assignments(toy_partition, p):
            z = expand(toy_partition, bits)
            freq1 += prob * design.exposure_vector(toy_graph, z, 1)
            freq0 += prob * design.exposure_vector(toy_graph, z, 0)
        for i in range(9):
            assert freq1[i] == pytest.approx(
                exposure_probability(toy_partition, p, i, 1), abs=1e-12
            )
            assert freq0[i] == pytest.approx(
                exposure_probability(toy_partition, p, i, 0), abs=1e-12
            )


def test_inverse_clean_probability_is_computed_once_per_p(toy_partition):
    inv1, inv0 = toy_partition.inverse_clean_probability(0.3)
    again = toy_partition.inverse_clean_probability(0.3)
    assert again[0] is inv1 and again[1] is inv0
    assert not inv1.flags.writeable and not inv0.flags.writeable
    for i in range(9):
        assert inv1[i] == pytest.approx(1.0 / exposure_probability(toy_partition, 0.3, i, 1), rel=1e-15)
        assert inv0[i] == pytest.approx(1.0 / exposure_probability(toy_partition, 0.3, i, 0), rel=1e-15)
    assert toy_partition.inverse_clean_probability(0.6)[0] is not inv1


def test_inverse_clean_probability_rejects_bad_proportion(toy_partition):
    for p in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            toy_partition.inverse_clean_probability(p)


@st.composite
def partition_with_isolated_nodes(draw):
    """A random graph whose last 1-3 nodes touch no edge, cut into K <= 10 clusters."""
    linked = draw(st.integers(min_value=2, max_value=10))
    n = linked + draw(st.integers(min_value=1, max_value=3))
    pairs = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1))
    edges = [(a, b) for a, b in draw(st.lists(pairs, min_size=1, max_size=30)) if a != b]
    if not edges:
        edges = [(0, 1)]
    e = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    g = from_edges(e[:, 0], e[:, 1], n)
    raw = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    _, dense = np.unique(np.array(raw), return_inverse=True)
    return g, decompose(g, dense)


@given(partition_with_isolated_nodes(), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_enumerated_clean_frequencies_equal_clean_probability(gp, p):
    g, part = gp
    assert (g.degrees == 0).any() and part.cluster_count <= 10
    freq1 = np.zeros(g.node_count)
    freq0 = np.zeros(g.node_count)
    for bits, prob in design.enumerate_assignments(part, p):
        d1, d0 = design.Assignment(g, expand(part, bits)).clean
        freq1 += prob * d1
        freq0 += prob * d0
    c = part.touch_counts.astype(np.float64)
    q1, q0 = p**c, (1.0 - p) ** c
    np.testing.assert_allclose(freq1, q1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(freq0, q0, rtol=0, atol=1e-12)


@given(partition_with_isolated_nodes(), st.data())
@settings(max_examples=60, deadline=None)
def test_assignment_products_match_direct_products(gp, data):
    g, part = gp
    bits = data.draw(st.lists(st.booleans(), min_size=g.node_count, max_size=g.node_count))
    z = np.array(bits, dtype=np.int8)
    a = design.Assignment(g, z)
    p_mat = g.row_normalized
    zf = z.astype(np.float64)
    assert a.pz.tobytes() == (p_mat @ zf).tobytes()
    assert a.p2z.tobytes() == (p_mat @ (p_mat @ zf)).tobytes()
    d1, d0 = a.clean
    for i in range(g.node_count):
        assert d1[i] == exposure(g, z, i, 1) and d0[i] == exposure(g, z, i, 0), i

    u = outcomes.covariate_vector("clusters", g, part)
    models = [
        outcomes.LinearTwoHopModel(g, 1.0, 0.7, r2, 1.5, interaction=u) for r2 in (0.0, 1.0)
    ]
    models.append(outcomes.PartialLinearModel(g, 1.0, 0.5, u, 1.5, h="sqrt"))
    for model in models:
        assert model.potential(a).tobytes() == model.potential(z).tobytes()
        y_record = model.realize(a, np.random.default_rng(3))
        assert y_record.tobytes() == model.realize(z, np.random.default_rng(3)).tobytes()
    for max_hop in (1, 2):
        basis = predictor.FeatureBasis(g, {"clusters": u}, max_hop)
        assert basis.at(a).values.tobytes() == basis.at(z).values.tobytes()


def star_graph(d):
    """Hub 0 joined to leaves 1..d."""
    indptr = np.concatenate([[0], d + np.arange(d + 1)])
    return Graph(indptr, np.concatenate([np.arange(1, d + 1), np.zeros(d, dtype=np.int64)]))


def test_clean_masks_on_star_hubs_need_every_leaf():
    for d in [*range(1, 3001), 10_000, 65_536, 100_007]:
        g = star_graph(d)
        z = np.ones(d + 1)
        assert design.Assignment(g, z).clean[0][0], d
        z[d] = 0.0
        assert not design.Assignment(g, z).clean[0][0], d
        assert not design.Assignment(g, 1.0 - z).clean[1][0], d


@st.composite
def hub_graph_and_draw(draw):
    """A hub of degree up to ~1000 among random edges and 1-3 isolated nodes,
    under random bits, or with the hub and all but one of its neighbors at one
    level, or all of them at one level."""
    d = draw(st.integers(1, 1000))
    linked = d + 1 + draw(st.integers(0, 20))
    n = linked + draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1))
    edges = [(0, j) for j in range(1, d + 1)]
    edges += [(a, b) for a, b in draw(st.lists(pairs, max_size=40)) if a != b]
    e = np.unique(np.sort(np.array(edges), axis=1), axis=0)
    g = from_edges(e[:, 0], e[:, 1], n)
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, n).astype(np.int8)
    mode = draw(st.sampled_from(["random", "all", "all-but-one"]))
    if mode != "random":
        level, nbrs = draw(st.integers(0, 1)), neighbors(g, 0)
        z[0] = z[nbrs] = level
        if mode == "all-but-one":
            z[draw(st.sampled_from(nbrs.tolist()))] = 1 - level
    return g, z


@given(hub_graph_and_draw())
@settings(max_examples=60, deadline=None)
def test_clean_masks_match_adjacency_reference(gz):
    g, z = gz
    treated_nbrs = g.adjacency() @ z.astype(np.float64)
    d1, d0 = design.Assignment(g, z).clean
    assert np.array_equal(d1, (z == 1) & (treated_nbrs == g.degrees))
    assert np.array_equal(d0, (z == 0) & (treated_nbrs == 0))


@st.composite
def hub_partition_and_bits(draw):
    """A hub graph as above cut into K <= 12 random clusters, under random
    cluster bits, all clusters at one level, or all but one."""
    g, _ = draw(hub_graph_and_draw())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, dense = np.unique(rng.integers(0, draw(st.integers(1, 12)), g.node_count), return_inverse=True)
    part = decompose(g, dense)
    mode = draw(st.sampled_from(["random", "all", "all-but-one"]))
    if mode == "random":
        t = rng.random(part.cluster_count) < 0.5
    else:
        t = np.full(part.cluster_count, bool(draw(st.integers(0, 1))))
        if mode == "all-but-one":
            j = draw(st.integers(0, part.cluster_count - 1))
            t[j] = not t[j]
    return g, part, t


@given(hub_partition_and_bits())
@settings(max_examples=80, deadline=None)
def test_drawn_record_reads_pz_off_cluster_counts_bit_for_bit(case):
    """The lookup must repeat P z in every bit: if scipy ever sums a row in
    another order, this fails instead of reports moving."""
    g, part, t = case
    adjacency = g.adjacency()
    one_hot = np.eye(part.cluster_count, dtype=np.int64)[part.cluster_of]
    assert np.array_equal(part.neighbor_counts.toarray(), adjacency @ one_hot)
    z = expand(part, t)
    a = design.DrawBlock(part, t).record(0)
    p_mat = g.row_normalized
    zf = z.astype(np.float64)
    assert a.z.tobytes() == zf.tobytes() and np.array_equal(a.unit_bits, z)
    assert a.pz.tobytes() == (p_mat @ zf).tobytes()
    assert a.p2z.tobytes() == (p_mat @ (p_mat @ zf)).tobytes()
    treated_nbrs = adjacency @ zf
    d1, d0 = a.clean
    assert np.array_equal(d1, (z == 1) & (treated_nbrs == g.degrees))
    assert np.array_equal(d0, (z == 0) & (treated_nbrs == 0))
    assert np.array_equal(a.t, t) and np.array_equal(design.Assignment(g, z, part).t, t)


@st.composite
def sbm_hub_and_block_of_draws(draw):
    """An SBM whose blocks are the clusters, plus a hub linked to a random
    share of its nodes (so it can touch every cluster) and 0-3 isolated
    nodes, under 1-30 draws at proportions mixed within the block."""
    k, size = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    sbm_graph, labels = sbm.generate(k, size, draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 0.2)),
                                     draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hub, isolated = k * size, draw(st.integers(0, 3))
    spokes = rng.choice(hub, size=draw(st.integers(0, hub)), replace=False)
    edges = sbm_graph.edge_array()
    g = from_edges(np.concatenate([edges[:, 0], np.full(len(spokes), hub)]),
                   np.concatenate([edges[:, 1], spokes]), hub + 1 + isolated)
    part = decompose(g, np.concatenate([labels, rng.integers(0, k, 1 + isolated)]))
    ps = draw(st.lists(st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.9, 0.99]), min_size=1, max_size=30))
    return g, part, [design.draw(part, p, rng).t for p in ps]


@given(sbm_hub_and_block_of_draws())
@settings(max_examples=80, deadline=None)
def test_block_columns_equal_each_draws_own_products_bit_for_bit(case):
    """Column b of a block's P z and P^2 z is, in every bit, the
    matrix-vector product of draw b alone, whatever the block's size and
    proportions, and so is what a record of column b reads."""
    g, part, bits = case
    block = design.DrawBlock(part, bits)
    p_mat = g.row_normalized
    assert block.pz.shape == block.p2z.shape == (g.node_count, len(bits))
    for b, t in enumerate(bits):
        z = expand(part, t).astype(np.float64)
        pz = p_mat @ z
        p2z = p_mat @ pz
        a = block.record(b)
        assert np.array_equal(a.t, t) and a.z.tobytes() == z.tobytes()
        assert block.pz[:, b].tobytes() == a.pz.tobytes() == pz.tobytes()
        assert block.p2z[:, b].tobytes() == a.p2z.tobytes() == p2z.tobytes()


@given(st.one_of(hub_graph_and_draw().map(lambda case: case[0]),
                 sbm_hub_and_block_of_draws().map(lambda case: case[0])))
@settings(max_examples=80, deadline=None)
def test_last_share_table_sums_are_p_times_ones_bit_for_bit(g):
    """table[offset + degrees], and p_ones, the cached copy of it that a
    drawn record's clean mask compares P z with, are P 1 in every bit (0 on
    an isolated node); p_ones is read-only."""
    table, offset = g.share_table
    expected = (g.row_normalized @ np.ones(g.node_count)).tobytes()
    assert table[offset + g.degrees].tobytes() == expected
    assert g.p_ones.tobytes() == expected
    assert not g.p_ones.flags.writeable


def test_record_without_partition_takes_the_one_it_is_used_with(toy_graph, toy_partition):
    z = expand(toy_partition, np.array([True, False, True]))
    y = np.arange(9.0)
    bare = design.Assignment(toy_graph, z)
    a = design.as_assignment(toy_graph, bare, toy_partition)
    assert a.partition is toy_partition and a.z is bare.z
    expected = estimators.cae(toy_graph, toy_partition, z, y)
    assert estimators.cae(toy_graph, toy_partition, bare, y) == expected
    est = estimators.estimate_all(toy_graph, toy_partition, bare, y, 0.5, names=("CAE",))
    assert est.estimates["CAE"] == expected


def test_record_of_another_partition_is_an_error(toy_graph, toy_partition):
    other = decompose(toy_graph, np.zeros(9, dtype=np.int64))
    z = expand(other, np.array([True]))
    a = design.Assignment(toy_graph, z, other)
    y = np.arange(9.0)
    calls = [
        lambda: estimators.ht(toy_graph, toy_partition, a, y, 0.5),
        lambda: estimators.hajek(toy_graph, toy_partition, a, y, 0.5),
        lambda: estimators.cae(toy_graph, toy_partition, a, y),
        lambda: estimators.mii(toy_partition, a, y),
        lambda: estimators.amii(toy_partition, a, y, y, y),
        lambda: estimators.estimate_all(toy_graph, toy_partition, a, y, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="another partition"):
            call()


@pytest.mark.parametrize(
    "z", [np.full(9, 0.5), np.array([1, 2, 1, 0, 0, 0, 1, 1, 1]), np.array([1, 0, 0, 0, 0, 0, 1, 1, 1])],
    ids=["all-half", "a-two", "split-cluster"],
)
def test_a_vector_that_is_not_a_design_on_the_partition_is_refused(toy_graph, toy_partition, z):
    """A record with a partition reads its products off its cluster bits, so
    a vector that is not 0/1, or not constant on every cluster, has none."""
    y = np.arange(9.0)
    calls = [
        lambda: design.Assignment(toy_graph, z, toy_partition),
        lambda: estimators.estimate_all(toy_graph, toy_partition, z, y, 0.5),
        lambda: estimators.ht(toy_graph, toy_partition, z, y, 0.5),
        lambda: estimators.cae(toy_graph, toy_partition, z, y),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not 0/1 and constant on every cluster"):
            call()


def test_assignment_rejects_length_mismatch(toy_graph):
    with pytest.raises(ValueError, match="length mismatch"):
        design.Assignment(toy_graph, np.ones(toy_graph.node_count + 1))


def test_cluster_bits_of_a_record_without_a_partition_are_a_value_error(toy_graph):
    a = design.Assignment(toy_graph, np.ones(toy_graph.node_count))
    with pytest.raises(ValueError, match="cluster bits need a partition"):
        a.t


def test_empirical_exposure_frequency_converges(toy_graph, toy_partition):
    m = 20_000
    rng = np.random.default_rng(11)
    p = 0.4
    counts = np.zeros(9)
    for _ in range(m):
        d = design.draw(toy_partition, p, rng)
        counts += design.exposure_vector(toy_graph, d.unit_bits, 1)
    for i in range(9):
        q = exposure_probability(toy_partition, p, i, 1)
        assert abs(counts[i] / m - q) <= 4 * np.sqrt(q * (1 - q) / m)


def test_enumerate_single_cluster():
    part = decompose(ring_graph(3), np.zeros(3, dtype=int))
    atoms = list(design.enumerate_assignments(part, 0.3))
    assert len(atoms) == 2
    assert atoms[0][0].tolist() == [False]
    assert atoms[0][1] == pytest.approx(0.7)
    assert atoms[1][1] == pytest.approx(0.3)


def test_enumerate_uniform_at_half(toy_partition):
    atoms = list(design.enumerate_assignments(toy_partition, 0.5))
    assert len(atoms) == 8
    assert all(prob == pytest.approx(0.125) for _, prob in atoms)


def test_enumerate_all_treated_probability(toy_partition):
    atoms = {tuple(bits.tolist()): prob for bits, prob in design.enumerate_assignments(toy_partition, 0.1)}
    assert atoms[(True, True, True)] == pytest.approx(0.001)


def test_enumerate_probabilities_sum_to_one(toy_partition):
    total = sum(prob for _, prob in design.enumerate_assignments(toy_partition, 0.23))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_guard():
    part = decompose(path_graph(21), np.arange(21))
    with pytest.raises(ValueError):
        next(design.enumerate_assignments(part, 0.5))
