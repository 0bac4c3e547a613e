import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate import design, estimators, outcomes
from netgate.estimators import (
    DegenerateArmError,
    amii,
    amii_ppi_form,
    cae,
    dim,
    estimate_all,
    gnn_point,
    hajek,
    ht,
    mii,
)
from netgate.graph import decompose, from_edges
from netgate.oracles import tri_ring_partition


def a_treated(part):
    """Tri-ring draw: cluster A treated, B and C control."""
    return design.expand(part, np.array([True, False, False])).astype(float)


# ---------------------------------------------------------------- dim


def test_dim_unit_effect():
    z = np.array([1, 0, 1, 0], dtype=float)
    assert dim(z, z.copy()) == pytest.approx(1.0)


def test_dim_constant_outcome():
    z = np.array([1, 0, 1, 0], dtype=float)
    assert dim(z, np.full(4, 3.3)) == pytest.approx(0.0)


def test_dim_two_point():
    assert dim(np.array([1, 0]), np.array([3.0, 1.0])) == pytest.approx(2.0)


def test_dim_degenerate_arm():
    with pytest.raises(DegenerateArmError):
        dim(np.ones(4), np.ones(4))


# ---------------------------------------------------------------- ht


def enumeration_expectation(g, part, model, p, fn):
    """Design expectation of a per-draw estimator via full enumeration."""
    total = 0.0
    for bits, prob in design.enumerate_assignments(part, p):
        z = design.expand(part, bits).astype(float)
        y = model.potential(z)
        total += prob * fn(z, y)
    return total


def test_ht_exactly_unbiased_by_enumeration(toy_graph, toy_partition):
    model = outcomes.linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    tau = outcomes.true_gate(model)
    for p in (0.2, 0.5):
        expect = enumeration_expectation(
            toy_graph, toy_partition, model, p,
            lambda z, y: ht(toy_graph, toy_partition, z, y, p),
        )
        assert expect == pytest.approx(tau, abs=1e-12)


def test_ht_all_treated_draw_flags_missing_control(toy_graph, toy_partition):
    model = outcomes.linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    z = np.ones(9)
    y = model.potential(z)
    value = ht(toy_graph, toy_partition, z, y, 0.5)
    assert value >= 0.0
    es = estimate_all(toy_graph, toy_partition, z, y, 0.5, names=("HT",))
    assert "no_clean_control" in es.diagnostics["HT"]["flags"]
    assert es.estimates["HT"] is not None


def test_ht_single_cluster_reduces_to_scaled_mean(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    y = np.arange(9, dtype=float)
    z = np.ones(9)
    assert ht(toy_graph, part, z, y, 0.25) == pytest.approx(y.mean() / 0.25)
    z = np.zeros(9)
    assert ht(toy_graph, part, z, y, 0.25) == pytest.approx(-y.mean() / 0.75)


def test_ht_is_not_shift_invariant(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(9)
    assert ht(toy_graph, toy_partition, z, y, 0.3) != pytest.approx(
        ht(toy_graph, toy_partition, z, y + 5.0, 0.3)
    )


def star_with_isolates(leaves, leaf_clusters, isolates):
    """Hub 0 joined to `leaves` leaves, then `isolates` isolated nodes. The
    hub and each isolated node are singleton clusters; leaf i sits in
    cluster 1 + i % leaf_clusters, so the hub touches leaf_clusters + 1."""
    n = 1 + leaves + isolates
    g = from_edges(np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1), n)
    labels = np.concatenate([
        [0],
        1 + np.arange(leaves) % leaf_clusters,
        leaf_clusters + 1 + np.arange(isolates),
    ])
    return g, decompose(g, labels)


def test_unreachable_hub_exposure_is_not_a_degenerate_draw():
    # every node its own cluster: the hub touches 401 clusters, and its
    # p^401 underflows to 0 although the hub is never cleanly treated
    g, part = star_with_isolates(400, 400, 0)
    assert part.touch_counts[0] == 401
    rng = np.random.default_rng(0)
    p = 0.1
    for _ in range(200):
        z = design.draw(part, p, rng).unit_bits
        y = rng.standard_normal(g.node_count)
        es = estimate_all(g, part, z, y, p, names=("HT", "HAJEK"))
        assert es.estimates["HT"] is not None
        # a star never has clean nodes at both levels: Hajek is degenerate
        # for that reason, not for a non-finite value
        assert es.diagnostics["HAJEK"]["flags"] == [
            "degenerate: an arm has no cleanly exposed nodes"
        ]


@given(
    leaves=st.integers(min_value=1, max_value=500),
    leaf_clusters=st.integers(min_value=1, max_value=500),
    p=st.one_of(st.floats(1e-4, 0.05), st.floats(0.95, 1 - 1e-4)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ht_and_hajek_finite_when_both_arms_have_a_clean_node(leaves, leaf_clusters, p, seed):
    # two isolated nodes, one per arm, keep both arms clean on every draw
    g, part = star_with_isolates(leaves, min(leaf_clusters, leaves), 2)
    rng = np.random.default_rng(seed)
    z = design.draw(part, p, rng).unit_bits
    z[-2:] = (1, 0)
    y = rng.standard_normal(g.node_count)
    assert math.isfinite(ht(g, part, z, y, p))
    assert math.isfinite(hajek(g, part, z, y, p))


# ---------------------------------------------------------------- hajek


def test_hajek_constant_outcome_is_zero(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    assert hajek(toy_graph, toy_partition, z, np.full(9, 7.0), 0.3) == pytest.approx(0.0)


def test_hajek_single_cluster_is_degenerate(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    with pytest.raises(DegenerateArmError):
        hajek(toy_graph, part, np.ones(9), np.arange(9, dtype=float), 0.5)


def test_hajek_design_bias_is_nonzero_under_interactions(toy_graph, toy_partition):
    # conditional expectation over non-degenerate atoms, mirroring how the
    # Monte Carlo layer excludes degenerate repetitions
    model = outcomes.linear_two_hop(
        toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0,
        interaction=("degree", "clusters"), p_part=toy_partition,
    )
    tau = outcomes.true_gate(model)
    p = 0.4
    total, mass = 0.0, 0.0
    for bits, prob in design.enumerate_assignments(toy_partition, p):
        z = design.expand(toy_partition, bits).astype(float)
        y = model.potential(z)
        try:
            value = hajek(toy_graph, toy_partition, z, y, p)
        except DegenerateArmError:
            continue
        total += prob * value
        mass += prob
    conditional = total / mass
    assert abs(conditional - tau) > 1e-8


# ---------------------------------------------------------------- cae


def test_cae_all_interior_components():
    # three disjoint triangles, clusters = components: every node clean
    e = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)])
    g = from_edges(e[:, 0], e[:, 1], 9)
    part = decompose(g, np.repeat(np.arange(3), 3))
    assert part.interior_mask.all()
    z = design.expand(part, np.array([True, True, False])).astype(float)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(9)
    cluster_means = [y[0:3].mean(), y[3:6].mean(), y[6:9].mean()]
    expected = np.mean(cluster_means[0:2]) - cluster_means[2]
    assert cae(g, part, z, y) == pytest.approx(expected, abs=1e-12)


def test_cae_tri_ring_treated_term_is_node_one(toy_graph, toy_partition):
    model = outcomes.linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    z = a_treated(toy_partition)
    y = model.potential(z)
    # clean sets: A at level 1 -> {1}; B at level 0 -> {4,5}; C -> {6,7}
    expected = y[1] - 0.5 * (y[[4, 5]].mean() + y[[6, 7]].mean())
    assert cae(toy_graph, toy_partition, z, y) == pytest.approx(expected, abs=1e-12)
    assert cae(toy_graph, toy_partition, z, y) == pytest.approx(2.0, abs=1e-12)


def test_cae_constant_outcome_is_zero(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    assert cae(toy_graph, toy_partition, z, np.full(9, 1.1)) == pytest.approx(0.0)


def test_cae_degenerate_when_one_arm_missing(toy_graph, toy_partition):
    with pytest.raises(DegenerateArmError):
        cae(toy_graph, toy_partition, np.ones(9), np.arange(9, dtype=float))


def test_cae_skips_clusters_without_clean_nodes():
    # path of 4 clusters; middle clusters' nodes all border other clusters
    g = from_edges(np.arange(7), np.arange(1, 8), 8)
    part = decompose(g, np.repeat(np.arange(4), 2))
    z = design.expand(part, np.array([True, False, True, False])).astype(float)
    y = np.arange(8, dtype=float)
    es = estimate_all(g, part, z, y, 0.5, names=("CAE",))
    diag = es.diagnostics["CAE"]
    assert diag["clusters_skipped_treated"] + diag["clusters_skipped_control"] > 0


# ---------------------------------------------------------------- mii


def test_mii_constant_outcome(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    assert mii(toy_partition, z, np.full(9, 5.0)) == pytest.approx(0.0)


def test_mii_tri_ring_hand_value(toy_partition, toy_graph):
    # interior treated node 1 sees full exposure: Y_1 = beta + r1 = 2;
    # interior controls 4 and 7 see zero exposure: Y = 0
    model = outcomes.linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    z = a_treated(toy_partition)
    y = model.potential(z)
    assert y[1] == pytest.approx(2.0)
    assert y[4] == pytest.approx(0.0) and y[7] == pytest.approx(0.0)
    assert mii(toy_partition, z, y) == pytest.approx(y[1] - y[[4, 7]].mean(), abs=1e-12)
    assert mii(toy_partition, z, y) == pytest.approx(2.0, abs=1e-12)


def test_mii_single_cluster_is_degenerate(toy_graph):
    part = decompose(toy_graph, np.zeros(9, dtype=int))
    with pytest.raises(DegenerateArmError):
        mii(part, np.ones(9), np.arange(9, dtype=float))


def test_mii_equals_dim_on_all_interior_partition():
    e = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    g = from_edges(e[:, 0], e[:, 1], 6)
    part = decompose(g, np.repeat(np.arange(2), 3))
    assert part.interior_mask.all()
    z = design.expand(part, np.array([True, False])).astype(float)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(6)
    assert mii(part, z, y) == pytest.approx(dim(z, y), abs=1e-14)


# ---------------------------------------------------------------- gnn / amii


def test_gnn_point_equal_predictions():
    pred = np.arange(5, dtype=float)
    assert gnn_point(pred, pred) == 0.0


def test_gnn_point_length_mismatch():
    with pytest.raises(ValueError):
        gnn_point(np.ones(3), np.ones(4))


def test_amii_constant_predictions_reduce_to_mii(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(9)
    base = mii(toy_partition, z, y)
    value = amii(toy_partition, z, y, np.full(9, 2.0), np.full(9, -1.0))
    assert value == pytest.approx(base, abs=1e-12)


def test_amii_degenerate_like_mii(toy_graph, toy_partition):
    with pytest.raises(DegenerateArmError):
        amii(toy_partition, np.ones(9), np.ones(9), np.ones(9), np.ones(9))


def test_shift_equivariance(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(9)
    pred1 = rng.standard_normal(9)
    pred0 = rng.standard_normal(9)
    c = 13.7
    assert dim(z, y + c) == pytest.approx(dim(z, y), abs=1e-12)
    assert hajek(toy_graph, toy_partition, z, y + c, 0.3) == pytest.approx(
        hajek(toy_graph, toy_partition, z, y, 0.3), abs=1e-12
    )
    assert cae(toy_graph, toy_partition, z, y + c) == pytest.approx(
        cae(toy_graph, toy_partition, z, y), abs=1e-12
    )
    assert mii(toy_partition, z, y + c) == pytest.approx(mii(toy_partition, z, y), abs=1e-12)
    assert amii(toy_partition, z, y + c, pred1, pred0) == pytest.approx(
        amii(toy_partition, z, y, pred1, pred0), abs=1e-12
    )
    assert ht(toy_graph, toy_partition, z, y + c, 0.3) != pytest.approx(
        ht(toy_graph, toy_partition, z, y, 0.3)
    )


# ---------------------------------------------------------------- ppi form


def test_ppi_form_residuals_vanish_when_predictions_match(toy_partition):
    z = a_treated(toy_partition)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(9)
    pred1 = rng.standard_normal(9)
    it = toy_partition.interior_mask & (z == 1)
    pred1[it] = y[it]
    assert amii_ppi_form(toy_partition, z, y, pred1) == pytest.approx(pred1.mean(), abs=1e-12)


def test_ppi_form_zero_predictions(toy_partition):
    z = a_treated(toy_partition)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(9)
    it = toy_partition.interior_mask & (z == 1)
    assert amii_ppi_form(toy_partition, z, y, np.zeros(9)) == pytest.approx(y[it].mean())


def test_ppi_form_needs_treated_interior(toy_partition):
    with pytest.raises(DegenerateArmError):
        amii_ppi_form(toy_partition, np.zeros(9), np.ones(9), np.ones(9))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_amii_matches_ppi_rearrangement(seed):
    rng = np.random.default_rng(seed)
    part = tri_ring_partition()
    bits = np.zeros(3, dtype=bool)
    while bits.all() or not bits.any():
        bits = rng.random(3) < 0.5
    z = design.expand(part, bits).astype(float)
    y = rng.standard_normal(9) * rng.uniform(0.1, 10)
    pred1 = rng.standard_normal(9) * rng.uniform(0.1, 10)
    pred0 = rng.standard_normal(9) * rng.uniform(0.1, 10)
    treated = amii_ppi_form(part, z, y, pred1)
    control = amii_ppi_form(part, 1 - z, y, pred0)
    assert abs(amii(part, z, y, pred1, pred0) - (treated - control)) <= 1e-10


# ---------------------------------------------------------------- estimate_all


def test_estimate_all_marks_degenerate_without_silent_zero(toy_graph, toy_partition):
    z = np.ones(9)
    y = np.arange(9, dtype=float)
    es = estimate_all(toy_graph, toy_partition, z, y, 0.5, np.ones(9), np.ones(9))
    assert es.estimates["MII"] is None
    assert any("degenerate" in f for f in es.diagnostics["MII"]["flags"])
    assert es.estimates["HT"] is not None


def test_estimate_all_records_counts(toy_graph, toy_partition):
    z = a_treated(toy_partition)
    y = np.arange(9, dtype=float)
    es = estimate_all(toy_graph, toy_partition, z, y, 0.3, np.ones(9), np.zeros(9))
    assert es.diagnostics["MII"]["s1"] == 1
    assert es.diagnostics["MII"]["s0"] == 2
    assert es.diagnostics["HT"]["clean_treated"] == 1
    assert es.diagnostics["HT"]["clean_control"] == 4
    assert set(es.estimates) == set(estimators.ESTIMATOR_NAMES)


def test_estimate_all_keeps_counts_of_degenerate_draws(toy_graph, toy_partition):
    # all-treated: every arm-0 quantity is empty, so HAJEK, CAE, MII and AMII
    # are degenerate, and their diagnostics still say what the draw held
    z = np.ones(9)
    y = np.arange(9, dtype=float)
    es = estimate_all(toy_graph, toy_partition, z, y, 0.5, np.ones(9), np.ones(9))
    for key in ("HAJEK", "CAE", "MII", "AMII"):
        assert es.estimates[key] is None, key
        assert any(f.startswith("degenerate") for f in es.diagnostics[key]["flags"]), key
    assert es.diagnostics["HAJEK"]["clean_treated"] == 9
    assert es.diagnostics["HAJEK"]["clean_control"] == 0
    cae_diag = es.diagnostics["CAE"]
    assert (cae_diag["clusters_used_treated"], cae_diag["clusters_used_control"]) == (3, 0)
    assert (cae_diag["clusters_skipped_treated"], cae_diag["clusters_skipped_control"]) == (0, 0)
    for key in ("MII", "AMII"):
        assert (es.diagnostics[key]["s1"], es.diagnostics[key]["s0"]) == (3, 0), key


def test_estimate_all_skips_exposure_when_no_estimator_reads_it(
    toy_graph, toy_partition, monkeypatch
):
    def no_exposure(self):
        raise AssertionError("clean masks computed")

    monkeypatch.setattr(design.Assignment, "clean", property(no_exposure))
    z = a_treated(toy_partition)
    y = np.arange(9, dtype=float)
    es = estimate_all(
        toy_graph, toy_partition, z, y, 0.3, np.ones(9), np.zeros(9), ("DIM", "MII", "AMII", "GNN")
    )
    assert all(v is not None for v in es.estimates.values())
    with pytest.raises(AssertionError):
        estimate_all(toy_graph, toy_partition, z, y, 0.3, names=("DIM", "HT"))


def test_estimate_all_rejects_unknown_names(toy_graph, toy_partition):
    with pytest.raises(ValueError):
        estimate_all(toy_graph, toy_partition, np.ones(9), np.ones(9), 0.5, names=("BOGUS",))
