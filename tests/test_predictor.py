import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgate import design, outcomes, sbm
from netgate.graph import decompose, from_edges
from netgate.predictor import FeatureBasis, build_features, features_at_level, fit, predict


def toy_covariates(g, part):
    return {
        "degree": outcomes.covariate_vector("degree", g),
        "clusters": outcomes.covariate_vector("clusters", g, part),
    }


def test_features_global_treatment_rho_is_one(toy_graph, toy_partition):
    feats = build_features(toy_graph, np.ones(9), toy_covariates(toy_graph, toy_partition))
    rho = feats.values[:, feats.names.index("nbr_z")]
    assert np.allclose(rho, 1.0)


def test_features_global_control_zeroes_treatment_columns(toy_graph, toy_partition):
    feats = build_features(toy_graph, np.zeros(9), toy_covariates(toy_graph, toy_partition))
    for name in ("z", "degree*z", "clusters*z", "nbr_z", "nbr2_z"):
        assert np.allclose(feats.values[:, feats.names.index(name)], 0.0), name


def test_features_tri_ring_partial_exposure(toy_graph, toy_partition):
    z = design.expand(toy_partition, np.array([True, False, False]))  # A treated
    feats = build_features(toy_graph, z, toy_covariates(toy_graph, toy_partition))
    rho = feats.values[:, feats.names.index("nbr_z")]
    assert rho[1] == pytest.approx(1.0)
    assert rho[2] == pytest.approx(2.0 / 3.0)


def test_features_isolated_node_gets_zero_neighbor_means():
    from netgate.graph import from_edges

    g = from_edges(np.array([0]), np.array([1]), 3)
    feats = build_features(g, np.ones(3), {"degree": outcomes.covariate_vector("degree", g)})
    rho = feats.values[:, feats.names.index("nbr_z")]
    assert rho[2] == 0.0


def test_feature_names_pin_column_order(toy_graph, toy_partition):
    covs = toy_covariates(toy_graph, toy_partition)
    assert FeatureBasis(toy_graph, covs).names == (
        "const", "z", "degree", "clusters", "degree*z", "clusters*z",
        "nbr_z", "nbr_degree", "nbr_clusters", "nbr2_z", "nbr2_degree", "nbr2_clusters",
    )
    one = FeatureBasis(toy_graph, {"degree": covs["degree"]}, max_hop=1)
    assert one.names == ("const", "z", "degree", "degree*z", "nbr_z", "nbr_degree")


def reference_features(g, z, covariates, max_hop):
    """Every column rebuilt from scratch, in the documented order."""
    p = g.row_normalized()
    z = np.asarray(z, dtype=np.float64)
    us = [np.asarray(v, dtype=np.float64) for v in covariates.values()]
    cols = [np.ones(g.node_count), z, *us, *(u * z for u in us), p @ z, *(p @ u for u in us)]
    if max_hop == 2:
        cols += [p @ (p @ z), *(p @ (p @ u) for u in us)]
    return np.column_stack(cols)


@st.composite
def graph_with_isolates(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    # the last two nodes never get an edge
    pairs = st.tuples(st.integers(0, n - 3), st.integers(0, n - 3))
    edges = {(min(a, b), max(a, b)) for a, b in draw(st.lists(pairs, max_size=60)) if a != b}
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return from_edges(e[:, 0], e[:, 1], n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_feature_basis_reused_across_draws_matches_fresh_builds(data):
    g = data.draw(graph_with_isolates())
    n = g.node_count
    values = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    covs = {f"u{j}": np.array(data.draw(values)) for j in range(data.draw(st.integers(1, 3)))}
    max_hop = data.draw(st.sampled_from([1, 2]))
    basis = FeatureBasis(g, covs, max_hop)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    for z in data.draw(st.lists(bits, min_size=1, max_size=6)):
        z = np.array(z, dtype=np.int8)
        got = basis.at(z)
        fresh = build_features(g, z, covs, max_hop)
        assert got.names == fresh.names == basis.names
        assert got.values.tobytes() == fresh.values.tobytes()
        assert got.values.tobytes() == reference_features(g, z, covs, max_hop).tobytes()
    for level in (0, 1):
        at_level = features_at_level(g, covs, level, max_hop)
        assert at_level.names == basis.names
        assert at_level.values.tobytes() == basis.at(np.full(n, float(level))).values.tobytes()


def test_fit_recovers_exact_linear_combination(interior_rich_sbm):
    # on the tri-ring toy the touch count is degree-1 exactly, which makes
    # [1, degree, clusters] collinear; use a graph where they are independent
    g, part = interior_rich_sbm
    rng = np.random.default_rng(0)
    z = (rng.random(g.node_count) < 0.5).astype(float)
    feats = build_features(g, z, toy_covariates(g, part), max_hop=1)
    w_true = rng.standard_normal(feats.values.shape[1])
    y = feats.values @ w_true
    fitted = fit(feats, y, ridge_lambda=0.0)
    assert not fitted.fallback_used
    assert np.abs(fitted.coefficients - w_true).max() < 1e-8


def test_fit_constant_outcome_gives_intercept_only(interior_rich_sbm):
    g, part = interior_rich_sbm
    rng = np.random.default_rng(1)
    z = design.draw(part, 0.5, rng).unit_bits.astype(float)
    feats = build_features(g, z, {"degree": outcomes.covariate_vector("degree", g)})
    fitted = fit(feats, np.full(g.node_count, 4.2), ridge_lambda=0.0)
    assert fitted.coefficient("const") == pytest.approx(4.2, abs=1e-8)
    others = [w for name, w in zip(fitted.names, fitted.coefficients) if name != "const"]
    assert np.abs(np.asarray(others)).max() < 1e-8


def test_fit_shrinkage_monotone_in_lambda(toy_graph, toy_partition):
    rng = np.random.default_rng(2)
    z = (rng.random(9) < 0.5).astype(float)
    feats = build_features(toy_graph, z, toy_covariates(toy_graph, toy_partition), max_hop=1)
    y = rng.standard_normal(9) + feats.values @ rng.standard_normal(feats.values.shape[1])
    norms = [
        np.linalg.norm(fit(feats, y, ridge_lambda=lam).coefficients)
        for lam in (0.0, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:])), norms


def test_fit_rank_deficient_falls_back_with_flag(toy_graph):
    # duplicated covariate makes F'F exactly singular at lambda=0
    dup = {"a": toy_graph.degrees.astype(float), "b": toy_graph.degrees.astype(float)}
    feats = build_features(toy_graph, np.ones(9), dup, max_hop=1)
    fitted = fit(feats, np.arange(9, dtype=float), ridge_lambda=0.0)
    assert fitted.fallback_used
    assert fitted.ridge_lambda == pytest.approx(1e-8)


def test_fit_default_lambda_is_scale_aware(toy_graph, toy_partition):
    feats = build_features(toy_graph, np.ones(9), toy_covariates(toy_graph, toy_partition))
    fitted = fit(feats, np.arange(9, dtype=float))
    gram = feats.values.T @ feats.values
    assert fitted.ridge_lambda == pytest.approx(1e-6 * np.trace(gram) / gram.shape[0])


def test_fit_normal_equation_residual_invariant(interior_rich_sbm):
    g, part = interior_rich_sbm
    rng = np.random.default_rng(3)
    z = design.draw(part, 0.3, rng).unit_bits.astype(float)
    feats = build_features(g, z, {"degree": outcomes.covariate_vector("degree", g)})
    y = rng.standard_normal(g.node_count)
    fitted = fit(feats, y, ridge_lambda=0.5)
    f = feats.values
    lhs = f.T @ f + 0.5 * np.eye(f.shape[1])
    rhs = f.T @ y
    assert np.linalg.norm(lhs @ fitted.coefficients - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_fit_empty_mask_rejected(toy_graph, toy_partition):
    feats = build_features(toy_graph, np.ones(9), toy_covariates(toy_graph, toy_partition))
    with pytest.raises(ValueError):
        fit(feats, np.ones(9), mask=np.zeros(9, dtype=bool))


@pytest.mark.parametrize(
    "mask",
    [np.array([0, 2, 5]), np.ones(9, dtype=np.int8), np.ones(8, dtype=bool), np.ones((9, 1), dtype=bool)],
    ids=["index-array", "int-vector", "short", "column"],
)
def test_fit_rejects_a_mask_that_is_not_one_bool_per_row(toy_graph, toy_partition, mask):
    feats = build_features(toy_graph, np.ones(9), toy_covariates(toy_graph, toy_partition))
    with pytest.raises(ValueError, match="boolean vector with one entry per row"):
        fit(feats, np.ones(9), mask=mask)


def exact_span_setup(seed=5, p=0.5):
    g, labels = sbm.generate(communities=6, size=20, p_in=0.4, p_out=0.02, seed=9)
    part = decompose(g, labels)
    model = outcomes.linear_two_hop(
        g, beta=1.0, r1=1.0, r2=0.0, sigma=0.0, interaction=("degree", "clusters"), p_part=part
    )
    covs = toy_covariates(g, part)
    rng = np.random.default_rng(seed)
    d = design.draw(part, p, rng)
    y = model.potential(d.unit_bits)
    feats = build_features(g, d.unit_bits, covs)
    return g, part, model, covs, d, y, feats


def test_predict_counterfactual_exact_on_in_span_model():
    g, part, model, covs, d, y, feats = exact_span_setup()
    fitted = fit(feats, y, ridge_lambda=0.0)
    pred1 = predict(fitted, features_at_level(g, covs, 1))
    pred0 = predict(fitted, features_at_level(g, covs, 0))
    tau = outcomes.true_gate(model)
    assert abs((pred1.mean() - pred0.mean()) - tau) < 1e-6
    assert np.abs(pred0).max() < 1e-6  # Y(0) = 0 and the model is in span


def test_predict_constant_predictor(toy_graph, toy_partition):
    covs = toy_covariates(toy_graph, toy_partition)
    rng = np.random.default_rng(6)
    z = (rng.random(9) < 0.5).astype(float)
    feats = build_features(toy_graph, z, covs)
    fitted = fit(feats, np.full(9, 2.5), ridge_lambda=0.0)
    for level in (0, 1):
        pred = predict(fitted, features_at_level(toy_graph, covs, level))
        assert np.allclose(pred, 2.5, atol=1e-7)


def test_predict_descriptor_mismatch_errors(toy_graph, toy_partition):
    covs = toy_covariates(toy_graph, toy_partition)
    feats = build_features(toy_graph, np.ones(9), covs)
    fitted = fit(feats, np.ones(9))
    with pytest.raises(ValueError):
        predict(fitted, features_at_level(toy_graph, {"degree": covs["degree"]}, 1))
    other = features_at_level(toy_graph, covs, 1, max_hop=1)
    with pytest.raises(ValueError):
        predict(fitted, other)


def test_boundary_and_full_masks_both_deterministic(interior_rich_sbm):
    g, part = interior_rich_sbm
    covs = {"degree": outcomes.covariate_vector("degree", g)}
    rng = np.random.default_rng(8)
    z = design.draw(part, 0.3, rng).unit_bits.astype(float)
    y = rng.standard_normal(g.node_count)
    feats = build_features(g, z, covs)
    full_a = fit(feats, y)
    full_b = fit(feats, y)
    bnd_a = fit(feats, y, mask=~part.interior_mask)
    bnd_b = fit(feats, y, mask=~part.interior_mask)
    assert np.array_equal(full_a.coefficients, full_b.coefficients)
    assert np.array_equal(bnd_a.coefficients, bnd_b.coefficients)
    assert not np.array_equal(full_a.coefficients, bnd_a.coefficients)
