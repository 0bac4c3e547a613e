import numpy as np
import pytest

from netgate import sbm
from netgate.graph import decompose, from_edges
from netgate.outcomes import (
    PartialLinearModel,
    covariate_vector,
    global_treatment_mean,
    interior_mean_gap,
    linear_two_hop,
    true_gate,
)


def dense_interference(g, r1, r2):
    """Brute-force reference: (11^T - I) masked powers of D^-1 A."""
    n = g.node_count
    a = g.adjacency().toarray()
    deg = g.degrees.astype(float)
    p = np.divide(a, deg[:, None], out=np.zeros_like(a), where=deg[:, None] > 0)
    b = r1 * p + r2 * (p @ p)
    np.fill_diagonal(b, 0.0)
    return b


def test_potential_zero_vector_is_zero(toy_graph, toy_partition):
    model = linear_two_hop(toy_graph, interaction=("degree", "clusters"), p_part=toy_partition, sigma=0.0)
    assert np.allclose(model.potential(np.zeros(9)), 0.0)


def test_potential_no_interference_is_beta(toy_graph):
    model = linear_two_hop(toy_graph, beta=1.7, r1=0.0, r2=0.0, sigma=0.0)
    assert np.allclose(model.potential(np.ones(9)), 1.7)


def test_potential_tri_ring_full_treatment(toy_graph):
    model = linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    assert np.allclose(model.potential(np.ones(9)), 2.0)


def test_realize_sigma_zero_equals_potential(toy_graph):
    model = linear_two_hop(toy_graph, sigma=0.0)
    z = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
    assert np.array_equal(model.realize(z, np.random.default_rng(0)), model.potential(z))


def test_realize_deterministic_for_fixed_seed(toy_graph):
    model = linear_two_hop(toy_graph, sigma=2.0)
    z = np.ones(9)
    a = model.realize(z, np.random.default_rng(33))
    b = model.realize(z, np.random.default_rng(33))
    assert np.array_equal(a, b)


def test_realize_noise_mean_clt_bound(toy_graph):
    model = linear_two_hop(toy_graph, sigma=2.0)
    z = np.ones(9)
    base = model.potential(z)
    rng = np.random.default_rng(17)
    acc = np.zeros(9)
    reps = 10_000
    for _ in range(reps):
        acc += model.realize(z, rng) - base
    assert np.abs(acc / reps).max() <= 4 * 2.0 / np.sqrt(reps)


def test_true_gate_two_covariates_is_three(toy_graph, toy_partition):
    model = linear_two_hop(
        toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0,
        interaction=("degree", "clusters"), p_part=toy_partition,
    )
    assert true_gate(model) == pytest.approx(3.0, abs=1e-12)
    assert global_treatment_mean(model) == pytest.approx(3.0, abs=1e-12)


def test_true_gate_with_two_hop_matches_dense_oracle(toy_graph, toy_partition):
    # off-diagonal row sums of P^2 fall short of 1 by diag(P^2), so the
    # two-hop term adds mean(1 - diag(P^2)), not a full unit
    model = linear_two_hop(
        toy_graph, beta=1.0, r1=1.0, r2=1.0, sigma=0.0,
        interaction=("degree", "clusters"), p_part=toy_partition,
    )
    b = dense_interference(toy_graph, 1.0, 1.0)
    expected = 1.0 + b.sum(axis=1).mean() + 1.0
    assert true_gate(model) == pytest.approx(expected, abs=1e-12)
    assert true_gate(model) == pytest.approx(3.0 + 17.0 / 27.0, abs=1e-12)


def test_true_gate_null_model(toy_graph):
    model = linear_two_hop(toy_graph, beta=0.0, r1=0.0, r2=0.0, sigma=0.0)
    assert true_gate(model) == 0.0


@pytest.mark.parametrize("r2", [0.0, 1.0])
def test_sparse_matches_dense_on_random_graphs(r2):
    for seed in range(4):
        g, labels = sbm.generate(communities=4, size=30, p_in=0.2, p_out=0.03, seed=seed)
        part = decompose(g, labels)
        model = linear_two_hop(
            g, beta=0.8, r1=1.3, r2=r2, sigma=0.0, interaction=("degree",), p_part=part
        )
        b = dense_interference(g, 1.3, r2)
        rng = np.random.default_rng(seed)
        z = (rng.random(g.node_count) < 0.4).astype(float)
        expected = 0.8 * z + b @ z + model.interaction * z
        assert np.abs(model.potential(z) - expected).max() < 1e-10


def test_linearity_in_disjoint_assignments(toy_graph):
    model = linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=1.0, sigma=0.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z1 = (rng.random(9) < 0.3).astype(float)
        z2 = (rng.random(9) < 0.3).astype(float) * (1 - z1)
        lhs = model.potential(z1 + z2)
        rhs = model.potential(z1) + model.potential(z2) - model.potential(np.zeros(9))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_nia_holds_for_one_hop_and_fails_for_two_hop(toy_graph):
    one_hop = linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=0.0, sigma=0.0)
    two_hop = linear_two_hop(toy_graph, beta=1.0, r1=1.0, r2=1.0, sigma=0.0)
    # node 1's closed neighborhood is {0,1,2}; node 3 is two hops away
    z = np.zeros(9)
    z_far = z.copy()
    z_far[3] = 1.0
    assert one_hop.potential(z)[1] == one_hop.potential(z_far)[1]
    assert two_hop.potential(z)[1] != two_hop.potential(z_far)[1]


def test_nia_partial_linear_model(toy_graph):
    rng = np.random.default_rng(4)
    model = PartialLinearModel(
        toy_graph, beta=1.0, alpha=0.5, u=covariate_vector("degree", toy_graph),
        sigma=0.0, h="quadratic", h_scale=2.0, v=rng.standard_normal(9),
    )
    z = np.zeros(9)
    z_far = z.copy()
    z_far[4] = 1.0  # distance >= 2 from node 1
    assert model.potential(z)[1] == model.potential(z_far)[1]


def test_interior_mean_gap_constant_u(toy_graph, toy_partition):
    model = PartialLinearModel(toy_graph, 1.0, 1.0, u=np.ones(9), sigma=0.0)
    assert interior_mean_gap(model, toy_partition) == 0.0


def test_interior_mean_gap_touch_counts(toy_graph, toy_partition):
    model = PartialLinearModel(
        toy_graph, 1.0, 1.0, u=toy_partition.touch_counts.astype(float), sigma=0.0
    )
    assert interior_mean_gap(model, toy_partition) == pytest.approx(1.0 - 5.0 / 3.0)


def test_interior_mean_gap_empty_interior():
    # alternating clusters on a path leave no interior nodes
    u = np.arange(5)
    g = from_edges(u[:-1], u[1:], 5)
    part = decompose(g, np.array([0, 1, 0, 1, 0]))
    assert not part.interior_mask.any()
    model = PartialLinearModel(g, 1.0, 1.0, u=np.ones(5), sigma=0.0)
    with pytest.raises(ValueError):
        interior_mean_gap(model, part)


def test_partial_linear_h_families(toy_graph):
    z = np.ones(9)
    for kind, value in (("linear", 1.0), ("sqrt", 1.0), ("quadratic", 1.0)):
        model = PartialLinearModel(toy_graph, 0.0, 0.0, u=np.zeros(9), sigma=0.0, h=kind, h_scale=3.0)
        assert np.allclose(model.potential(z), 3.0 * value)
    half = np.zeros(9)
    half[[0, 1, 2]] = 1.0  # node 4's neighbors {3,5} untreated, node 3 has 1/3 treated
    model = PartialLinearModel(toy_graph, 0.0, 0.0, u=np.zeros(9), sigma=0.0, h="quadratic", h_scale=1.0)
    assert model.potential(half)[3] == pytest.approx((1.0 / 3.0) ** 2)


@pytest.mark.paperdata
def test_interior_degree_gap_is_negative_on_real_network(stanford3, stanford3_partitions):
    # interior nodes of the social network skew low-degree, so the gap
    # between interior and population mean normalized degree is negative
    part = stanford3_partitions[5.0]
    model = PartialLinearModel(
        stanford3, 1.0, 1.0, u=covariate_vector("degree", stanford3), sigma=0.0
    )
    assert interior_mean_gap(model, part) < 0


def test_model_rejects_bad_params(toy_graph):
    with pytest.raises(ValueError):
        PartialLinearModel(toy_graph, 1.0, 1.0, u=np.zeros(9), sigma=-1.0)
    with pytest.raises(ValueError):
        PartialLinearModel(toy_graph, 1.0, 1.0, u=np.zeros(9), sigma=0.0, h="cubic")
    model = linear_two_hop(toy_graph)
    with pytest.raises(ValueError):
        model.potential(np.zeros(4))
