"""The headline estimator orderings, exercised end-to-end on a synthetic
interior-rich network (20 blocks of 100 nodes, blocks as clusters).

These mirror the socfb-Stanford3 table checks in test_acceptance.py but run
without the external data file: same machinery, same patterns, smaller graph.
"""

import numpy as np
import pytest

from netgate.harness import ExperimentConfig, run

from conftest import report_cell

SBM_SPEC = {"communities": 20, "size": 100, "p_in": 0.15, "p_out": 0.0009, "seed": 7}
PS = [0.1, 0.3, 0.5]


def surrogate_config(interaction, r2, estimator_names, predictor_covs, reps=400):
    return ExperimentConfig.from_dict(
        dict(
            graph={"sbm": SBM_SPEC},
            clustering={"blocks": True},
            proportions=PS,
            model={
                "kind": "linear_two_hop",
                "beta": 1.0,
                "r1": 1.0,
                "r2": r2,
                "sigma": 2.0,
                "interaction": interaction,
            },
            predictor={"max_hop": 2, "covariates": predictor_covs, "training_mask": "full"},
            estimators=estimator_names,
            repetitions=reps,
            master_seed=20240501,
        )
    )


@pytest.fixture(scope="module")
def clean_setting_report():
    return run(surrogate_config([], 0.0, ["HAJEK", "MII"], ["degree"]))


@pytest.fixture(scope="module")
def covariate_setting_report():
    return run(
        surrogate_config(
            ["degree", "clusters"], 0.0, ["MII", "AMII", "GNN"], ["degree", "clusters"]
        )
    )


@pytest.fixture(scope="module")
def two_hop_setting_report():
    return run(
        surrogate_config(
            ["degree", "clusters"], 1.0, ["HAJEK", "CAE", "MII", "AMII"], ["degree", "clusters"]
        )
    )


def test_clean_setting_mii_near_unbiased(clean_setting_report):
    for p in PS:
        cell = report_cell(clean_setting_report, "MII", p)
        se = cell.std / np.sqrt(cell.reps_used)
        assert abs(cell.bias) <= max(0.05, 3 * se)


def test_clean_setting_hajek_noisier_than_mii_at_small_p(clean_setting_report):
    # on this low-out-degree surrogate the exposure weights stay mild at
    # p=0.5, so the inflation only shows at the early-experiment proportions;
    # the real-network check in test_acceptance covers every p
    for p in (0.1, 0.3):
        hajek_cell = report_cell(clean_setting_report, "HAJEK", p)
        assert hajek_cell.std > report_cell(clean_setting_report, "MII", p).std


def test_covariate_setting_mii_systematically_biased(covariate_setting_report):
    # interior nodes touch one cluster by definition while the population
    # touch count is well above one, so the interacted model shifts them
    for p in PS:
        assert abs(report_cell(covariate_setting_report, "MII", p).bias) > 0.15


def test_covariate_setting_amii_removes_the_shift(covariate_setting_report):
    for p in PS:
        mii_cell = report_cell(covariate_setting_report, "MII", p)
        amii_cell = report_cell(covariate_setting_report, "AMII", p)
        assert abs(amii_cell.bias) < abs(mii_cell.bias) / 2
        assert amii_cell.mse < mii_cell.mse


def test_covariate_setting_gnn_needs_high_proportion(covariate_setting_report):
    assert (
        report_cell(covariate_setting_report, "GNN", 0.5).mse
        < report_cell(covariate_setting_report, "GNN", 0.1).mse
    )


def test_two_hop_biases_every_trimming_estimator(two_hop_setting_report, covariate_setting_report):
    for p in PS:
        for name in ("HAJEK", "CAE", "MII"):
            assert abs(report_cell(two_hop_setting_report, name, p).bias) > 0.1
        # hidden 2-hop interference worsens the interior estimator
        assert abs(report_cell(two_hop_setting_report, "MII", p).bias) > abs(
            report_cell(covariate_setting_report, "MII", p).bias
        )


def test_two_hop_amii_still_dominates_mii(two_hop_setting_report):
    for p in PS:
        assert abs(report_cell(two_hop_setting_report, "AMII", p).bias) < abs(
            report_cell(two_hop_setting_report, "MII", p).bias
        )
        amii_cell = report_cell(two_hop_setting_report, "AMII", p)
        assert amii_cell.mse < report_cell(two_hop_setting_report, "MII", p).mse


def test_boundary_trained_predictor_ablation(covariate_setting_report):
    """Training the counterfactual regressor only on boundary units still
    beats the raw interior mean, but loses to full-population training in the
    low-proportion regime where boundary exposures are uninformative."""
    cfg = surrogate_config(["degree", "clusters"], 0.0, ["MII", "AMII"], ["degree", "clusters"])
    cfg.predictor["training_mask"] = "boundary"
    boundary = run(cfg)
    for p in PS:
        assert report_cell(boundary, "AMII", p).mse < report_cell(boundary, "MII", p).mse
    full = covariate_setting_report
    assert report_cell(full, "AMII", 0.1).mse < report_cell(boundary, "AMII", 0.1).mse
