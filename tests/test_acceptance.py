"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 are self-contained. Criteria 4-8 replay the published
socfb-Stanford3 tables and need that network file on disk (see README);
without it they skip, and tests/test_paper_surrogate.py exercises the same
machinery on a synthetic network.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from netgate import community, design, estimators, oracles
from netgate.harness import ExperimentConfig, run, verify_theorem2

from conftest import expand, report_cell

LOUVAIN_SEED = 20240501
MASTER_SEED = 20240501


def criterion(cid: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                outcome = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {cid} {outcome}: {desc}")
                raise
            print(f"ACCEPTANCE {cid} PASS: {desc}")

        return wrapper

    return deco


# ------------------------------------------------------------------ 1


@criterion(1, "exact-oracle unbiasedness on toy instances at 1e-12")
def test_criterion_1_exact_oracle_unbiasedness():
    t0 = time.time()
    cases = oracles.default_oracle_cases()
    assert len(cases) >= 5
    assert all(c.partition.cluster_count <= 10 for c in cases)
    assert all(c.partition.graph.node_count <= 60 for c in cases)
    for result in oracles.run_oracle_suite():
        assert result.ht_expectation_error <= 1e-12, result
        assert result.exposure_probability_error <= 1e-12, result
        assert result.probability_mass_error <= 1e-12, result
    assert time.time() - t0 < 5.0


# ------------------------------------------------------------------ 2


@criterion(2, "augmented-estimator/PPI rearrangement identity at 1e-10")
def test_criterion_2_ppi_identity():
    t0 = time.time()
    part = oracles.tri_ring_partition()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        bits = np.zeros(3, dtype=bool)
        while bits.all() or not bits.any():
            bits = rng.random(3) < 0.5
        z = expand(part, bits).astype(float)
        scale = rng.uniform(0.1, 100.0)
        y = rng.standard_normal(9) * scale
        pred1 = rng.standard_normal(9) * scale
        pred0 = rng.standard_normal(9) * scale
        direct = estimators.amii(part, z, y, pred1, pred0)
        rearranged = estimators.amii_ppi_form(part, z, y, pred1) - estimators.amii_ppi_form(
            part, 1 - z, y, pred0
        )
        worst = max(worst, abs(direct - rearranged))
    assert worst <= 1e-10, worst
    assert time.time() - t0 < 1.0


# ------------------------------------------------------------------ 3


@criterion(3, "interior-selection bias law verified at 3 MC standard errors")
def test_criterion_3_bias_law():
    t0 = time.time()

    def config(alpha, sigma):
        return ExperimentConfig.from_dict(
            dict(
                graph={"sbm": {"communities": 20, "size": 100, "p_in": 0.15, "p_out": 0.0009, "seed": 7}},
                clustering={"blocks": True},
                proportions=[0.3, 0.5],
                model={
                    "kind": "partial_linear",
                    "beta": 1.0,
                    "alpha": alpha,
                    "u": "degree",
                    "h": "linear",
                    "h_scale": 1.0,
                    "sigma": sigma,
                    "v": "normal",
                    "v_seed": 99,
                },
                predictor={"max_hop": 2, "covariates": ["degree"], "training_mask": "full"},
                estimators=["MII", "AMII"],
                repetitions=2000,
                master_seed=MASTER_SEED,
                truth="gate",
            )
        )

    for alpha in (0.0, 1.0):
        for sigma in (0.0, 2.0):
            report = verify_theorem2(config(alpha, sigma))
            cells = {(cell.estimator, cell.p): cell for cell in report.cells}
            for p in {cell.p for cell in report.cells}:
                mii, amii = cells["MII", p], cells["AMII", p]
                assert abs(mii.empirical_bias - report.alpha * report.interior_mean_gap) <= (
                    3 * mii.se
                ), (alpha, sigma, mii)
                if alpha == 1.0:
                    assert abs(amii.empirical_bias) < abs(mii.empirical_bias) / 3, (
                        sigma,
                        mii,
                        amii,
                    )
    assert time.time() - t0 < 120.0


# ------------------------------------------------------------------ 4-8 (paper network)


def paper_config(interaction, r2, estimator_names, path, threads=1):
    return ExperimentConfig.from_dict(
        dict(
            graph={"path": str(path)},
            clustering={"gamma": 5.0, "seed": LOUVAIN_SEED},
            proportions=[0.1, 0.3, 0.5],
            model={
                "kind": "linear_two_hop",
                "beta": 1.0,
                "r1": 1.0,
                "r2": r2,
                "sigma": 2.0,
                "interaction": interaction,
            },
            predictor={"max_hop": 2, "covariates": ["degree"], "training_mask": "full"},
            estimators=estimator_names,
            repetitions=1000,
            master_seed=MASTER_SEED,
            threads=threads,
        )
    )


@pytest.fixture(scope="session")
def stanford_gamma5(stanford3, stanford3_partitions):
    return stanford3, stanford3_partitions[5.0]


@pytest.fixture(scope="session")
def clean_table_report(stanford_gamma5):
    from conftest import stanford3_path

    g, part = stanford_gamma5
    cfg = paper_config([], 0.0, ["HAJEK", "MII"], stanford3_path())
    return run(cfg, g=g, p_part=part)


@pytest.mark.paperdata
@pytest.mark.slow
@criterion(4, "clean-setting replication: interior estimator unbiased, lowest std")
def test_criterion_4_clean_setting(clean_table_report):
    t0 = time.time()
    report = clean_table_report
    for p in (0.1, 0.3, 0.5):
        assert abs(report_cell(report, "MII", p).bias) <= 0.05, (p, report_cell(report, "MII", p))
    assert 0.17 <= report_cell(report, "MII", 0.1).std <= 0.32, report_cell(report, "MII", 0.1)
    assert 0.06 <= report_cell(report, "MII", 0.5).std <= 0.13, report_cell(report, "MII", 0.5)
    for p in (0.1, 0.3, 0.5):
        assert report_cell(report, "HAJEK", p).std > report_cell(report, "MII", p).std, p
    assert time.time() - t0 < 900.0


@pytest.mark.paperdata
@pytest.mark.slow
@criterion(5, "covariate-setting replication: adjustment beats interior mean on MSE")
def test_criterion_5_covariate_setting(stanford_gamma5):
    from conftest import stanford3_path

    g, part = stanford_gamma5
    cfg = paper_config(["degree", "clusters"], 0.0, ["MII", "AMII"], stanford3_path())
    report = run(cfg, g=g, p_part=part)
    for p in (0.1, 0.3, 0.5):
        mii_cell = report_cell(report, "MII", p)
        amii_cell = report_cell(report, "AMII", p)
        assert 0.7 <= abs(mii_cell.bias) <= 1.2, (p, mii_cell)
        assert amii_cell.mse < mii_cell.mse, (p, amii_cell, mii_cell)
    for p in (0.3, 0.5):
        assert report_cell(report, "AMII", p).mse < 0.2, (p, report_cell(report, "AMII", p))


@pytest.mark.paperdata
@pytest.mark.slow
@criterion(6, "two-hop stress: trimming estimators break, adjustment stays ahead")
def test_criterion_6_two_hop_stress(stanford_gamma5):
    from conftest import stanford3_path

    g, part = stanford_gamma5
    cfg = paper_config(["degree", "clusters"], 1.0, ["HAJEK", "CAE", "MII", "AMII"], stanford3_path())
    report = run(cfg, g=g, p_part=part)
    for name in ("HAJEK", "CAE", "MII"):
        cell = report_cell(report, name, 0.1)
        assert abs(cell.bias) > 1.0, (name, cell)
    for p in (0.1, 0.3, 0.5):
        assert abs(report_cell(report, "AMII", p).bias) < abs(report_cell(report, "MII", p).bias), p


@pytest.mark.paperdata
@criterion(7, "clustering statistics within the published bands")
def test_criterion_7_clustering_statistics(stanford3, stanford3_partitions):
    st = {
        gamma: community.stats(part, gamma)
        for gamma, part in stanford3_partitions.items()
    }
    s5 = st[5.0]
    assert 60 <= s5.cluster_count <= 140, s5
    assert 0.05 <= s5.interior_fraction <= 0.12, s5
    assert 0.25 <= s5.within_edge_fraction <= 0.40, s5
    assert st[2.0].cluster_count < st[5.0].cluster_count < st[10.0].cluster_count
    assert st[2.0].within_edge_fraction > st[5.0].within_edge_fraction > st[10.0].within_edge_fraction


@pytest.mark.paperdata
@pytest.mark.slow
@criterion(8, "byte-identical reports across thread counts")
def test_criterion_8_determinism(stanford_gamma5, clean_table_report):
    from conftest import stanford3_path

    g, part = stanford_gamma5
    cfg = paper_config([], 0.0, ["HAJEK", "MII"], stanford3_path(), threads=min(os.cpu_count() or 4, 8))
    threaded = run(cfg, g=g, p_part=part)
    assert threaded.to_csv() == clean_table_report.to_csv()
