import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import netgate
from netgate import cli, sbm
from netgate.graph import decompose
from netgate.harness import (
    ExperimentConfig,
    _SimulationState,
    build_graph,
    build_model,
    build_partition,
    emit_report,
    run,
    verify_theorem2,
)

from conftest import report_cell, write_edge_list


def sbm_config(**overrides):
    base = dict(
        graph={"sbm": {"communities": 12, "size": 40, "p_in": 0.25, "p_out": 0.004, "seed": 3}},
        clustering={"blocks": True},
        proportions=[0.1, 0.3, 0.5],
        model={
            "kind": "linear_two_hop",
            "beta": 1.0,
            "r1": 1.0,
            "r2": 0.0,
            "sigma": 2.0,
            "interaction": ["degree", "clusters"],
        },
        predictor={"max_hop": 2, "covariates": ["degree"], "training_mask": "full"},
        estimators=["DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII"],
        repetitions=150,
        master_seed=11,
        truth="global_treatment_mean",
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@pytest.mark.parametrize("r2", [0.0, 1.0])
def test_run_cell_multiplies_by_each_sparse_matrix_once(monkeypatch, r2):
    """One cell makes one product with P, P (P z): the draw's record reads P z
    off the cluster counts and the clean masks off P z, the model, the
    features and the estimators share that record, and nothing touches the
    0/1 adjacency."""
    cfg = sbm_config(model={**sbm_config().model, "r2": r2}, repetitions=1)
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    calls = []

    class Counting:
        def __init__(self, matrix):
            self.matrix = matrix

        def __matmul__(self, v):
            calls.append("row_normalized")
            return self.matrix @ v

    wrapped, adjacency = Counting(g.row_normalized()), g.adjacency()
    monkeypatch.setattr(g, "row_normalized", lambda: wrapped)
    monkeypatch.setattr(g, "adjacency", lambda: calls.append("adjacency") or adjacency)
    state = _SimulationState(cfg, g, part, build_model(cfg, g, part))
    assert "adjacency" not in calls
    rng = np.random.default_rng(0)
    for p in cfg.proportions:
        calls.clear()
        state.run_cell(rng, p)
        assert calls == ["row_normalized"], p


def test_config_file_roundtrip(tmp_path):
    cfg = sbm_config()
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
    back = ExperimentConfig.from_file(path)
    assert back.to_dict() == cfg.to_dict()
    assert back.digest() == cfg.digest()


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        sbm_config(repetitions=0)
    with pytest.raises(ValueError):
        sbm_config(proportions=[0.5, 1.2])
    with pytest.raises(ValueError):
        sbm_config(estimators=["MII", "NOPE"])
    with pytest.raises(ValueError):
        sbm_config(truth="other")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"bogus_key": 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("proportions", 0.5),
        ("proportions", ["0.5"]),
        ("estimators", "MII"),
        ("estimators", [1]),
        ("repetitions", "ten"),
        ("repetitions", True),
        ("master_seed", 1.5),
        ("threads", None),
        ("graph", "net.mtx"),
        ("clustering", [5.0]),
        ("model", None),
        ("predictor", ["degree"]),
    ],
)
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        sbm_config(**{field: value})


@pytest.mark.parametrize(
    "section, spec, typo",
    [
        ("model", {"r_2": 1.0}, "r_2"),
        ("model", {"kind": "partial_linear", "alpah": 1.0}, "alpah"),
        ("predictor", {"ridge_lamda": 5}, "ridge_lamda"),
        ("graph", {**sbm_config().graph, "fomat": "mtx"}, "fomat"),
        ("graph", {"sbm": {**sbm_config().graph["sbm"], "sed": 2}}, "sed"),
        ("clustering", {"blocks": True, "sed": 3}, "sed"),
    ],
)
def test_config_rejects_unknown_section_keys(section, spec, typo):
    with pytest.raises(ValueError, match=typo):
        run(ExperimentConfig.from_dict({**sbm_config().to_dict(), section: spec}))


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.yaml")))
def test_shipped_configs_build_their_model_and_predictor(path):
    cfg = ExperimentConfig.from_file(path)
    g, labels = sbm.generate(communities=4, size=12, p_in=0.5, p_out=0.05, seed=2)
    part = decompose(g, labels)
    state = _SimulationState(cfg, g, part, build_model(cfg, g, part))
    state.run_cell(np.random.default_rng(0), cfg.proportions[0])


def test_single_noiseless_repetition_has_zero_std():
    cfg = sbm_config(
        repetitions=1,
        proportions=[0.5],
        model={
            "kind": "linear_two_hop",
            "beta": 1.0,
            "r1": 1.0,
            "r2": 0.0,
            "sigma": 0.0,
            "interaction": ["degree", "clusters"],
        },
        predictor={"max_hop": 2, "covariates": ["degree", "clusters"], "training_mask": "full", "ridge_lambda": 0.0},
        estimators=["AMII"],
    )
    report = run(cfg)
    cell = report_cell(report, "AMII", 0.5)
    assert cell.std == 0.0
    assert cell.reps_used == 1
    assert cell.mse == pytest.approx(cell.bias**2, abs=1e-12)
    # in-span noiseless predictor makes the augmented estimate exact
    assert abs(cell.bias) < 1e-6


def test_report_columns_are_consistent():
    report = run(sbm_config())
    for cell in report.cells:
        if cell.absent_reason is not None:
            continue
        if cell.reps_used < 2:
            continue
        expected = cell.bias**2 + cell.std**2 * (cell.reps_used - 1) / cell.reps_used
        assert math.isclose(cell.mse, expected, rel_tol=0, abs_tol=1e-9)


def test_report_shape_and_rerun_identical():
    cfg = sbm_config(estimators=["HAJEK", "CAE", "MII", "GNN", "AMII"], repetitions=60)
    rep1 = run(cfg)
    rep2 = run(sbm_config(estimators=["HAJEK", "CAE", "MII", "GNN", "AMII"], repetitions=60))
    rows = rep1.to_csv().strip().splitlines()
    data_rows = [r for r in rows if not r.startswith("#") and not r.startswith("estimator")]
    assert len(data_rows) == 15  # 5 estimators x 3 proportions
    assert rep1.to_csv() == rep2.to_csv()


def test_report_identical_across_thread_counts():
    a = run(sbm_config(repetitions=80))
    b = run(sbm_config(repetitions=80, threads=8))
    assert a.to_csv() == b.to_csv()


def test_emit_empty_estimator_list_header_only(tmp_path):
    """A config must name an estimator; a report without rows still emits
    its provenance header and the column line."""
    with pytest.raises(ValueError, match="at least one estimator required"):
        sbm_config(estimators=[])
    report = run(sbm_config(estimators=["MII"], repetitions=2))
    report.cells = []
    buf = io.StringIO()
    emit_report(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[-1] == "estimator,p,bias,std,mse,reps_used,degenerate"
    path = tmp_path / "report.csv"
    emit_report(report, path)
    assert path.read_text().startswith("# netgate")


def test_emit_report_unwritable_sink_raises(tmp_path):
    report = run(sbm_config(repetitions=2, estimators=["MII"]))
    with pytest.raises(OSError):
        emit_report(report, tmp_path / "no" / "such" / "dir" / "report.csv")


def test_all_degenerate_cell_marked_absent():
    cfg = sbm_config(
        graph={"sbm": {"communities": 1, "size": 60, "p_in": 0.2, "p_out": 0.0, "seed": 2}},
        clustering={"blocks": True},
        proportions=[0.5],
        estimators=["MII"],
        repetitions=10,
    )
    report = run(cfg)
    cell = report_cell(report, "MII", 0.5)
    assert cell.absent_reason == "all repetitions degenerate"
    assert cell.degenerate == 10
    assert report.all_absent()
    # absent cells serialize with empty numeric fields
    row = [r for r in report.to_csv().splitlines() if r.startswith("MII")][0]
    assert ",,,," in row


def test_degenerate_reps_excluded_per_estimator():
    # p=0.1 with 12 clusters: all-control draws are common; DIM drops those
    # repetitions while HT keeps them
    report = run(sbm_config(repetitions=200, estimators=["DIM", "HT"]))
    dim_cell = report_cell(report, "DIM", 0.1)
    ht_cell = report_cell(report, "HT", 0.1)
    assert dim_cell.degenerate > 0
    assert ht_cell.degenerate == 0
    assert dim_cell.reps_used + dim_cell.degenerate == 200


def test_raw_estimates_and_diagnostics_dumped_when_verbose():
    report = run(sbm_config(repetitions=5, verbose=True, estimators=["MII"]))
    raw = report.raw_estimates["MII"]["0.5"]
    assert len(raw) == 5
    per_rep = report.raw_diagnostics["0.5"]
    assert len(per_rep) == 5
    assert "s1" in per_rep[0]["MII"]
    dumped = report.to_json()
    assert "raw_estimates" in dumped and "raw_diagnostics" in dumped


def test_mii_consistency_trend_in_cluster_count():
    """More clusters (with interior share held fixed) must not worsen the
    interior estimator: |bias| and std nonincreasing within MC error."""
    size = 60
    results = []
    for k in (10, 40, 160):
        n = k * size
        p_out = 1.2 / (n - size)
        cfg = ExperimentConfig.from_dict(
            dict(
                graph={"sbm": {"communities": k, "size": size, "p_in": 0.18, "p_out": p_out, "seed": 21}},
                clustering={"blocks": True},
                proportions=[0.3],
                model={"kind": "linear_two_hop", "beta": 1.0, "r1": 1.0, "r2": 0.0, "sigma": 2.0, "interaction": []},
                predictor={"covariates": ["degree"]},
                estimators=["MII"],
                repetitions=250,
                master_seed=5,
                truth="gate",
            )
        )
        cell = report_cell(run(cfg), "MII", 0.3)
        se = cell.std / math.sqrt(cell.reps_used)
        results.append((abs(cell.bias), cell.std, se))
    for (b1, s1, e1), (b2, s2, e2) in zip(results, results[1:]):
        assert b2 <= b1 + 3 * (e1 + e2)
        assert s2 <= s1 * 1.1


def test_gnn_improves_with_treatment_proportion():
    report = run(sbm_config(repetitions=200, estimators=["GNN"]))
    assert report_cell(report, "GNN", 0.5).mse < report_cell(report, "GNN", 0.1).mse


def theorem2_config(alpha, sigma, u="degree", reps=500):
    return ExperimentConfig.from_dict(
        dict(
            graph={"sbm": {"communities": 20, "size": 100, "p_in": 0.15, "p_out": 0.0009, "seed": 7}},
            clustering={"blocks": True},
            proportions=[0.5],
            model={
                "kind": "partial_linear",
                "beta": 1.0,
                "alpha": alpha,
                "u": u,
                "h": "linear",
                "h_scale": 1.0,
                "sigma": sigma,
                "v": "normal",
                "v_seed": 99,
            },
            predictor={"max_hop": 2, "covariates": [u], "training_mask": "full"},
            estimators=["MII", "AMII"],
            repetitions=reps,
            master_seed=31,
            truth="gate",
        )
    )


def test_verify_theorem2_alpha_zero_biases_vanish():
    report = verify_theorem2(theorem2_config(alpha=0.0, sigma=2.0))
    assert report.passed
    for cell in report.cells:
        assert cell.predicted_mii_bias == 0.0
        assert abs(cell.empirical_mii_bias) <= 3 * cell.mii_se


def test_verify_theorem2_constant_u_is_harmless():
    report = verify_theorem2(theorem2_config(alpha=1.0, sigma=2.0, u="constant"))
    assert report.interior_mean_gap == 0.0
    assert report.passed


@pytest.mark.parametrize("h", ["linear", "sqrt", "quadratic"])
def test_verify_theorem2_bias_law_is_response_agnostic(h):
    # interior nodes see exposure exactly 1 or 0, so the response terms cancel
    # and the interior bias stays alpha * gap no matter how nonlinear h is
    cfg = theorem2_config(alpha=1.0, sigma=2.0, reps=1000)
    cfg.model["h"] = h
    cfg.model["h_scale"] = 2.0
    report = verify_theorem2(cfg)
    assert report.passed
    cell = report.cells[0]
    assert abs(cell.empirical_mii_bias - report.interior_mean_gap) <= 3 * cell.mii_se


def test_verify_theorem2_requires_matching_covariate():
    cfg = theorem2_config(alpha=1.0, sigma=2.0)
    cfg.predictor["covariates"] = ["clusters"]
    with pytest.raises(ValueError):
        verify_theorem2(cfg)


def test_verify_theorem2_requires_partial_linear():
    cfg = sbm_config(truth="gate")
    with pytest.raises(ValueError):
        verify_theorem2(cfg)


# ---------------------------------------------------------------- CLI


def write_sbm_edge_file(tmp_path):
    from netgate import sbm

    g, labels = sbm.generate(communities=6, size=25, p_in=0.3, p_out=0.01, seed=13)
    path = tmp_path / "net.edges"
    write_edge_list(g, path)
    return path, labels


def test_cli_run_writes_reports(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    cfg = dict(
        graph={"path": str(path)},
        clustering={"gamma": 1.0, "seed": 4},
        proportions=[0.3, 0.5],
        model={"kind": "linear_two_hop", "interaction": ["degree"], "sigma": 1.0},
        predictor={"covariates": ["degree"]},
        estimators=["MII", "AMII"],
        repetitions=20,
        master_seed=8,
    )
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "partition.txt").exists()
    assert (out_dir / "clustering_stats.txt").exists()
    printed = capsys.readouterr().out
    assert "estimator,p,bias,std,mse,reps_used,degenerate" in printed
    info = json.loads((out_dir / "report.json").read_text())["clustering_info"]
    assert info == {"method": "louvain", "gamma": 1.0, "seed": 4}


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "3"}])
def test_cli_pins_blas_threads_unless_the_environment_sets_them(user):
    """The console entry imports netgate.cli, whose package pins each BLAS to
    one thread before numpy loads; a value in the environment wins."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src, **user}
    probe = "import os, sys; from netgate import cli; print(*(os.environ.get(v) for v in sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", probe, *BLAS_VARS],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert out == [user.get(var, "1") for var in BLAS_VARS]


def test_cli_run_flag_overrides(tmp_path):
    path, _ = write_sbm_edge_file(tmp_path)
    out_dir = tmp_path / "out2"
    code = cli.main(
        [
            "run",
            "--graph", str(path),
            "--gamma", "1.0",
            "--p", "0.5",
            "--reps", "5",
            "--seed", "3",
            "--estimators", "MII",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    text = (out_dir / "report.csv").read_text()
    assert "MII,0.5" in text
    assert "master_seed: 3" in text


def test_cli_run_missing_graph_fails(tmp_path):
    code = cli.main(["run", "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path / "o")])
    assert code == 2


SMALL_SBM = (
    "graph: {sbm: {communities: 4, size: 12, p_in: 0.5, p_out: 0.05, seed: 2}}\n"
    "clustering: {blocks: true}\nrepetitions: 2\n"
)


@pytest.mark.parametrize(
    "config_text, flags, message",
    [
        (None, [], "missing.yaml"),
        ("bogus_key: 1\n", [], "unknown config keys"),
        ("graph: {path: [unclosed\n", [], "error: "),
        ("repetitions: 5\n", ["--p", "1.5"], "outside (0,1)"),
        ("repetitions: 5\n", ["--p", "half"], "half"),
        ("proportions: 0.5\n", [], "proportions must be a list"),
        ("repetitions: ten\n", [], "repetitions must be an integer"),
        (SMALL_SBM + "model: {r_2: 1.0}\n", [], "r_2"),
        (SMALL_SBM + "predictor: {ridge_lamda: 5}\n", [], "ridge_lamda"),
        (SMALL_SBM + "model: {kind: partial_linear, v: gaussian}\n", [], "gaussian"),
        (SMALL_SBM.replace("seed: 2}", "seed: 2}, fomat: mtx"), [], "fomat"),
        (SMALL_SBM.replace("blocks: true", "blocks: true, sed: 3"), [], "sed"),
        (SMALL_SBM.replace("seed: 2", "sed: 2"), [], "sed"),
        (SMALL_SBM + "predictor: {ridge_lambda: abc}\n", [], "ridge_lambda must be null or"),
        (SMALL_SBM + "predictor: {ridge_lambda: -1.0}\n", [], "ridge_lambda must be null or"),
        (SMALL_SBM + "predictor: {ridge_lambda: .nan}\n", [], "ridge_lambda must be null or"),
        (SMALL_SBM + "predictor: {ridge_lambda: true}\n", [], "ridge_lambda must be null or"),
        (SMALL_SBM + "predictor: {covariates: degree}\n", [], "predictor.covariates must be a list of names"),
        (SMALL_SBM + "model: {interaction: degree}\n", [], "model.interaction must be a list of names"),
        (SMALL_SBM + "model: {interaction: [degree, 1]}\n", [], "model.interaction must be a list of names"),
        (SMALL_SBM + "estimators: []\n", [], "at least one estimator required"),
        (SMALL_SBM + "estimators: [MII, mii]\n", [], "duplicate estimator 'mii'"),
        (SMALL_SBM + "verbose: 'no'\n", [], "verbose must be a boolean"),
    ],
    ids=[
        "missing-file", "unknown-key", "yaml-syntax", "p-out-of-range", "p-not-a-number",
        "proportions-not-a-list", "repetitions-not-an-int", "model-key-typo", "predictor-key-typo",
        "model-v-unknown", "graph-key-typo", "clustering-key-typo", "sbm-key-typo",
        "ridge-lambda-not-a-number", "ridge-lambda-negative", "ridge-lambda-nan", "ridge-lambda-bool",
        "covariates-a-string", "interaction-a-string", "interaction-not-names",
        "estimators-empty", "estimators-duplicate", "verbose-a-string",
    ],
)
def test_cli_run_bad_config_is_a_usage_error(tmp_path, capsys, config_text, flags, message):
    cfg_path = tmp_path / "missing.yaml"
    if config_text is not None:
        cfg_path.write_text(config_text, encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_cli_stats_bad_gamma_is_a_usage_error(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    code = cli.main(["stats", "--graph", str(path), "--gamma", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: resolution must be positive")


@pytest.mark.parametrize("p", ["1.5", "0", "nan"])
def test_cli_enumerate_bad_p_is_a_usage_error(tmp_path, capsys, p):
    from netgate.oracles import tri_ring

    gpath = tmp_path / "tri.edges"
    write_edge_list(tri_ring(), gpath)
    code = cli.main(["enumerate", "--graph", str(gpath), "--p", p])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: treatment proportion must be in (0,1)")


def test_cli_stats(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    code = cli.main(["stats", "--graph", str(path), "--gamma", "1.0", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "clusters" in out and "interior_fraction" in out


def test_cli_enumerate_refuses_large_cluster_counts(tmp_path, capsys):
    from netgate.graph import from_edges, write_partition, decompose
    import numpy as np

    n = 25
    u = np.arange(n - 1)
    g = from_edges(u, u + 1, n)
    gpath = tmp_path / "path.edges"
    write_edge_list(g, gpath)
    ppath = tmp_path / "path.part"
    write_partition(decompose(g, np.arange(n)), ppath)
    code = cli.main(["enumerate", "--graph", str(gpath), "--partition", str(ppath)])
    assert code == 2
    assert "enumeration guard" in capsys.readouterr().err


def test_cli_enumerate_reports_unbiasedness(tmp_path, capsys):
    from netgate.graph import write_partition
    from netgate.oracles import tri_ring, tri_ring_partition

    g = tri_ring()
    gpath = tmp_path / "tri.edges"
    write_edge_list(g, gpath)
    ppath = tmp_path / "tri.part"
    write_partition(tri_ring_partition(), ppath)
    code = cli.main(
        ["enumerate", "--graph", str(gpath), "--partition", str(ppath), "--p", "0.4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    diff = float([l for l in out.splitlines() if l.startswith("difference")][0].split()[1])
    assert diff < 1e-12


def test_readme_library_example_names_resolve_on_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from netgate import \(([^)]*)\)", readme)
    assert block is not None, "README has no 'from netgate import (...)' block"
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert [name for name in names if not hasattr(netgate, name)] == []
