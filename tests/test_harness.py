import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import netgate
from netgate import cli, community, harness, outcomes, predictor, sbm
from netgate.estimators import COUNTS, ESTIMATOR_NAMES
from netgate.graph import Graph, decompose, read_partition
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
    """A block of cells makes one product with N, N T, and at most one with
    P, P (P Z): the draws' records read P z off the cluster counts
    and the clean masks off P z, the model, the features and the estimators
    share them, and nothing touches the 0/1 adjacency. A table that never
    reads P^2 z (DIM and MII under r2 = 0) makes no product with P."""
    reps = 9  # 27 cells, no multiple of a block
    blocks = -(-reps * 3 // harness.CELLS_PER_BLOCK)
    for names in (["DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII"], ["DIM", "MII"]):
        cfg = sbm_config(model={**sbm_config().model, "r2": r2}, estimators=names, repetitions=reps)
        g = build_graph(cfg)
        part, _ = build_partition(cfg, g)
        calls = []

        class Counting:
            def __init__(self, name, matrix):
                self.name, self.matrix = name, matrix

            def __matmul__(self, v):
                calls.append(self.name)
                return self.matrix @ v

        adjacency = g.adjacency()
        monkeypatch.setattr(g, "row_normalized", Counting("P", g.row_normalized))
        monkeypatch.setattr(part, "neighbor_counts", Counting("N", part.neighbor_counts))
        monkeypatch.setattr(g, "adjacency", lambda: calls.append("adjacency") or adjacency)
        state = _SimulationState(cfg, part, build_model(cfg, g, part))
        assert "adjacency" not in calls
        calls.clear()
        cells = range(reps * 3)
        for start in cells[:: harness.CELLS_PER_BLOCK]:
            harness._run_block(state, cells[start : start + harness.CELLS_PER_BLOCK])
        reads_p2z = state.predictor is not None or r2 != 0.0
        assert calls == (["N", "P"] if reads_p2z else ["N"]) * blocks, names


def test_run_on_a_preloaded_graph_and_partition_makes_no_pass_over_the_edges(monkeypatch):
    """Once the graph and its partition are built, a table, its report and its
    clustering statistics read the partition's counts and never walk the CSR
    edges again: no edge array and no Louvain working graph."""
    cfg = sbm_config(clustering={"gamma": 5.0, "seed": 1}, repetitions=9, verbose=True)
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    expected = run(cfg, g, part).to_json()

    def edge_pass(*args):
        raise AssertionError("a pass over the CSR edges")

    monkeypatch.setattr(Graph, "edge_array", edge_pass)
    monkeypatch.setattr(community._LevelGraph, "from_graph", edge_pass)
    for edge_pass_call in (g.edge_array, lambda: community._LevelGraph.from_graph(g)):
        with pytest.raises(AssertionError, match="CSR edges"):
            edge_pass_call()
    assert run(cfg, g, part).to_json() == expected


@settings(max_examples=50, deadline=None)
@given(master_seed=st.integers(0, 2**128), r=st.integers(0, 1999), pi=st.integers(0, 5),
       extra=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_cell_seed_draws_as_the_spawn_chain(master_seed, r, pi, extra):
    """cell_seed(m, r, pi) seeds the generator that SeedSequence(m).spawn(R)[r]
    .spawn(n_p)[pi] seeds, for any R > r and n_p > pi: the rule perfbench's
    replay spells out with its own spawn chain."""
    repetitions, n_p = r + extra[0], pi + extra[1]
    chained = np.random.SeedSequence(master_seed).spawn(repetitions)[r].spawn(n_p)[pi]
    ours = harness.cell_seed(master_seed, r, pi)
    assert ours.generate_state(8).tolist() == chained.generate_state(8).tolist()
    a, b = np.random.default_rng(ours), np.random.default_rng(chained)
    assert a.random(16).tobytes() == b.random(16).tobytes()
    assert a.standard_normal(16).tobytes() == b.standard_normal(16).tobytes()


def test_a_block_run_twice_on_one_state_gives_the_same_bits():
    """Cells hold no seed state, so a second run of the same block on the
    same state repeats every value and code."""
    cfg = sbm_config(repetitions=9, verbose=True)
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    state = _SimulationState(cfg, part, build_model(cfg, g, part))
    first, again = harness._run_block(state, range(5, 27)), harness._run_block(state, range(5, 27))
    assert isinstance(first, np.ndarray) and first.shape == (22, 2 * len(ESTIMATOR_NAMES) + len(COUNTS) + 1)
    assert first.tobytes() == again.tobytes()


def test_verbose_reaches_no_worker():
    """A block runs alike on the state of a verbose config and of the same
    config without verbose: the diagnostics are decoded from the table in run."""
    verbose = sbm_config(repetitions=9, verbose=True)
    plain = sbm_config(repetitions=9, verbose=False)
    g = build_graph(verbose)
    part, _ = build_partition(verbose, g)
    blocks = [harness._run_block(_SimulationState(cfg, part, build_model(cfg, g, part)), range(5, 27))
              for cfg in (verbose, plain)]
    assert blocks[0].tobytes() == blocks[1].tobytes()


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


@pytest.mark.parametrize(
    "section, spec, message",
    [
        ("model", {"betaa": 1.0}, "model: linear_two_hop() got an unexpected keyword argument 'betaa'"),
        ("model", {"kind": "nope"}, "unknown model kind 'nope'"),
        ("model", {"kind": ["partial_linear"]}, "unknown model kind ['partial_linear']"),
        ("model", {"beta": "1"}, "model.beta must be a finite number, got '1'"),
        ("model", {"kind": "partial_linear", "v_seed": 2.5}, "model.v_seed must be a non-negative integer, got 2.5"),
        ("graph", {"sbm": {**sbm_config().graph["sbm"], "sed": 2}},
         "graph.sbm: generate() got an unexpected keyword argument 'sed'"),
        ("graph", {"sbm": {**sbm_config().graph["sbm"], "communities": "4"}},
         "graph.sbm.communities must be a non-negative integer, got '4'"),
        ("graph", {"sbm": 5}, "graph.sbm must be a mapping, got 5"),
        ("model", {"kind": "partial_linear", "h": "sqrtt"},
         "model.h must be one of ('linear', 'sqrt', 'quadratic'), got 'sqrtt'"),
        ("model", {"kind": "partial_linear", "v": "gaussian"},
         "model.v must be one of ('none', 'normal'), got 'gaussian'"),
        ("model", {"kind": "partial_linear", "u": "degre"},
         "model.u must be one of ('degree', 'clusters', 'constant'), got 'degre'"),
        ("model", {"interaction": ["degree", "degre"]},
         "model.interaction must be a list of names in ('degree', 'clusters', 'constant'), got ['degree', 'degre']"),
        ("predictor", {"covariates": ["clustres"]},
         "predictor.covariates must be a list of names in ('degree', 'clusters', 'constant'), got ['clustres']"),
        ("graph", {"path": "net.mtx", "format": "mtx"},
         "graph.format must be one of ('auto', 'plain-edge-list', 'matrix-market'), got 'mtx'"),
        ("truth", "gate_", "truth must be one of ('gate', 'global_treatment_mean'), got 'gate_'"),
        ("model", {"p_part": None}, "unknown model keys: ['p_part']"),
        ("graph", {1: "x", "foo": "y"}, "unknown graph keys: [1, 'foo']"),
        ("model", {"g": None}, "model: linear_two_hop() multiple values for argument 'g'"),
        ("predictor", {"ridge_lamda": 5},
         "predictor: Counterfactuals() got an unexpected keyword argument 'ridge_lamda'"),
        ("predictor", {"p_part": None}, "unknown predictor keys: ['p_part']"),
        ("predictor", {"g": None}, "predictor: Counterfactuals() multiple values for argument 'g'"),
    ],
)
def test_model_and_sbm_sections_fail_before_anything_loads(monkeypatch, tmp_path, capsys, section, spec, message):
    """The builders' signatures and the annotations of every other config value
    are checked in validate: neither from_dict nor `netgate run` gets as far as
    Louvain."""
    clustered = []
    real = community.louvain
    monkeypatch.setattr(community, "louvain", lambda *args: clustered.append(args) or real(*args))
    data = {**sbm_config().to_dict(), "clustering": {"gamma": 1.0}, section: spec}
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(data)
    assert message in str(err.value)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert clustered == []


@pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
@pytest.mark.parametrize("key", ["beta", "alpha", "r1", "r2", "h_scale"])
def test_non_finite_model_coefficient_fails_before_anything_loads(monkeypatch, tmp_path, capsys, key, value, shown):
    """A NaN or infinite coefficient would make the truth and every cell
    non-finite; from_dict and `netgate run` name it before Louvain."""
    clustered = []
    monkeypatch.setattr(community, "louvain", lambda *args: clustered.append(args))
    kind = "partial_linear" if key in ("alpha", "h_scale") else "linear_two_hop"
    text = f"{SMALL_SBM.replace('blocks: true', 'gamma: 1.0')}model: {{kind: {kind}, {key}: {value}}}\n"
    message = f"model.{key} must be a finite number, got {shown}"
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(yaml.safe_load(text))
    assert str(err.value) == message
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert clustered == []


@pytest.mark.parametrize(
    "model, truth",
    [({"r2": 1e308}, "global_treatment_mean"),
     ({"kind": "partial_linear", "alpha": 1e308, "u": "degree"}, "gate")],
)
def test_non_finite_truth_fails_before_the_table(monkeypatch, model, truth):
    """Finite coefficients whose truth overflows: the run names the truth
    instead of printing inf biases and MSEs."""
    monkeypatch.setattr(harness, "_simulate", lambda *args: pytest.fail("the table ran"))
    with pytest.raises(ValueError, match=rf"^truth {truth} is (inf|-inf|nan), not a finite number"):
        run(sbm_config(model=model, truth=truth, repetitions=2))


# a section and a spec it accepts; the property below swaps one value (never kind) for one of mixed type
MIXED_SECTIONS = [
    ("graph.sbm", {"communities": 3, "size": 8, "p_in": 0.5, "p_out": 0.1, "seed": 1}),
    ("clustering", {"gamma": 1.0, "seed": 3}),
    ("clustering", {"blocks": True}),
    ("model", {"kind": "linear_two_hop", "beta": 1.0, "r1": 1.0, "r2": 0.5, "sigma": 1.0, "interaction": ["degree"]}),
    ("model", {"kind": "partial_linear", "beta": 1.0, "alpha": 1.0, "u": "degree", "sigma": 1.0, "h": "sqrt",
               "h_scale": 1.0, "v": "normal", "v_seed": 2}),
    ("predictor", {"max_hop": 2, "ridge_lambda": None, "training_mask": "boundary", "covariates": ["degree"]}),
]
NAMES = ["", "degree", "clusters", "constant", "degre", "sqrt", "normal", "full", "boundary"]
MIXED_VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 6),
    st.floats(-2.0, 8.0),
    st.sampled_from(NAMES),
    st.none(),
    st.lists(st.one_of(st.sampled_from(NAMES), st.integers(0, 2), st.booleans(), st.none()), max_size=3),
    st.dictionaries(st.sampled_from(["seed", "gamma"]), st.integers(0, 3), max_size=2),
)


@st.composite
def mixed_section_values(draw):
    section, spec = draw(st.sampled_from(MIXED_SECTIONS))
    key = draw(st.sampled_from(sorted(set(spec) - {"kind"})))
    return section, key, {**spec, key: draw(MIXED_VALUES)}


@settings(max_examples=80, deadline=None)
@given(case=mixed_section_values())
def test_a_section_value_of_any_type_fails_in_from_dict_or_builds_and_runs(case):
    """A section value that from_dict accepts has the form its builder's
    annotation names, so the builders, called directly, raise no TypeError:
    what they still refuse is a ValueError, such as a negative resolution."""
    section, key, spec = case
    data = {"graph": {"sbm": MIXED_SECTIONS[0][1]}, "clustering": {"gamma": 1.0}, "proportions": [0.5],
            "repetitions": 2, "master_seed": 1, "truth": "gate"}
    if section == "graph.sbm":
        data["graph"] = {"sbm": spec}
    else:
        data[section] = spec
    try:
        cfg = ExperimentConfig.from_dict(data)
    except ValueError as exc:
        assert f"{section}.{key} " in str(exc)
        return
    try:
        g = build_graph(cfg)
        part, _ = build_partition(cfg, g)
        build_model(cfg, g, part)
        run(cfg, g, part)
    except ValueError:
        pass


def test_an_empty_predictor_section_runs_as_the_defaults_written_out():
    """The predictor's defaults are predictor.Counterfactuals's: `predictor: {}`
    and the README's defaults spelt out give the same rows and raw estimates."""
    spelt = {"max_hop": 2, "ridge_lambda": None, "training_mask": "full", "covariates": ["degree"]}
    empty, written = (run(sbm_config(predictor=spec, repetitions=20, verbose=True)) for spec in ({}, spelt))
    assert empty.cells == written.cells
    assert json.dumps(empty.raw_estimates) == json.dumps(written.raw_estimates)


@pytest.mark.parametrize("proportions", [[0.3, 0.3], [0.3, 0.3 + 1e-15], [0.1, 0.5, 0.1]])
def test_config_rejects_proportions_equal_at_twelve_digits(proportions):
    """report.json keys a proportion by its .12g form, so two that print alike would collide."""
    with pytest.raises(ValueError, match="duplicate treatment proportion"):
        sbm_config(proportions=proportions)
    sbm_config(proportions=[0.3, 0.3 + 1e-11])


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.yaml")))
def test_shipped_configs_build_their_model_and_predictor(path):
    cfg = ExperimentConfig.from_file(path)
    g, labels = sbm.generate(communities=4, size=12, p_in=0.5, p_out=0.05, seed=2)
    part = decompose(g, labels)
    state = _SimulationState(cfg, part, build_model(cfg, g, part))
    harness._run_block(state, range(len(cfg.proportions)))  # one repetition


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


def pool_config(threads, repetitions):
    """A verbose partial-linear table, so the JSON carries raw estimates,
    diagnostics and alpha_hat_mean."""
    model = {"kind": "partial_linear", "alpha": 1.0, "u": "degree", "sigma": 2.0}
    return sbm_config(model=model, threads=threads, repetitions=repetitions, verbose=True)


@pytest.mark.parametrize("threads, repetitions", [(2, 30), (3, 30), (8, 5)])
def test_reports_identical_at_any_worker_count(monkeypatch, threads, repetitions):
    """Forked workers run blocks of cells, each cell on its own seed: report.csv
    and the verbose report.json match one worker's byte for byte, also with
    more workers than blocks (8 for 4), and no worker outlives the run."""
    monkeypatch.setattr(harness, "CELLS_PER_BLOCK", 4)  # forked workers inherit it
    one = run(pool_config(1, repetitions))
    many = run(pool_config(threads, repetitions))
    assert multiprocessing.active_children() == []
    assert many.alpha_hat_mean is not None
    assert many.to_csv() == one.to_csv()
    assert many.to_json() == one.to_json()


def test_worker_error_reaches_the_caller_and_no_worker_outlives_it(monkeypatch):
    def failing(self, a, rng, p):
        raise ValueError(f"cell failed at p={p}")

    monkeypatch.setattr(_SimulationState, "run_cell", failing)  # forked workers inherit the patch
    with pytest.raises(ValueError, match=r"^cell failed at p=0\.1$") as err:
        run(sbm_config(repetitions=12, threads=2))
    assert err.type is ValueError
    assert multiprocessing.active_children() == []


def test_one_worker_runs_the_table_in_process(monkeypatch):
    pooled = run(sbm_config(repetitions=10, threads=2)).to_csv()  # 30 cells, two blocks
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    assert run(sbm_config(repetitions=10)).to_csv() == pooled


def test_workers_without_sched_getaffinity_use_cpu_count(monkeypatch):
    """Where os.sched_getaffinity does not exist (macOS), the usable CPUs are
    os.cpu_count(), and two workers give the one-worker report."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one = run(sbm_config(repetitions=10)).to_csv()
    assert run(sbm_config(repetitions=10, threads=2)).to_csv() == one
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "threads, repetitions, cpus, workers",
    [(8, 30, 3, 3), (2, 30, 64, 2), (6, 4, 64, 4), (4, 30, 1, None), (4, 1, 64, None)],
)
def test_workers_are_capped_at_repetitions_and_usable_cpus(monkeypatch, threads, repetitions, cpus, workers):
    """min(threads, blocks, usable CPUs) workers, one task per block, and
    inline at one worker. With blocks of 3 cells, one repetition at each of
    the 3 proportions, there are as many blocks as repetitions. A stand-in
    pool runs the blocks in this process, so no process starts."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append(self)
            self.max_workers, self.state = max_workers, initargs[0]

        def map(self, fn, blocks):
            self.blocks = list(blocks)
            return [harness._run_block(self.state, cells) for cells in self.blocks]

        def shutdown(self, cancel_futures):
            pass

    expected = run(sbm_config(repetitions=repetitions, estimators=["DIM", "MII"])).to_csv()
    monkeypatch.setattr(harness, "CELLS_PER_BLOCK", 3)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    report = run(sbm_config(threads=threads, repetitions=repetitions, estimators=["DIM", "MII"]))
    assert report.to_csv() == expected
    if workers is None:
        assert pools == []
    else:
        [pool] = pools
        assert pool.max_workers == workers == min(threads, repetitions, cpus)
        assert pool.blocks == [range(3 * r, 3 * r + 3) for r in range(repetitions)]


SMALL_SBM_CONFIGS = st.fixed_dictionaries({
    "graph": st.fixed_dictionaries({"sbm": st.fixed_dictionaries({
        "communities": st.integers(1, 4),
        "size": st.integers(1, 8),
        "p_in": st.floats(0.2, 1.0),  # mostly graphs with edges; the bad-config case sbm-edgeless pins the rest
        "p_out": st.floats(0.0, 0.3),
        "seed": st.integers(0, 2**16),
    })}),
    "clustering": st.sampled_from([{"blocks": True}, {"gamma": 1.0}, {"gamma": 5.0, "seed": 3}]),
    "proportions": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique_by=lambda p: f"{p:.12g}"),
    "model": st.sampled_from([{}, {"r2": 1.0}, {"kind": "partial_linear", "alpha": 1.0, "v": "normal"}]),
    "predictor": st.sampled_from([{}, {"max_hop": 1, "training_mask": "boundary"}, {"covariates": []}]),
    "estimators": st.lists(st.sampled_from(ESTIMATOR_NAMES), min_size=1, unique=True),
    "repetitions": st.integers(1, 6),
    "master_seed": st.integers(0, 2**16),
    "truth": st.sampled_from(["gate", "global_treatment_mean"]),
    "verbose": st.just(True),
})


@settings(max_examples=10, deadline=None)
@given(spec=SMALL_SBM_CONFIGS, cells_per_block=st.integers(1, 4))
def test_any_small_table_has_one_row_per_cell_and_the_same_bytes_at_two_workers(spec, cells_per_block):
    """A config that from_dict accepts either gives one row per (estimator, p),
    each accounting for every repetition, in the same bytes at one and two
    workers; or it is refused (an edgeless draw, an empty boundary training
    set) with the same ValueError at both. These tables have at most 18
    cells, so blocks of 1 to 4 make the two-worker run fork unless the table
    fits in one block."""
    with mock.patch.object(harness, "CELLS_PER_BLOCK", cells_per_block):  # forked workers inherit it
        try:
            one = run(ExperimentConfig.from_dict({**spec, "threads": 1}))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                run(ExperimentConfig.from_dict({**spec, "threads": 2}))
            return
        two = run(ExperimentConfig.from_dict({**spec, "threads": 2}))
        cells = [(cell.estimator, cell.p) for cell in one.cells]
        assert len(cells) == len(set(cells)) == len(spec["estimators"]) * len(spec["proportions"])
        assert all(cell.reps_used + cell.degenerate == spec["repetitions"] for cell in one.cells)
        assert two.to_csv() == one.to_csv()
        assert two.to_json() == one.to_json()
        assert multiprocessing.active_children() == []


def test_emit_empty_estimator_list_header_only(tmp_path):
    """A config must name an estimator; a report without rows still emits
    its provenance header and the column line."""
    with pytest.raises(ValueError, match="at least one estimator required"):
        sbm_config(estimators=[])
    report = run(sbm_config(estimators=["MII"], repetitions=2))
    report.cells = []
    path = tmp_path / "report.csv"
    emit_report(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[-1] == "estimator,p,bias,std,mse,reps_used,degenerate"
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


def test_verbose_report_json_is_strict_json():
    """A degenerate draw's estimate is null in report.json, never a bare NaN
    token, and stays NaN in raw_estimates; nothing non-finite is written."""
    cfg = ExperimentConfig.from_file(Path(__file__).parent.parent / "configs" / "sbm_demo.yaml")
    report = run(ExperimentConfig.from_dict({**cfg.to_dict(), "repetitions": 30, "estimators": ["DIM", "MII"],
                                             "verbose": True}))

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    written = json.loads(report.to_json(), parse_constant=refuse)
    for name, by_p in report.raw_estimates.items():
        for key, values in by_p.items():
            assert written["raw_estimates"][name][key] == [None if math.isnan(v) else v for v in values]
    nulls = sum(v is None for by_p in written["raw_estimates"].values() for values in by_p.values() for v in values)
    assert nulls == sum(cell.degenerate for cell in report.cells) > 0


@pytest.mark.parametrize("repetitions", [1, 7, 60])
def test_reports_do_not_depend_on_block_boundaries(monkeypatch, repetitions):
    """report.csv and the verbose report.json are the same bytes whatever
    number of cells a block holds, at one and two workers: also when the
    cell count is no multiple of it and the table holds less than one block."""
    def reports(cells_per_block, threads):
        monkeypatch.setattr(harness, "CELLS_PER_BLOCK", cells_per_block)  # forked workers inherit it
        report = run(pool_config(threads, repetitions))
        return report.to_csv(), report.to_json()

    sizes = (2, 5, harness.CELLS_PER_BLOCK)
    expected = reports(1, 1)
    for cells_per_block in sizes:
        for threads in (1, 2):
            assert reports(cells_per_block, threads) == expected, (cells_per_block, threads)


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
        if cell.estimator == "MII":
            assert cell.predicted_bias == 0.0
            assert abs(cell.empirical_bias) <= 3 * cell.se


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
    assert cell.estimator == "MII"
    assert abs(cell.empirical_bias - report.interior_mean_gap) <= 3 * cell.se


def test_verify_theorem2_builds_the_model_once(monkeypatch):
    """The bias law reads alpha and u from the builder's bound arguments, with
    its defaults applied, instead of building the model a second time."""
    built = []
    build = outcomes.partial_linear

    @functools.wraps(build)
    def counting(*args, **kwargs):
        built.append(kwargs)
        return build(*args, **kwargs)

    monkeypatch.setattr(outcomes, "partial_linear", counting)
    cfg = theorem2_config(alpha=0.5, sigma=2.0, reps=40)
    report = verify_theorem2(cfg)
    assert len(built) == 1
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    model = build(g, **{k: v for k, v in cfg.model.items() if k != "kind"}, p_part=part)
    assert report.alpha == model.alpha == 0.5
    assert report.interior_mean_gap == outcomes.interior_mean_gap(model.u, part)


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


def test_cli_run_reports_match_at_one_and_two_workers(tmp_path):
    """`netgate run --threads 2`, run in its own interpreter, forks its
    workers and writes the report.csv that `--threads 1` writes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src}
    config = tmp_path / "sbm.yaml"
    config.write_text(SMALL_SBM.replace("repetitions: 2", "repetitions: 24"), encoding="utf-8")
    entry = "import sys; from netgate import cli; sys.exit(cli.main())"
    for threads in ("1", "2"):
        subprocess.run(
            [sys.executable, "-c", entry, "run", "--config", str(config),
             "--threads", threads, "--out", str(tmp_path / threads)],
            env=env, capture_output=True, check=True, timeout=120,
        )
    assert (tmp_path / "2" / "report.csv").read_bytes() == (tmp_path / "1" / "report.csv").read_bytes()


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


def test_cli_gamma_override_clusters_with_the_master_seed(tmp_path):
    """--gamma keeps an explicit clustering seed and otherwise clusters with
    the master seed, --seed included, as the same config file would."""
    path, _ = write_sbm_edge_file(tmp_path)
    flags = ["--p", "0.5", "--reps", "2", "--estimators", "DIM"]

    def run_cli(name, *args):
        assert cli.main(["run", *args, *flags, "--out", str(tmp_path / name)]) == 0
        info = json.loads((tmp_path / name / "report.json").read_text())["clustering_info"]
        return info, (tmp_path / name / "partition.txt").read_bytes()

    def config_file(name, clustering):
        cfg = {"graph": {"path": str(path)}, "clustering": clustering, "master_seed": 9}
        (tmp_path / name).write_text(yaml.safe_dump(cfg), encoding="utf-8")
        return str(tmp_path / name)

    info, part = run_cli("flags", "--graph", str(path), "--gamma", "1", "--seed", "9")
    assert info == {"method": "louvain", "gamma": 1.0, "seed": 9}
    assert run_cli("file", "--config", config_file("g.yaml", {"gamma": 1.0})) == (info, part)
    kept, _ = run_cli("kept", "--config", config_file("s.yaml", {"gamma": 5.0, "seed": 4}), "--gamma", "1")
    assert kept == {"method": "louvain", "gamma": 1.0, "seed": 4}


def test_blocks_clustering_samples_the_sbm_once(monkeypatch):
    """The block labels are read off the SBM's sizes, not drawn again."""
    drawn = []
    real = sbm.generate

    @functools.wraps(real)  # validate reads the builder's signature
    def counting(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(sbm, "generate", counting)
    cfg = sbm_config()
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    assert len(drawn) == 1
    assert np.array_equal(part.cluster_of, decompose(g, drawn[0][1]).cluster_of)


def test_cli_verify_quick_prints_the_pinned_output(capsys):
    """`netgate verify --quick` passes and prints, byte for byte, the text
    pinned by its sha256: the oracle errors and the bias-law table."""
    assert cli.main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f64333efd3619121a86e7f190660928780e88776c03e81aa822419b9fa73afcb"
    )


def test_cli_run_missing_graph_fails(tmp_path):
    code = cli.main(["run", "--graph", str(tmp_path / "missing.edges"), "--out", str(tmp_path / "o")])
    assert code == 2


SMALL_SBM = (
    "graph: {sbm: {communities: 4, size: 12, p_in: 0.5, p_out: 0.05, seed: 2}}\n"
    "clustering: {blocks: true}\nrepetitions: 2\n"
)
BIG = "9" * 400  # an integer beyond the float range, which float() cannot convert


def test_config_file_lets_a_key_override_a_yaml_merge(tmp_path):
    """Only a key written twice in one mapping is refused: one that overrides
    an entry of a YAML merge key (<<) is not a repeat."""
    merged = tmp_path / "merged.yaml"
    merged.write_text(SMALL_SBM.replace("{communities: 4,", "{<<: {communities: 3, seed: 5}, communities: 4,"),
                      encoding="utf-8")
    plain = tmp_path / "plain.yaml"
    plain.write_text(SMALL_SBM, encoding="utf-8")
    assert ExperimentConfig.from_file(merged).to_dict() == ExperimentConfig.from_file(plain).to_dict()


@pytest.mark.parametrize(
    "config_text, flags, message",
    [
        (None, [], "missing.yaml"),
        ("bogus_key: 1\n", [], "unknown config keys"),
        ("1: a\nfoo: b\n", [], "unknown config keys: [1, 'foo']"),
        (SMALL_SBM + "repetitions: 10\n", [], "repeats key 'repetitions' on line 4"),
        (SMALL_SBM + "model: {beta: 2.0}\nmodel: {kind: partial_linear}\n", [], "repeats key 'model' on line 5"),
        (SMALL_SBM.replace("seed: 2}", "seed: 2, p_in: 0.4}"), [], "repeats key 'p_in' on line 1"),
        ("graph: {path: [unclosed\n", [], "error: "),
        ("repetitions: 5\n", ["--p", "1.5"], "outside (0,1)"),
        ("repetitions: 5\n", ["--p", "half"], "half"),
        ("repetitions: 5\n", ["--p", "0.3,0.3"], "duplicate treatment proportion 0.3"),
        ("proportions: 0.5\n", [], "proportions must be a list"),
        ("repetitions: ten\n", [], "repetitions must be a non-negative integer"),
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
        (SMALL_SBM + "predictor: {covariates: [degree, clusters, degree]}\n", [],
         "duplicate predictor.covariates name 'degree'"),
        (SMALL_SBM + "model: {interaction: [degree, clusters, degree]}\n", [],
         "duplicate model.interaction name 'degree'"),
        (SMALL_SBM + "verbose: 'no'\n", [], "verbose must be a boolean"),
        (SMALL_SBM.replace("blocks: true", "gamma: true"), [], "clustering.gamma must be a finite number"),
        (SMALL_SBM.replace("blocks: true", "gamma: '1.0'"), [], "clustering.gamma must be a finite number"),
        (SMALL_SBM.replace("blocks: true", "gamma: 1.0, seed: 9.7"), [],
         "clustering.seed must be a non-negative integer"),
        (SMALL_SBM.replace("blocks: true", "gamma: 1.0, seed: true"), [],
         "clustering.seed must be a non-negative integer"),
        (SMALL_SBM.replace("blocks: true", "partition: [p.txt]"), [],
         "clustering.partition must be a string, got ['p.txt']"),
        (SMALL_SBM.replace("blocks: true", "blocks: 'no'"), [], "clustering.blocks must be a boolean"),
        (SMALL_SBM.replace("blocks: true", "blocks: true, gamma: 1.0"), [], "got ['blocks', 'gamma']"),
        (SMALL_SBM.replace("blocks: true", "partition: p.txt, seed: 3"), [], "got ['partition', 'seed']"),
        (SMALL_SBM.replace("blocks: true", "blocks: true, seed: 3"), [], "got ['blocks', 'seed']"),
        (SMALL_SBM.replace("{sbm:", "{path: g.edges, sbm:"), [], "got ['path', 'sbm']"),
        (SMALL_SBM.replace("seed: 2}", "seed: 2}, format: matrix-market"), [], "got ['format', 'sbm']"),
        (SMALL_SBM + "model: {beta: '1'}\n", [], "model.beta must be a finite number, got '1'"),
        (SMALL_SBM + "model: {beta: true}\n", [], "model.beta must be a finite number, got True"),
        (SMALL_SBM + "model: {sigma: abc}\n", [], "model.sigma must be a finite number, got 'abc'"),
        (SMALL_SBM + "model: {kind: partial_linear, v: normal, v_seed: 2.5}\n", [],
         "model.v_seed must be a non-negative integer, got 2.5"),
        (SMALL_SBM + "predictor: {max_hop: true}\n", [], "predictor.max_hop must be one of (1, 2), got True"),
        (SMALL_SBM + "predictor: {max_hop: 2.9}\n", [], "predictor.max_hop must be one of (1, 2), got 2.9"),
        (SMALL_SBM + "predictor: {max_hop: '2'}\n", [], "predictor.max_hop must be one of (1, 2), got '2'"),
        (SMALL_SBM.replace("communities: 4,", "communities: '4',"), [],
         "graph.sbm.communities must be a non-negative integer, got '4'"),
        (SMALL_SBM.replace("communities: 4,", "communities: 4.0,"), [],
         "graph.sbm.communities must be a non-negative integer, got 4.0"),
        (SMALL_SBM.replace("size: 12", "size: true"), [], "graph.sbm.size must be a non-negative integer, got True"),
        (SMALL_SBM.replace("seed: 2}", "seed: 2.5}"), [], "graph.sbm.seed must be a non-negative integer, got 2.5"),
        (SMALL_SBM.replace("p_in: 0.5", "p_in: high"), [], "graph.sbm.p_in must be a finite number, got 'high'"),
        (SMALL_SBM.replace("p_out: 0.05", "p_out: true"), [], "graph.sbm.p_out must be a finite number, got True"),
        (SMALL_SBM.replace("p_in: 0.5, p_out: 0.05", "p_in: 0.0, p_out: 0.0"), [], "graph.sbm drew no edges"),
        (SMALL_SBM + "master_seed: -1\n", [], "master_seed must be a non-negative integer, got -1"),
        ("repetitions: 5\n", ["--seed", "-1"], "master_seed must be a non-negative integer, got -1"),
        (SMALL_SBM.replace("blocks: true", "gamma: 1, seed: -3"), [],
         "clustering.seed must be a non-negative integer, got -3"),
        (SMALL_SBM.replace("seed: 2}", "seed: -2}"), [], "graph.sbm.seed must be a non-negative integer, got -2"),
        (SMALL_SBM + "model: {kind: partial_linear, v: normal, v_seed: -1}\n", [],
         "model.v_seed must be a non-negative integer, got -1"),
        (SMALL_SBM.replace("blocks: true", "gamma: 1.0") + "model: {sigma: -1}\n", [],
         "model.sigma must be a finite number >= 0, got -1"),
        (SMALL_SBM.replace("blocks: true", "gamma: -1"), [], "clustering.gamma must be a finite number > 0, got -1"),
        (SMALL_SBM.replace("blocks: true", "gamma: .nan"), [], "clustering.gamma must be a finite number, got nan"),
        (SMALL_SBM.replace("blocks: true", "gamma: .inf"), [], "clustering.gamma must be a finite number, got inf"),
        (SMALL_SBM + "model: {kind: partial_linear, v: normal}\n", [],
         "truth global_treatment_mean is the mean of Y(1), the GATE only where Y(0) is 0, "
         "but model.v 'normal' adds v to Y(0): set truth: gate"),
        (SMALL_SBM + f"model: {{beta: {BIG}}}\n", [], f"model.beta must be a finite number, got {BIG}"),
        (SMALL_SBM.replace("blocks: true", f"gamma: {BIG}"), [],
         f"clustering.gamma must be a finite number, got {BIG}"),
        (SMALL_SBM + f"predictor: {{ridge_lambda: {BIG}}}\n", [],
         f"predictor.ridge_lambda must be null or a finite number, got {BIG}"),
        (SMALL_SBM.replace("p_in: 0.5", "p_in: .nan"), [], "graph.sbm.p_in must be a finite number, got nan"),
        (SMALL_SBM.replace("communities: 4,", "communities: -2,"), [],
         "graph.sbm.communities must be a non-negative integer, got -2"),
    ],
    ids=[
        "missing-file", "unknown-key", "keys-of-mixed-types", "key-repeated", "section-repeated",
        "section-key-repeated", "yaml-syntax", "p-out-of-range", "p-not-a-number", "p-duplicate",
        "proportions-not-a-list", "repetitions-not-an-int", "model-key-typo", "predictor-key-typo",
        "model-v-unknown", "graph-key-typo", "clustering-key-typo", "sbm-key-typo",
        "ridge-lambda-not-a-number", "ridge-lambda-negative", "ridge-lambda-nan", "ridge-lambda-bool",
        "covariates-a-string", "interaction-a-string", "interaction-not-names",
        "estimators-empty", "estimators-duplicate", "covariates-duplicate", "interaction-duplicate",
        "verbose-a-string",
        "gamma-a-bool", "gamma-a-string", "seed-a-float", "seed-a-bool", "partition-a-list", "blocks-a-string",
        "blocks-and-gamma", "partition-with-seed", "blocks-with-seed", "graph-path-and-sbm", "graph-sbm-with-format",
        "beta-a-string", "beta-a-bool", "sigma-a-string", "v-seed-a-float",
        "max-hop-a-bool", "max-hop-a-float", "max-hop-a-string",
        "sbm-communities-a-string", "sbm-communities-a-float", "sbm-size-a-bool", "sbm-seed-a-float",
        "sbm-p-in-a-string", "sbm-p-out-a-bool", "sbm-edgeless",
        "master-seed-negative", "master-seed-flag-negative", "clustering-seed-negative", "sbm-seed-negative",
        "v-seed-negative", "sigma-negative", "gamma-negative", "gamma-nan", "gamma-inf",
        "truth-mean-with-node-effects", "beta-beyond-float", "gamma-beyond-float", "ridge-lambda-beyond-float",
        "sbm-p-in-nan", "sbm-communities-negative",
    ],
)
def test_cli_run_bad_config_is_a_usage_error(monkeypatch, tmp_path, capsys, config_text, flags, message):
    clustered = []
    monkeypatch.setattr(community, "louvain", lambda *args: clustered.append(args))
    cfg_path = tmp_path / "missing.yaml"
    if config_text is not None:
        cfg_path.write_text(config_text, encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()
    assert clustered == []  # refused before the network is clustered


def test_boundary_training_mask_without_boundary_nodes_fails_before_the_table(monkeypatch, tmp_path, capsys):
    """One SBM block as the one cluster leaves every node interior, so a
    boundary-trained predictor has no row to fit: the run names the setting
    before any cell, and a table without GNN or AMII still runs."""
    spec = dict(
        graph={"sbm": {"communities": 1, "size": 30, "p_in": 0.3, "p_out": 0.0, "seed": 5}},
        clustering={"blocks": True},
        predictor={"training_mask": "boundary"},
        estimators=["DIM", "GNN"],
        repetitions=3,
    )
    fits = []
    monkeypatch.setattr(predictor, "fit", lambda *args, **kwargs: fits.append(args))
    message = "predictor.training_mask 'boundary': the partition has no boundary node"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(ExperimentConfig.from_dict(spec))
    cfg_path = tmp_path / "one_block.yaml"
    cfg_path.write_text(yaml.safe_dump(spec), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert fits == []
    cfg = ExperimentConfig.from_dict({**spec, "estimators": ["DIM", "MII"]})
    report = run(cfg)
    assert [(c.estimator, c.p) for c in report.cells] == [(n, p) for n in ("DIM", "MII") for p in cfg.proportions]


def test_run_refuses_a_partition_of_another_graph():
    """A partition keeps the graph it was decomposed on: run takes it alone or
    with that graph object, and otherwise names both node counts, also for a
    graph of equal CSR arrays, which would be a second P, and for another
    draw of the same size, whose interior and touch counts would silently be
    wrong."""
    cfg = sbm_config(
        graph={"sbm": {"communities": 4, "size": 12, "p_in": 0.5, "p_out": 0.05, "seed": 2}},
        repetitions=3, estimators=["DIM", "HT", "MII"],
    )
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    assert run(cfg, p_part=part).to_csv() == run(cfg, g, part).to_csv()
    twin = Graph(g.indptr.copy(), g.indices.copy())
    with pytest.raises(ValueError, match=re.escape("another graph (48 nodes, g has 48)")):
        run(cfg, twin, part)
    other, labels = sbm.generate(communities=4, size=12, p_in=0.5, p_out=0.05, seed=3)
    with pytest.raises(ValueError, match=re.escape("another graph (48 nodes, g has 48)")):
        run(cfg, g, decompose(other, labels))
    smaller, labels = sbm.generate(communities=4, size=10, p_in=0.5, p_out=0.05, seed=2)
    with pytest.raises(ValueError, match=re.escape("another graph (40 nodes, g has 48)")):
        run(cfg, g, decompose(smaller, labels))


def test_a_table_without_gnn_or_amii_builds_no_predictor_parts(monkeypatch):
    """The covariates, the FeatureBasis and f1/f0 are built only for a table
    that fits the predictor; the other estimators' rows are the same."""
    full = run(sbm_config(repetitions=20))
    bases = []

    class Counting(predictor.FeatureBasis):
        def __init__(self, *args):
            bases.append(args)
            super().__init__(*args)

    monkeypatch.setattr(predictor, "FeatureBasis", Counting)
    report = run(sbm_config(repetitions=20, estimators=["DIM", "MII"]))
    assert bases == []
    assert report.cells == [cell for cell in full.cells if cell.estimator in ("DIM", "MII")]
    run(sbm_config(repetitions=2, estimators=["DIM", "AMII"]))
    assert len(bases) == 1


def test_cli_stats_bad_gamma_is_a_usage_error(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    code = cli.main(["stats", "--graph", str(path), "--gamma", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: clustering.gamma must be a finite number > 0, got 0.0\n"


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_cli_stats_non_finite_gamma_is_a_usage_error(monkeypatch, tmp_path, capsys, gamma):
    """A NaN modularity would never meet Louvain's pass-stop test: the config
    refuses the resolution before the network loads."""
    monkeypatch.setattr(harness, "load_edge_list", lambda *args: pytest.fail("the network loaded"))
    path, _ = write_sbm_edge_file(tmp_path)
    code = cli.main(["stats", "--graph", str(path), "--gamma", gamma])
    assert code == 2
    assert capsys.readouterr().err == f"error: clustering.gamma must be a finite number, got {gamma}\n"


def write_tri_ring(tmp_path, partition=None):
    """The path of a config whose graph is the tri-ring, written as an edge file, and
    whose clustering reads the partition file text `partition` (the tri-ring's own
    clusters when None)."""
    from netgate.graph import write_partition
    from netgate.oracles import tri_ring, tri_ring_partition

    gpath, ppath, cpath = tmp_path / "tri.edges", tmp_path / "tri.part", tmp_path / "tri.yaml"
    write_edge_list(tri_ring(), gpath)
    if partition is None:
        write_partition(tri_ring_partition(), ppath)
    else:
        ppath.write_text(partition, encoding="utf-8")
    cpath.write_text(yaml.safe_dump({"graph": {"path": str(gpath)}, "clustering": {"partition": str(ppath)}}),
                     encoding="utf-8")
    return cpath


@pytest.mark.parametrize("p", ["1.5", "0", "nan"])
def test_cli_enumerate_bad_p_is_a_usage_error(tmp_path, capsys, p):
    cpath = write_tri_ring(tmp_path)
    code = cli.main(["enumerate", "--config", str(cpath), "--p", p])
    assert code == 2
    message = {"1.5": "treatment proportion 1.5 outside (0,1)", "0": "treatment proportion 0.0 outside (0,1)",
               "nan": "proportions must be a list of finite numbers, got [nan]"}[p]
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_stats(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    code = cli.main(["stats", "--graph", str(path), "--gamma", "1.0", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "clusters" in out and "interior_fraction" in out


def test_cli_stats_prints_the_clustering_stats_sidecar(tmp_path, capsys):
    path, _ = write_sbm_edge_file(tmp_path)
    out_dir = tmp_path / "out"
    flags = ["--p", "0.5", "--reps", "2", "--estimators", "DIM", "--out", str(out_dir)]
    assert cli.main(["run", "--graph", str(path), "--gamma", "1.0", "--seed", "4", *flags]) == 0
    capsys.readouterr()
    assert cli.main(["stats", "--graph", str(path), "--gamma", "1.0", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0].startswith("nodes ") and lines[1].startswith("edges ")
    assert "".join(lines[2:]) == (out_dir / "clustering_stats.txt").read_text()


def test_cli_stats_reads_the_config_as_run_does(tmp_path, capsys):
    """`netgate stats --config` builds the config's graph and partition as
    `netgate run` does, here an SBM draw clustered by its blocks."""
    cpath, out_dir = tmp_path / "sbm.yaml", tmp_path / "out"
    cpath.write_text(SMALL_SBM + "estimators: [DIM]\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cpath), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert cli.main(["stats", "--config", str(cpath)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[:2] == ["nodes 48\n", f"edges {build_graph(ExperimentConfig.from_file(cpath)).edge_count}\n"]
    assert "".join(lines[2:]) == (out_dir / "clustering_stats.txt").read_text()


@pytest.mark.parametrize("command", ["run", "stats", "enumerate"])
def test_cli_notes_what_the_network_load_dropped(tmp_path, capsys, command):
    """run, stats and enumerate print one stderr line when the edge list held a
    self-loop or a repeated edge and none when it held neither; stdout and the
    reports are those of the clean file."""
    from netgate.graph import from_edges, write_partition

    n = 40
    g = from_edges(np.arange(n), (np.arange(n) + 1) % n, n)  # a ring
    gpath, ppath, cpath = tmp_path / "ring.edges", tmp_path / "ring.part", tmp_path / "ring.yaml"
    write_partition(decompose(g, np.repeat(np.arange(4), 10)), ppath)
    cpath.write_text(yaml.safe_dump({"clustering": {"partition": str(ppath)}}), encoding="utf-8")
    args = {"run": ["--gamma", "1.0", "--p", "0.5", "--reps", "3", "--estimators", "DIM,HT"],
            "stats": ["--gamma", "5.0"], "enumerate": ["--config", str(cpath)]}[command]
    captured = {}
    for name, extra in (("clean", ""), ("dirty", "7 7\n0 1\n1 0\n2 1\n")):
        write_edge_list(g, gpath)
        with gpath.open("a", encoding="utf-8") as fh:
            fh.write(extra)
        out = ["--out", str(tmp_path / name)] if command == "run" else []
        assert cli.main([command, "--graph", str(gpath), *args, *out]) == 0
        captured[name] = capsys.readouterr()
    assert captured["clean"].err == ""
    assert captured["dirty"].err == "note: the network load dropped 1 self-loop and 3 duplicate edges\n"
    assert captured["dirty"].out == captured["clean"].out
    if command == "run":
        for report in ("report.csv", "report.json"):
            assert (tmp_path / "dirty" / report).read_bytes() == (tmp_path / "clean" / report).read_bytes()


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
    cpath = tmp_path / "path.yaml"
    cpath.write_text(yaml.safe_dump({"clustering": {"partition": str(ppath)}}), encoding="utf-8")
    code = cli.main(["enumerate", "--config", str(cpath), "--graph", str(gpath)])
    assert code == 2
    assert "enumeration guard" in capsys.readouterr().err


def test_cli_enumerate_refuses_an_out_of_range_cluster_id(tmp_path, capsys):
    cpath = write_tri_ring(tmp_path, "".join(f"{i} 0\n" for i in range(8)) + "8 99999999999999999999999\n")
    code = cli.main(["enumerate", "--config", str(cpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 9: cluster 99999999999999999999999 out of range")


def test_cli_enumerate_reports_unbiasedness(tmp_path, capsys):
    """One block of lines per proportion, each with an exact design expectation
    of HT equal to the true GATE."""
    cpath = write_tri_ring(tmp_path)
    code = cli.main(["enumerate", "--config", str(cpath), "--p", "0.2,0.5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["clusters 3", "true_gate 2"]  # the default model: beta 1, r1 1, r2 0
    assert [line.split()[0] for line in lines[2:]] == ["p", "difference", "exposure_probability_error",
                                                       "probability_mass_error"] * 2
    assert [lines[2], lines[6]] == ["p 0.2", "p 0.5"]
    for block in (lines[2:6], lines[6:10]):
        assert all(float(line.split()[1]) < 1e-12 for line in block[1:])


@pytest.mark.parametrize(
    "model, message",
    [("{beta: .inf}", "model.beta must be a finite number, got inf"),
     ("{beta: 1.0e+308, r1: 1.0e+308}", "oracle case p=0.1: HT is not finite on cluster bits")],
    ids=["infinite", "overflowing"],
)
def test_cli_enumerate_refuses_a_non_finite_model(tmp_path, capsys, model, message):
    """A coefficient that is not finite is refused with the config; finite
    ones whose potential overflows leave HT non-finite on an assignment,
    which the enumeration refuses instead of summing."""
    cpath = write_tri_ring(tmp_path)
    with cpath.open("a", encoding="utf-8") as fh:
        fh.write(f"model: {model}\n")
    code = cli.main(["enumerate", "--config", str(cpath)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_readme_library_example_names_resolve_on_the_package_root():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from netgate import \(([^)]*)\)", readme)
    assert block is not None, "README has no 'from netgate import (...)' block"
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert [name for name in names if not hasattr(netgate, name)] == []


def _counting(module, name, calls, monkeypatch):
    """Replace module.name with a wrapper, keeping its signature, that appends name to calls."""
    original = getattr(module, name)

    @functools.wraps(original)
    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_run_returns_its_partition_on_the_report_and_writes_it_to_neither_report():
    cfg = sbm_config(clustering={"gamma": 1.0, "seed": 2}, repetitions=4)
    report = run(cfg)
    built, info = build_partition(cfg, build_graph(cfg))
    np.testing.assert_array_equal(report.partition.cluster_of, built.cluster_of)
    assert report.partition.clustering == info == report.clustering_info
    preloaded = run(cfg, built.graph, built)
    assert preloaded.partition is built
    assert report.to_csv() == preloaded.to_csv() and report.to_json() == preloaded.to_json()
    assert set(json.loads(report.to_json())) == {"version", "config_sha256", "master_seed", "truth_kind",
                                                 "truth_value", "clustering_info", "clustering_stats", "cells"}


def test_cli_run_builds_the_graph_once_and_clusters_once(monkeypatch, tmp_path):
    calls = []
    _counting(sbm, "generate", calls, monkeypatch)
    _counting(community, "louvain_with_history", calls, monkeypatch)
    cfg_path = tmp_path / "gamma.yaml"
    cfg_path.write_text(SMALL_SBM.replace("blocks: true", "gamma: 1.0"), encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg_path), "--estimators", "DIM,MII", "--out", str(out)]) == 0
    assert calls == ["generate", "louvain_with_history"]
    cfg = ExperimentConfig.from_file(cfg_path)
    part, _ = build_partition(cfg, build_graph(cfg))
    assert (out / "partition.txt").read_text() == "".join(f"{i} {c}\n" for i, c in enumerate(part.cluster_of))


def test_verify_theorem2_builds_its_sbm_once(monkeypatch):
    calls = []
    _counting(sbm, "generate", calls, monkeypatch)
    cfg = theorem2_config(alpha=1.0, sigma=2.0, reps=20)
    report = verify_theorem2(cfg)
    assert calls == ["generate"]
    g = build_graph(cfg)
    part, _ = build_partition(cfg, g)
    assert report.interior_mean_gap == outcomes.interior_mean_gap(outcomes.covariate_vector("degree", g, part), part)


def test_cli_run_bad_override_exits_2_before_the_graph_loads(monkeypatch, tmp_path, capsys):
    def load(*args):
        raise AssertionError("the graph loaded")

    monkeypatch.setattr(harness, "build_graph", load)
    monkeypatch.setattr(harness, "load_edge_list", load)
    cfg_path = tmp_path / "sbm.yaml"
    cfg_path.write_text(SMALL_SBM, encoding="utf-8")
    for flags in (["--config", str(cfg_path)], ["--graph", str(tmp_path / "net.edges"), "--gamma", "1.0"]):
        assert cli.main(["run", *flags, "--p", "1.5", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: treatment proportion 1.5 outside (0,1)\n"
    assert not (tmp_path / "o").exists()


def test_partitions_record_the_clustering_that_made_them(tmp_path):
    cfg = sbm_config(graph={"sbm": {"communities": 4, "size": 12, "p_in": 0.5, "p_out": 0.05, "seed": 2}})
    g = build_graph(cfg)
    assert community.louvain(g, 3, np.int64(7)).clustering == {"method": "louvain", "gamma": 3.0, "seed": 7}
    path = tmp_path / "blocks.txt"
    path.write_text("".join(f"{i} {i // 12}\n" for i in range(48)), encoding="utf-8")
    assert read_partition(g, path).clustering == {"method": "file", "path": str(path)}
    assert build_partition(cfg, g)[0].clustering == {"method": "sbm-blocks"}
    assert decompose(g, np.arange(48) // 12).clustering is None


SMALL_SBM_SPEC = {"communities": 4, "size": 12, "p_in": 0.5, "p_out": 0.05, "seed": 2}


def small_sbm_config(**overrides):
    return sbm_config(graph={"sbm": SMALL_SBM_SPEC}, repetitions=3, estimators=["DIM", "MII"], **overrides)


def test_run_refuses_a_louvain_partition_for_a_blocks_config():
    """The report names the config's clustering, so a partition that records
    another method is refused, naming both records; one made by hand with
    decompose records none and runs."""
    cfg = small_sbm_config()
    g = build_graph(cfg)
    message = ("the partition was made by {'method': 'louvain', 'gamma': 0.3, 'seed': 1}, "
               "not by the config's clustering {'method': 'sbm-blocks'}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run(cfg, g, community.louvain(g, 0.3, 1))
    assert run(cfg, g, decompose(g, sbm.block_labels(4, 12))).to_csv() == run(cfg).to_csv()


def test_run_refuses_a_louvain_partition_at_another_seed():
    cfg = small_sbm_config(clustering={"gamma": 1.0, "seed": 1})
    g = build_graph(cfg)
    message = "{'method': 'louvain', 'gamma': 1.0, 'seed': 2}, not by the config's clustering {'method': 'louvain', "
    with pytest.raises(ValueError, match=re.escape(message)):
        run(cfg, g, community.louvain(g, 1.0, 2))
    assert run(cfg, g, community.louvain(g, 1.0, 1)).to_csv() == run(cfg).to_csv()


def test_run_refuses_a_partition_file_read_from_another_path(tmp_path):
    here, there = tmp_path / "here.txt", tmp_path / "there.txt"
    for path in (here, there):  # the same clusters
        path.write_text("".join(f"{i} {i // 12}\n" for i in range(48)), encoding="utf-8")
    cfg = small_sbm_config(clustering={"partition": str(here)})
    g = build_graph(cfg)
    with pytest.raises(ValueError, match=re.escape(f"made by {{'method': 'file', 'path': '{there}'}}, not by")):
        run(cfg, g, read_partition(g, there))
    assert run(cfg, g, read_partition(g, here)).to_csv() == run(cfg).to_csv()
