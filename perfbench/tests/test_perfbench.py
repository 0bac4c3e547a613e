"""Tests of the benchmark itself: its inputs, its correctness gate and its
traced replica. Run with `python -m pytest perfbench/tests`."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from netgate import community, harness, outcomes, sbm
from netgate.graph import decompose, load_edge_list, read_partition
from perfbench import bench, gate, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = gate.load_reference()


def _generate(w, seed, root):
    inputs = workloads.generate(w, seed, root, "work")
    files = [inputs.graph] + ([inputs.partition] if inputs.partition else [])
    return inputs, {f: (root / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    _, first = _generate(w, 3, tmp_path / "a")
    _, again = _generate(w, 3, tmp_path / "b")
    _, other = _generate(w, 4, tmp_path / "c")
    assert first == again
    assert list(first.values()) != list(other.values())


def test_paper_table_surrogate_size_and_interior(tmp_path):
    w = workloads.WORKLOADS["paper_table"]
    ref = REFERENCE["paper_table"]
    inputs, _ = _generate(w, workloads.REFERENCE_SEED, tmp_path)
    g = load_edge_list(tmp_path / inputs.graph)
    part = community.louvain(g, w.gamma, workloads.REFERENCE_SEED)
    assert g.node_count == 50 * 232 == ref["n"]
    assert g.edge_count == ref["m"]
    assert 540_000 < g.edge_count < 560_000
    assert part.cluster_count == ref["clusters"] == 50
    assert part.interior_mask.mean() > 0.05


def test_fine_ingest_edge_list_exercises_relabel_and_dedupe(tmp_path):
    w = workloads.WORKLOADS["fine_ingest"]
    seed = workloads.REFERENCE_SEED
    inputs, _ = _generate(w, seed, tmp_path)
    g = load_edge_list(tmp_path / inputs.graph)
    planted, _ = sbm.generate(seed=seed, **w.sbm)
    assert g.node_count == planted.node_count
    assert g.edge_count == planted.edge_count == REFERENCE["fine_ingest"]["m"]
    assert 0.005 * g.edge_count < g.dropped_duplicates < 0.015 * g.edge_count
    assert g.labels.max() > 100 * g.node_count  # sparse labels were relabeled
    # same degree sequence up to the relabeling
    assert sorted(g.degrees.tolist()) == sorted(planted.degrees.tolist())


def test_small_many_partition_file_is_the_planted_blocks(tmp_path):
    w = workloads.WORKLOADS["small_many"]
    inputs, _ = _generate(w, 5, tmp_path)
    g = load_edge_list(tmp_path / inputs.graph)
    planted, blocks = sbm.generate(seed=5, **w.sbm)
    part = read_partition(g, tmp_path / inputs.partition)
    assert g.node_count == 2000 and g.edge_count == planted.edge_count
    assert np.array_equal(part.cluster_of, blocks)
    assert part.interior_mask.any()


def test_digest_check_flags_one_changed_byte():
    csv = b"# netgate simulation report\nestimator,p,bias\nHT,0.1,0.25\n"
    digest = gate.sha256(csv)
    assert gate.check_digest(csv, digest) == []
    for i in range(len(csv)):
        changed = bytearray(csv)
        changed[i] ^= 0x01
        assert gate.check_digest(bytes(changed), digest), f"byte {i} not caught"


def _tiny(estimators=workloads.ALL_ESTIMATORS, r2=0.0, reps=12, threads=2, verbose=True):
    g, blocks = sbm.generate(6, 25, 0.3, 0.01, seed=9)
    part = decompose(g, blocks)
    config = harness.ExperimentConfig.from_dict({
        "graph": {"path": "tiny.mtx"},
        "clustering": {"partition": "tiny.part"},
        "proportions": [0.2, 0.5],
        "model": {"kind": "linear_two_hop", "beta": 1.0, "r1": 1.0, "r2": r2,
                  "sigma": 2.0, "interaction": ["degree", "clusters"]},
        "predictor": {"max_hop": 2, "covariates": ["degree", "clusters"]},
        "estimators": list(estimators),
        "repetitions": reps,
        "master_seed": 17,
        "threads": threads,
        "verbose": verbose,
    })
    return g, part, config


def test_traced_replica_matches_harness_run_bit_for_bit():
    g, part, config = _tiny()
    report = harness.run(config, g=g, p_part=part)
    tracer = tracing.Tracer()
    replay = tracing.replay_table(tracer, config, g, part, harness.build_model(config, g, part))
    assert bench.compare_estimates(replay["values"], report, config) == []
    assert replay["probe_errors"] == {}

    cells = config.repetitions * len(config.proportions)
    assert len(tracer.durations("harness.cell")) == cells
    assert len(tracer.durations("predictor.predict")) == 2 * cells
    for span, _ in bench.TIMED_SPANS:
        assert len(tracer.durations(span)) == cells * (2 if span == "predictor.predict" else 1)
    spans = tracer.spans
    for name, start, end, parent, cell in spans:
        assert end >= start
        if name in ("harness.cell", "probe"):
            assert parent == -1
        else:
            assert spans[parent][4] == cell


def test_replica_detects_a_changed_estimate():
    g, part, config = _tiny()
    report = harness.run(config, g=g, p_part=part)
    replay = tracing.replay_table(tracing.Tracer(), config, g, part,
                                  harness.build_model(config, g, part))
    replay["values"]["HT"][1, 3] = np.nextafter(replay["values"]["HT"][1, 3], np.inf)
    assert bench.compare_estimates(replay["values"], report, config) == [
        "traced HT estimates differ from harness.run"
    ]


def test_invariants_hold_and_catch_a_broken_report():
    g, part, config = _tiny(r2=1.0, verbose=False)
    report = harness.run(config, g=g, p_part=part)
    assert gate.check_invariants(report, config, g, part) == []
    broken = dataclasses.replace(report.cells[0], reps_used=report.cells[0].reps_used - 1)
    report.cells[0] = broken
    report.truth_value += 1e-9
    errors = gate.check_invariants(report, config, g, part)
    assert any("reps_used" in e for e in errors)
    assert any("global_treatment_mean" in e for e in errors)


@pytest.mark.parametrize("r2", [0.0, 1.0])
def test_closed_form_truth_matches_the_model(r2):
    g, part, config = _tiny(r2=r2, verbose=False)
    model = harness.build_model(config, g, part)
    assert gate.closed_form_treatment_mean(g, part, config.model) == pytest.approx(
        outcomes.global_treatment_mean(model), rel=1e-13)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_reference_was_recorded_for_the_current_workloads():
    for name, w in workloads.WORKLOADS.items():
        assert REFERENCE[name]["params"] == workloads.params(w)
        assert REFERENCE[name]["seed"] == workloads.REFERENCE_SEED


def test_recorded_digest_is_that_of_a_single_thread_run(tmp_path, monkeypatch):
    w = workloads.WORKLOADS["small_many"]
    # the config's file paths, and so the report's config digest, are the benchmark's own
    inputs = workloads.generate(w, workloads.REFERENCE_SEED, tmp_path, workloads.WORK)
    monkeypatch.chdir(tmp_path)
    config = harness.ExperimentConfig.from_dict(
        workloads.experiment_dict(w, workloads.REFERENCE_SEED, inputs, threads=1))
    g, part = bench.load_and_partition(config)
    csv = harness.run(config, g=g, p_part=part).to_csv().encode("utf-8")
    assert gate.check_digest(csv, REFERENCE["small_many"]["report_sha256"]) == []
