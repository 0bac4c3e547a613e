"""perfbench's traced replay calls the package's public entry points and must
reproduce `harness.run` bit for bit; removing or re-signing one of them
fails here instead of turning a per-layer benchmark metric absent. The
report must also pass perfbench's correctness gate, which would otherwise
count the run as failed."""

import sys
from pathlib import Path

import numpy as np

from netgate import harness

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, gate, tracing  # noqa: E402


def test_replay_finds_every_entry_point_and_repeats_the_run():
    config = harness.ExperimentConfig.from_dict(dict(
        graph={"sbm": {"communities": 6, "size": 20, "p_in": 0.3, "p_out": 0.01, "seed": 4}},
        clustering={"blocks": True},
        proportions=[0.3, 0.5],
        model={"kind": "linear_two_hop", "interaction": ["degree", "clusters"]},
        predictor={"covariates": ["degree", "clusters"], "training_mask": "boundary"},
        estimators=["DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII"],
        repetitions=6,
        master_seed=8,
        truth="gate",
        verbose=True,
    ))
    g = harness.build_graph(config)
    part, _ = harness.build_partition(config, g)
    model = harness.build_model(config, g, part)
    assert tracing.missing_entry_points() == []
    replay = tracing.replay_table(tracing.Tracer(), config, g, part, model)
    assert replay["probe_errors"] == {}
    for name, values in replay["values"].items():
        assert np.isfinite(values).any(), name
    report = harness.run(config, g, part)
    assert bench.compare_estimates(replay["values"], report, config) == []
    assert gate.check_invariants(report, config, g, part) == []


def test_replay_takes_the_predictor_defaults_the_run_takes():
    """An empty predictor section: every predictor setting is a default, read
    by `harness.run` from the signature of `predictor.Counterfactuals` and by
    the replay from its own spelling, so a default changed on one side only
    fails here."""
    config = harness.ExperimentConfig.from_dict(dict(
        graph={"sbm": {"communities": 6, "size": 20, "p_in": 0.3, "p_out": 0.01, "seed": 4}},
        clustering={"blocks": True},
        proportions=[0.3, 0.5],
        model={"kind": "partial_linear", "u": "degree", "v": "normal"},
        predictor={},
        estimators=["MII", "GNN", "AMII"],
        repetitions=6,
        master_seed=8,
        truth="gate",
        verbose=True,
    ))
    g = harness.build_graph(config)
    part, _ = harness.build_partition(config, g)
    replay = tracing.replay_table(tracing.Tracer(), config, g, part, harness.build_model(config, g, part))
    assert replay["probe_errors"] == {}
    assert bench.compare_estimates(replay["values"], harness.run(config, g, part), config) == []
