"""scripts/alternate_pairs.py: the order of the runs and the summary, with a
stand-in for the benchmark runs (no benchmark starts)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "alternate_pairs.py"
spec = importlib.util.spec_from_file_location("alternate_pairs", SCRIPT)
alternate_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(alternate_pairs)

BETTER = {"cells_per_s": "higher", "setup_s": "lower", "only_parent": "lower"}


def test_pairs_alternate_which_side_runs_first():
    calls, shown = [], []

    def run_side(side):
        calls.append(side)
        return {"cells_per_s": float(len(calls))}

    results = alternate_pairs.run_pairs(5, run_side, lambda i, pair: shown.append((i, list(pair))))
    assert calls == ["parent", "change", "change", "parent", "parent", "change",
                     "change", "parent", "parent", "change"]
    assert shown == [(i, list(alternate_pairs.pair_order(i))) for i in range(5)]
    # each pair keeps the metrics of its own two runs
    assert [(r["parent"]["cells_per_s"], r["change"]["cells_per_s"]) for r in results] == [
        (1, 2), (4, 3), (5, 6), (8, 7), (9, 10)]


def test_summary_takes_medians_of_each_side_and_of_the_pair_ratios():
    parent = [100.0, 200.0, 400.0, 50.0]
    change = [110.0, 300.0, 400.0, 40.0]
    results = [{"parent": {"cells_per_s": p, "setup_s": 2.0, "only_parent": 1.0},
                "change": {"cells_per_s": c, "setup_s": 1.0}} for p, c in zip(parent, change)]
    summary = alternate_pairs.summarize(results, BETTER)
    assert set(summary) == {"cells_per_s", "setup_s"}  # a metric one side lacks is left out
    cells = summary["cells_per_s"]
    assert cells["parent"] == 150.0 and cells["change"] == 205.0  # even counts: mean of the middle two
    assert cells["ratio"] == pytest.approx((1.0 + 1.1) / 2)  # ratios 1.1, 1.5, 1.0, 0.8
    assert (cells["better"], cells["worse"]) == (2, 1)  # the equal pair counts for neither
    assert cells["parent_quartiles"] == (87.5, 250.0)  # numpy.percentile(parent, [25, 75])
    # lower is better for setup_s: a drop is better in every pair
    assert summary["setup_s"] == {"parent": 2.0, "change": 1.0, "parent_quartiles": (2.0, 2.0),
                                  "ratio": 0.5, "better": 4, "worse": 0}


def test_a_zero_parent_value_gives_a_nan_ratio():
    results = [{"parent": {"run_s": 0.0}, "change": {"run_s": 1.0}}]
    summary = alternate_pairs.summarize(results, {"run_s": "lower"})["run_s"]
    assert math.isnan(summary["ratio"])
    assert summary["parent_quartiles"] == (0.0, 0.0)  # one run: no spread


def test_directions_are_read_from_the_benchmark_file_without_writing_it():
    before = (ROOT / "BENCHMARK.json").read_bytes()
    better = alternate_pairs.read_better(ROOT)
    assert (ROOT / "BENCHMARK.json").read_bytes() == before
    assert better == {m["name"]: m["better"] for m in json.loads(before)["end_to_end"]}
    assert better["cells_per_s"] == "higher" and better["setup_s"] == better["peak_rss_mb"] == "lower"


def test_main_runs_ten_pairs_and_prints_better_of_all_pairs(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "cells_per_s", "better": "higher"}, {"name": "run_s", "better": "lower"}]}))
    runs = []

    def run_checkout(root, workload, seed, seconds):
        runs.append(root.name)
        change = root.name == "change"
        return {"cells_per_s": 110.0 if change else 100.0, "run_s": 2.0 if change else 1.5}

    monkeypatch.setattr(alternate_pairs, "run_checkout", run_checkout)
    assert alternate_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w"]) == 0
    assert len(runs) == 20
    out = capsys.readouterr().out
    assert "cells_per_s (higher is better): median parent 100 (quartiles 100-100, IQR 0)" in out
    assert "better in 10 of 10 pairs, worse in 0 (two-sided sign-test p 0.00195)" in out
    assert "run_s (lower is better)" in out and "better in 0 of 10 pairs, worse in 10 (two-sided" in out


@pytest.mark.parametrize("better, worse, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (7, 3, 352 / 1024), (3, 7, 352 / 1024),
    (5, 5, 1.0), (1, 0, 1.0), (0, 0, 1.0), (6, 0, 2 / 64)])
def test_sign_test_p_is_the_exact_two_sided_binomial_tail(better, worse, p):
    assert alternate_pairs.sign_test_p(better, worse) == p


def test_regressions_flag_a_metric_worse_than_its_bound_in_its_own_direction():
    summary = {
        "cells_per_s": {"parent": 100.0, "change": 74.0},  # 26% lower, higher is better
        "setup_s": {"parent": 2.0, "change": 2.4},  # 20% higher, within 0.25
        "peak_rss_mb": {"parent": 100.0, "change": 111.0},  # 11% higher, bound 0.1
        "run_s": {"parent": 10.0, "change": 5.0},  # better
        "unbounded": {"parent": 1.0, "change": 9.0},
    }
    better = {**BETTER, "peak_rss_mb": "lower", "run_s": "lower", "unbounded": "lower"}
    bounds = {"cells_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1, "run_s": 0.25}
    assert alternate_pairs.regressions(summary, better, bounds) == ["cells_per_s", "peak_rss_mb"]


def test_main_runs_every_workload_by_default_and_flags_each_regression(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "end_to_end": [{"name": "cells_per_s", "better": "higher", "bound": 0.25},
                       {"name": "run_s", "better": "lower", "bound": 0.25}]}))
    runs = []

    def run_checkout(root, workload, seed, seconds):
        runs.append((workload, root.name))
        slow = root.name == "change" and workload == "b"
        return {"cells_per_s": 50.0 if slow else 100.0, "run_s": 1.0}

    monkeypatch.setattr(alternate_pairs, "run_checkout", run_checkout)
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert alternate_pairs.main([parent, change, "--pairs", "2"]) == 1
    assert [w for w, _ in runs] == ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FLAG")] == [
        "FLAG b cells_per_s: change median is worse than the parent's by more than its bound 0.25"]

    runs.clear()
    assert alternate_pairs.main([parent, change, "--pairs", "1", "--workload", "c", "--workload", "a"]) == 0
    assert runs == [("c", "parent"), ("c", "change"), ("a", "parent"), ("a", "change")]
    assert "FLAG" not in capsys.readouterr().out
