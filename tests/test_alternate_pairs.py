"""scripts/alternate_pairs.py: the order of the runs and the summary, with a
stand-in for the benchmark runs (no benchmark starts)."""

import importlib.util
import json
import math
import py_compile
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


def test_unresolved_marks_a_parent_spread_wider_than_the_bound_unless_every_change_run_wins():
    # a bimodal parent setup_s: median 0.664, IQR 0.227 against a bound of 0.25 * 0.664 = 0.166
    parent = [0.58, 0.60, 0.62, 0.65, 0.66, 0.668, 0.84, 0.87, 0.92, 0.96]
    slower = [0.86] * 10
    faster = [0.55] * 10  # every change run beats every parent run
    bounds = {"setup_s": 0.25, "cells_per_s": 0.25}
    for change, marked in ((slower, ["setup_s"]), (faster, [])):
        results = [{"parent": {"setup_s": p, "cells_per_s": 100.0 + i},
                    "change": {"setup_s": c, "cells_per_s": 90.0}}
                   for i, (p, c) in enumerate(zip(parent, change))]
        summary = alternate_pairs.summarize(results, BETTER)
        q1, q3 = summary["setup_s"]["parent_quartiles"]
        assert q3 - q1 > 0.25 * summary["setup_s"]["parent"]
        # cells_per_s: a narrow parent spread resolves a 10% change either way
        assert alternate_pairs.unresolved(summary, results, BETTER, bounds) == marked
    # a metric without a bound is never marked
    assert alternate_pairs.unresolved(summary, results, BETTER, {}) == []


def test_main_marks_an_unresolved_metric_and_keeps_its_flags_and_exit_code(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                       {"name": "run_s", "better": "lower", "bound": 0.25}]}))
    parent_setup = iter([0.6, 0.95, 0.6, 0.95])

    def run_checkout(root, workload, seed, seconds):
        if root.name == "parent":
            return {"setup_s": next(parent_setup), "run_s": 1.0}
        return {"setup_s": 1.5, "run_s": 1.0}

    monkeypatch.setattr(alternate_pairs, "run_checkout", run_checkout)
    assert alternate_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    setup = next(line for line in lines if line.startswith("setup_s"))
    assert setup.endswith("; unresolved: parent IQR > bound 0.25 x parent median")
    assert "unresolved" not in next(line for line in lines if line.startswith("run_s"))
    assert [line for line in lines if line.startswith("FLAG")] == [
        "FLAG w setup_s: change median is worse than the parent's by more than its bound 0.25"]


def test_each_checkout_keeps_its_bytecode_in_a_fresh_directory_of_its_own(monkeypatch, tmp_path):
    """A __pycache__ already in a checkout is neither read nor written: here it
    holds bytecode of an older helper.py that Python would load unchecked."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(
            "import json, helper\nprint(json.dumps({'metrics': {'run_s': {'value': helper.VALUE}}}))\n")
    helper = roots[0] / "perfbench" / "helper.py"
    helper.write_text("VALUE = 9.5\n")
    stale = Path(importlib.util.cache_from_source(str(helper)))
    py_compile.compile(str(helper), str(stale), invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    stale_bytes = stale.read_bytes()
    for root in roots:
        (root / "perfbench" / "helper.py").write_text("VALUE = 2.5\n")
    for root in (roots[0], roots[1], roots[0]):
        assert alternate_pairs.run_checkout(root, "w", 1, 1.0) == {"run_s": 2.5}
    dirs = [alternate_pairs.bytecode_dir(root) for root in roots]
    assert dirs[0] != dirs[1]
    for root, cache in zip(roots, dirs):  # the cache mirrors the source's absolute path
        assert not cache.is_relative_to(tmp_path)
        assert [p.parent for p in cache.rglob("helper.*.pyc")] == [cache / (root / "perfbench").relative_to("/")]
    assert [p for root in roots for p in root.rglob("__pycache__")] == [stale.parent]
    assert list(stale.parent.iterdir()) == [stale] and stale.read_bytes() == stale_bytes
