"""scripts/alternate_pairs.py: the order of the runs and the summary, with a
stand-in for the benchmark runs (no benchmark starts)."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "alternate_pairs.py"
spec = importlib.util.spec_from_file_location("alternate_pairs", SCRIPT)
alternate_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(alternate_pairs)


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
    summary = alternate_pairs.summarize(results, ("cells_per_s", "setup_s", "only_parent"))
    assert set(summary) == {"cells_per_s", "setup_s"}  # a metric one side lacks is left out
    cells = summary["cells_per_s"]
    assert cells["parent"] == 150.0 and cells["change"] == 205.0  # even counts: mean of the middle two
    assert cells["ratio"] == pytest.approx((1.0 + 1.1) / 2)  # ratios 1.1, 1.5, 1.0, 0.8
    assert cells["higher"] == 2
    assert summary["setup_s"] == {"parent": 2.0, "change": 1.0, "ratio": 0.5, "higher": 0}


def test_a_zero_parent_value_gives_a_nan_ratio():
    results = [{"parent": {"run_s": 0.0}, "change": {"run_s": 1.0}}]
    assert math.isnan(alternate_pairs.summarize(results, ("run_s",))["run_s"]["ratio"])
