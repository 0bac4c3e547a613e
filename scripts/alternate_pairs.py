#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 scripts/alternate_pairs.py PARENT_DIR CHANGE_DIR --workload paper_table --pairs 10 --seconds 15

--workload may be given more than once; without it, every workload of the
change checkout's BENCHMARK.json runs, one after another. Pair i runs
`perfbench/run.py` of both checkouts one after the other, on the same
workload and seed: the parent first in pairs 1, 3, 5, ... and the change
first in pairs 2, 4, 6, ..., so that a host whose speed drifts favours
neither side. Each run's metrics come from the JSON object on the
last line of its standard output. The end-to-end metrics and whether lower
or higher is better come from the change checkout's BENCHMARK.json, which
is only read. Per workload, the script prints every pair's metrics, then per
metric each side's median, the parent's quartiles, the median over pairs of
the ratio change / parent, in how many pairs the change is better and
worse (an equal pair counts for neither) and the exact two-sided sign-test
p-value of those two counts. It marks a metric "unresolved" when the
parent's interquartile range is wider than the metric's `bound` times the
parent median, unless every change run beats every parent run: such runs
spread too widely to tell a change of that size. It flags each metric whose
change median is worse than the parent median by more than the metric's
`bound`, a fraction of the parent median, and exits 1 if it flagged any.

Each checkout's runs write and read their bytecode in a fresh directory of
their own (PYTHONPYCACHEPREFIX), made once per script run, so that a
`__pycache__` left in one checkout does not favour that side.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")


def read_spec(root: Path) -> dict:
    """The BENCHMARK.json at root."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def read_better(root: Path) -> dict[str, str]:
    """{metric: "lower" or "higher"} for each end-to-end metric of the
    BENCHMARK.json at root, in its order."""
    return {m["name"]: m["better"] for m in read_spec(root)["end_to_end"]}


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i (from 0) in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_pairs(pairs: int, run_side: Callable[[str], dict[str, float]],
              show: Callable[[int, dict], None] = lambda i, pair: None) -> list[dict[str, dict[str, float]]]:
    """For each pair, {side: metrics}, running the sides in pair_order and
    handing each finished pair to show."""
    results = []
    for i in range(pairs):
        pair = {side: run_side(side) for side in pair_order(i)}
        show(i, pair)
        results.append(pair)
    return results


def _ratio(change: float, parent: float) -> float:
    return change / parent if parent else float("nan")


def _quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated between order statistics as numpy's percentile does."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(results: list[dict[str, dict[str, float]]], better: dict[str, str]) -> dict[str, dict]:
    """Per metric of `better` that every run reports: each side's median, the
    parent's quartiles, the median pair ratio change / parent and the number
    of pairs in which the change is better and worse; `better` maps each
    metric to "lower" or "higher", the direction in which it improves."""
    summary = {}
    for name, direction in better.items():
        if not all(name in pair[side] for pair in results for side in SIDES):
            continue
        parent = [pair["parent"][name] for pair in results]
        change = [pair["change"][name] for pair in results]
        improves = (lambda c, p: c > p) if direction == "higher" else (lambda c, p: c < p)
        summary[name] = {
            "parent": statistics.median(parent),
            "change": statistics.median(change),
            "parent_quartiles": _quartiles(parent),
            "ratio": statistics.median(_ratio(c, p) for c, p in zip(change, parent)),
            "better": sum(improves(c, p) for c, p in zip(change, parent)),
            "worse": sum(improves(p, c) for c, p in zip(change, parent)),
        }
    return summary


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign-test p-value of `better` against `worse` pairs
    (ties left out): the chance that a fair coin splits better + worse pairs
    at least this unevenly."""
    n = better + worse
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**n)


def regressions(summary: dict[str, dict], better: dict[str, str], bounds: dict[str, float]) -> list[str]:
    """The metrics of `summary` with a bound whose change median is worse than
    the parent median by more than bound * |parent median|."""
    flagged = []
    for name, s in summary.items():
        worse_by = s["parent"] - s["change"] if better[name] == "higher" else s["change"] - s["parent"]
        if name in bounds and worse_by > bounds[name] * abs(s["parent"]):
            flagged.append(name)
    return flagged


def unresolved(summary: dict[str, dict], results: list[dict[str, dict[str, float]]], better: dict[str, str],
               bounds: dict[str, float]) -> list[str]:
    """The metrics of `summary` with a bound whose parent interquartile range
    is wider than bound * |parent median|, unless every change run beats
    every parent run."""
    marked = []
    for name, s in summary.items():
        q1, q3 = s["parent_quartiles"]
        parent = [pair["parent"][name] for pair in results]
        change = [pair["change"][name] for pair in results]
        beats_all = min(change) > max(parent) if better[name] == "higher" else max(change) < min(parent)
        if name in bounds and q3 - q1 > bounds[name] * abs(s["parent"]) and not beats_all:
            marked.append(name)
    return marked


@functools.cache
def bytecode_dir(root: Path) -> Path:
    """The bytecode directory of the checkout at root: made fresh on this
    script run's first run of root, kept for its later runs and removed at exit."""
    path = Path(tempfile.mkdtemp(prefix="alternate-pairs-pycache-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def run_checkout(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run of the checkout at root: {metric: value}. Its
    bytecode goes to bytecode_dir(root), never to a __pycache__ in the checkout."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(bytecode_dir(root))}
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = read_spec(roots["change"])
    better = read_better(roots["change"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    flagged = False

    def show(i: int, pair: dict) -> None:
        shared = [name for name in better if name in pair["parent"] and name in pair["change"]]
        cells = "  ".join(f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}" for name in shared)
        print(f"pair {i + 1} ({pair_order(i)[0]} first): {cells}", flush=True)

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        print(f"workload {workload}", flush=True)

        def run_side(side: str) -> dict[str, float]:
            return run_checkout(roots[side], workload, args.seed, args.seconds)

        results = run_pairs(args.pairs, run_side, show)
        summary = summarize(results, better)
        marked = unresolved(summary, results, better, bounds)
        for name, s in summary.items():
            q1, q3 = s["parent_quartiles"]
            mark = f"; unresolved: parent IQR > bound {bounds[name]:g} x parent median" if name in marked else ""
            print(f"{name} ({better[name]} is better): median parent {s['parent']:.6g} (quartiles {q1:.6g}-"
                  f"{q3:.6g}, IQR {q3 - q1:.4g}), change {s['change']:.6g}; median pair ratio {s['ratio']:.4g}; "
                  f"better in {s['better']} of {args.pairs} pairs, worse in {s['worse']} "
                  f"(two-sided sign-test p {sign_test_p(s['better'], s['worse']):.3g}){mark}")
        for name in regressions(summary, better, bounds):
            flagged = True
            print(f"FLAG {workload} {name}: change median is worse than the parent's by more than its bound "
                  f"{bounds[name]:g}")
    return int(flagged)


if __name__ == "__main__":
    raise SystemExit(main())
