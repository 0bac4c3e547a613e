"""Measurement loops and result output of the replication-table benchmark
(see run.py for how to run it)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from netgate import community, graph, harness
from perfbench import gate, tracing, workloads
from perfbench.workloads import WORK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 3
MIN_SETUP_SECONDS = 1.0  # cheap set-ups repeat alone until they add up to this

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
}

# (span name, per-layer metric) for every span reported as p50/p95
TIMED_SPANS = (
    ("design.draw", "design.draw_ms"),
    ("design.exposure", "design.exposure_ms"),
    ("outcomes.realize", "outcomes.realize_ms"),
    ("predictor.features", "predictor.features_ms"),
    ("predictor.fit", "predictor.fit_ms"),
    ("predictor.predict", "predictor.predict_ms"),
    ("estimators.estimate_all", "estimators.estimate_all_ms"),
    *((f"estimators.{k}", f"estimators.{k}_ms")
      for k in ("dim", "ht", "hajek", "cae", "mii", "gnn", "amii")),
    ("harness.cell", "harness.cell_ms"),
)

PER_LAYER = {
    "graph.load_s": "s",
    "community.partition_s": "s",
    "community.passes": "count",
    "community.clusters": "count",
    "community.sum_c": "count",
    **{f"{metric}.{q}": "ms" for _, metric in TIMED_SPANS for q in ("p50", "p95")},
    "harness.report_s": "s",
    "graph.nnz": "count",
    "graph.csr_bytes": "bytes",
    "predictor.feature_bytes": "bytes",
    "design.exposure_bytes": "bytes",
    "predictor.fallbacks": "count",
    "estimators.degenerate": "count",
    "trace.cells": "count",
    "trace.untraced_cell_ms": "ms",
    "trace.overhead_pct": "%",
}


def machine() -> dict:
    """The hardware and software a result was measured on."""
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}"] = size
    info.update(python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__)
    return info


def ensure_inputs(w: workloads.Workload, seed: int) -> workloads.Inputs:
    """The workload's input files for `seed`, generated by a child process
    (so generation does not count towards this process's peak RSS) unless an
    earlier run in this checkout already wrote them."""
    inputs = workloads.input_paths(w, seed, WORK)
    if not (ROOT / inputs.marker).exists():
        subprocess.run(
            [sys.executable, str(HERE / "generate.py"), w.name, str(seed)],
            cwd=ROOT, check=True, timeout=170,
        )
    return inputs


def load_and_partition(config):
    """Load the network and partition it as `netgate run` does before the
    table (config paths are relative to the checkout root, the working
    directory)."""
    g = harness.build_graph(config)
    part, _ = harness.build_partition(config, g)
    return g, part


def traced_setup(w: workloads.Workload, seed: int, inputs: workloads.Inputs, tracer):
    """The same load and partition with a span around each, calling Louvain
    through `louvain_with_history` for its pass count (0 when the partition
    is read from a file). Returns the graph, the partition and the count."""
    with tracer.span("graph.load"):
        g = graph.load_edge_list(inputs.graph)
    with tracer.span("community.partition"):
        if w.gamma is None:
            return g, graph.read_partition(g, inputs.partition), 0
        part, history = community.louvain_with_history(g, w.gamma, seed)
    return g, part, len(history)


def network_stats(g, part) -> dict:
    return {
        "n": g.node_count,
        "m": g.edge_count,
        "clusters": part.cluster_count,
        "interior_fraction": round(float(part.interior_mask.mean()), 6),
        "sum_c": int(part.touch_counts.sum()),
    }


def check_network(w: workloads.Workload, seed: int, g, part, reference: dict) -> list[str]:
    """Refuse a network without interior nodes where the workload needs them;
    at the reference seed, compare the network with the recorded one."""
    if w.require_interior and not part.interior_mask.any():
        raise SystemExit(f"error: {w.name} seed {seed}: the partition has no interior nodes")
    if seed != workloads.REFERENCE_SEED:
        return []
    got = network_stats(g, part)
    want = {k: reference[k] for k in got}
    return [] if got == want else [f"network {got} differs from the recorded {want}"]


def timed_run(w: workloads.Workload, seed: int, seconds: float, inputs, reference: dict) -> dict:
    """Untraced iterations of the whole `netgate run` sequence: at least
    MIN_ITERATIONS, and more while the next one is expected to end within
    `seconds`. Cheap set-ups then repeat alone until all set-ups add up to
    MIN_SETUP_SECONDS. Peak RSS is read once the first iteration has written
    its report, before the correctness gate allocates anything."""
    config = harness.ExperimentConfig.from_dict(
        workloads.experiment_dict(w, seed, inputs, w.threads))
    cells = config.repetitions * len(config.proportions)
    out_dir = ROOT / WORK / f"out-{w.name}-s{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setups, tables, runs, errors, digests = [], [], [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        attempted += 1
        try:
            t0 = time.perf_counter()
            g, part = load_and_partition(config)
            t1 = time.perf_counter()
            report = harness.run(config, g=g, p_part=part)
            t2 = time.perf_counter()
            harness.emit_report(report, out_dir / "report.csv")
            (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
            t3 = time.perf_counter()
        except Exception:  # a run that raises is a failed run; keep measuring
            failed += 1
            errors.append(traceback.format_exc())
        else:
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups.append(t1 - t0)
            tables.append(t2 - t1)
            runs.append(t3 - t0)
            csv_bytes = (out_dir / "report.csv").read_bytes()
            digests.append(gate.sha256(csv_bytes))
            problems = check_network(w, seed, g, part, reference)
            problems += gate.check_invariants(report, config, g, part)
            problems += gate.check_outputs(out_dir, report)
            if seed == workloads.REFERENCE_SEED:
                problems += gate.check_digest(csv_bytes, reference["report_sha256"])
            if digests[-1] != digests[0]:
                problems.append("report.csv differs between iterations of one run")
            if problems:
                failed += 1
                errors.extend(problems)
            del g, part, report
        if attempted < MIN_ITERATIONS:
            continue
        if not runs:
            sys.stderr.write("".join(errors))
            raise SystemExit(f"error: every iteration of {w.name} raised")
        if time.perf_counter() - start + statistics.median(runs) > seconds:
            break
    while sum(setups) < MIN_SETUP_SECONDS:
        t0 = time.perf_counter()
        load_and_partition(config)
        setups.append(time.perf_counter() - t0)

    metrics = {
        "setup_s": statistics.median(setups),
        "cells_per_s": statistics.median(cells / t for t in tables),
        "run_s": statistics.median(runs),
        "peak_rss_mb": peak_rss_mb,
        "correct_frac": (attempted - failed) / attempted,
    }
    samples = {"setup_s": setups, "table_s": tables, "run_s": runs, "cells_per_table": cells}
    return {"metrics": metrics, "units": END_TO_END, "attempted": attempted,
            "failed": failed, "errors": errors, "samples": samples}


def traced_run(w: workloads.Workload, seed: int, inputs, reference: dict) -> dict:
    """One traced table at threads=1, checked bit for bit against the raw
    estimates of an untraced `harness.run(verbose=True)` of the same table.
    A second untraced table, without the verbose raw estimates, runs after
    the traced one and its report is the one written. The mean time of the
    two untraced tables is the base of the tracing overhead, which compares
    it with the traced table's time less the probes'."""
    spec = workloads.experiment_dict(w, seed, inputs, threads=1)
    spec.update(repetitions=w.trace_reps, verbose=True)
    verbose_config = harness.ExperimentConfig.from_dict(spec)
    config = harness.ExperimentConfig.from_dict({**spec, "verbose": False})
    cells = config.repetitions * len(config.proportions)
    tracer = tracing.Tracer()
    g, part, passes = traced_setup(w, seed, inputs, tracer)
    errors = check_network(w, seed, g, part, reference)

    t0 = time.perf_counter()
    verbose_report = harness.run(verbose_config, g=g, p_part=part)
    untraced = [time.perf_counter() - t0]

    metrics, absent = {}, {}
    model = harness.build_model(config, g, part)
    missing = tracing.missing_entry_points()
    if not callable(getattr(model, "realize", None)):
        missing.append("model.realize")
    if missing:
        reason = "entry points gone: " + ", ".join(missing)
        for _, metric in TIMED_SPANS:
            absent[f"{metric}.p50"] = absent[f"{metric}.p95"] = reason
        for metric in ("predictor.feature_bytes", "predictor.fallbacks",
                       "estimators.degenerate", "trace.overhead_pct"):
            absent[metric] = reason
    else:
        with tracer.span("harness.replay"):
            replay = tracing.replay_table(tracer, config, g, part, model)
        traced = tracer.durations("harness.replay")[0] - tracer.durations("probe").sum()
        errors += compare_estimates(replay["values"], verbose_report, config)
        degenerate = int(sum(np.isnan(a).sum() for a in replay["values"].values()))
        if degenerate != sum(c.degenerate for c in verbose_report.cells):
            errors.append("traced degenerate count differs from the report")
        metrics.update({
            "predictor.feature_bytes": replay["feature_bytes"],
            "predictor.fallbacks": replay["fallbacks"],
            "estimators.degenerate": degenerate,
        })
        for span, metric in TIMED_SPANS:
            samples = 1000.0 * tracer.durations(span)
            reason = replay["probe_errors"].get(span)
            if reason is None and len(samples) == 0:
                reason = "no span recorded"
            if reason is not None:
                absent[f"{metric}.p50"] = absent[f"{metric}.p95"] = reason
                continue
            metrics[f"{metric}.p50"], metrics[f"{metric}.p95"] = np.percentile(samples, [50, 95])

    t0 = time.perf_counter()
    report = harness.run(config, g=g, p_part=part)
    untraced.append(time.perf_counter() - t0)
    out_dir = ROOT / WORK / f"out-{w.name}-s{seed}-trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tracer.span("harness.report"):
        harness.emit_report(report, out_dir / "report.csv")
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    errors += gate.check_invariants(report, config, g, part)
    if report.to_csv() != verbose_report.to_csv():
        errors.append("report.csv differs between the verbose and the plain table")
    tracer.write(ROOT / WORK / f"spans-{w.name}-s{seed}.json")

    base = statistics.mean(untraced)
    if not missing:
        metrics["trace.overhead_pct"] = 100.0 * (traced / base - 1.0)
    adjacency = g.adjacency()
    metrics.update({
        "graph.load_s": tracer.durations("graph.load")[0],
        "community.partition_s": tracer.durations("community.partition")[0],
        "community.passes": passes,
        "community.clusters": part.cluster_count,
        "community.sum_c": int(part.touch_counts.sum()),
        "harness.report_s": tracer.durations("harness.report")[0],
        "graph.nnz": len(g.indices),
        "graph.csr_bytes": g.indptr.nbytes + g.indices.nbytes,
        # computed: the operands of one exposure_vector call, i.e. the
        # adjacency CSR arrays and the n-vectors z, A z and degrees
        "design.exposure_bytes": adjacency.data.nbytes + adjacency.indices.nbytes
        + adjacency.indptr.nbytes + 3 * 8 * g.node_count,
        "trace.cells": cells,
        "trace.untraced_cell_ms": 1000.0 * base / cells,
    })
    return {"metrics": metrics, "units": PER_LAYER, "attempted": 1,
            "failed": int(bool(errors)), "errors": errors, "absent": absent}


def compare_estimates(values: dict, report, config) -> list[str]:
    """Traced estimates must equal the report's raw estimates bit for bit."""
    errors = []
    for name, traced in values.items():
        raw = report.raw_estimates[name]
        ref = np.array([raw[f"{p:.12g}"] for p in config.proportions], dtype=np.float64)
        if ref.shape != traced.shape or not np.array_equal(ref.view(np.uint64),
                                                           traced.view(np.uint64)):
            errors.append(f"traced {name} estimates differ from harness.run")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    reference = gate.load_reference()[w.name]
    if (reference["params"], reference["seed"]) != (workloads.params(w), workloads.REFERENCE_SEED):
        raise SystemExit(f"error: {gate.REFERENCE_FILE.name} was recorded for other "
                         f"{w.name} parameters or seed; rerun perfbench/record.py")
    inputs = ensure_inputs(w, args.seed)
    if args.trace:
        result = traced_run(w, args.seed, inputs, reference)
    else:
        result = timed_run(w, args.seed, args.seconds, inputs, reference)

    info = machine()
    units = result.pop("units")
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items() if name in result["metrics"]}
    result.update(workload=w.name, seed=args.seed, trace=args.trace, machine=info,
                  metrics=metrics)
    out = ROOT / WORK / f"result-{w.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(result, indent=2), encoding="utf-8")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for error in result["errors"]:
        print(f"FAILED {error}".rstrip())
    for name, reason in result.get("absent", {}).items():
        print(f"{name} absent: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0
