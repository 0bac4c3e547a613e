"""Command-line entry point.

Subcommands: run (simulation tables), verify (exact-oracle and bias-law
suites), stats (clustering statistics), enumerate (exact expectations on
small instances).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, community, oracles, outcomes
from .graph import Graph, Partition, write_partition
from .harness import ExperimentConfig, build_graph, build_model, build_partition, emit_report, run, verify_theorem2


def _note_dropped(g: Graph) -> None:
    """One stderr line naming the self-loops and duplicate edges the network load dropped, if any."""
    loops, duplicates = g.dropped_self_loops, g.dropped_duplicates
    if loops or duplicates:
        print(f"note: the network load dropped {loops} self-loop{'s' * (loops != 1)} and "
              f"{duplicates} duplicate edge{'s' * (duplicates != 1)}", file=sys.stderr)


def _inputs(args: argparse.Namespace) -> tuple[ExperimentConfig, Partition, dict]:
    """The config (--config or the defaults) with the command's overrides, validated,
    and the partition it describes with its provenance: every command's one input path."""
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.graph is not None:
        config.graph = {"path": args.graph}
    if args.gamma is not None:
        # without an explicit clustering seed, Louvain takes the master seed (after --seed)
        kept = {"seed": config.clustering["seed"]} if "seed" in config.clustering else {}
        config.clustering = {"gamma": args.gamma, **kept}
    if getattr(args, "p", None) is not None:
        config.proportions = [float(tok) for tok in args.p.replace(",", " ").split()]
    if getattr(args, "reps", None) is not None:
        config.repetitions = args.reps
    if args.seed is not None:
        config.master_seed = args.seed
    if getattr(args, "estimators", None) is not None:
        config.estimators = [tok.strip() for tok in args.estimators.split(",") if tok.strip()]
    if getattr(args, "threads", None) is not None:
        config.threads = args.threads
    config.validate()
    g = build_graph(config)
    _note_dropped(g)
    return config, *build_partition(config, g)


def _cmd_run(args: argparse.Namespace) -> int:
    config, part, _ = _inputs(args)
    report = run(config, p_part=part)
    if report.all_absent():
        print("error: every (estimator, p) cell degenerate", file=sys.stderr)
        return 3

    out_dir = Path(args.out or "netgate-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_report(report, out_dir / "report.csv")
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        write_partition(report.partition, out_dir / "partition.txt")
        (out_dir / "clustering_stats.txt").write_text(report.clustering.text(), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(report.to_csv(), end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _, part, info = _inputs(args)
    print(f"nodes {part.graph.node_count}")
    print(f"edges {part.graph.edge_count}")
    print(community.stats(part, info.get("gamma", 1.0)).text(), end="")
    if args.out:
        write_partition(part, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    print("exact enumeration oracle suite:")
    for result in oracles.run_oracle_suite():
        ok = result.ok()
        failed |= not ok
        print(
            f"  [{'PASS' if ok else 'FAIL'}] {result.name}: "
            f"|E[ht]-gate|={result.ht_expectation_error:.2e} "
            f"max|freq-p^c|={result.exposure_probability_error:.2e} "
            f"|mass-1|={result.probability_mass_error:.2e}"
        )

    print("interior-selection bias law suite:")
    reps = 400 if args.quick else 2000
    for alpha in (0.0, 1.0):
        config = ExperimentConfig(
            graph={"sbm": {"communities": 20, "size": 100, "p_in": 0.15, "p_out": 0.0009, "seed": 7}},
            clustering={"blocks": True},
            proportions=[0.5],
            model={
                "kind": "partial_linear",
                "beta": 1.0,
                "alpha": alpha,
                "u": "degree",
                "h": "linear",
                "h_scale": 1.0,
                "sigma": 2.0,
                "v": "normal",
                "v_seed": 99,
            },
            predictor={"max_hop": 2, "covariates": ["degree"], "training_mask": "full"},
            estimators=["MII", "AMII"],
            repetitions=reps,
            master_seed=args.seed,
            truth="gate",
        )
        report = verify_theorem2(config)
        failed |= not report.passed
        print(f"  alpha={alpha:g} (interior mean gap {report.interior_mean_gap:+.4f}):")
        for line in report.lines():
            print(f"    {line}")
    print("verification", "FAILED" if failed else "passed")
    return 1 if failed else 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    config, part, _ = _inputs(args)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves HT non-finite: check_case refuses it
        model = build_model(config, part.graph, part)
        results = [oracles.check_case(oracles.OracleCase(f"p={p:.12g}", part, model, p)) for p in config.proportions]
        gate = outcomes.true_gate(model)
    print(f"clusters {part.cluster_count}")
    print(f"true_gate {gate:.12g}")
    for p, result in zip(config.proportions, results):
        print(f"p {p:.12g}")
        print(f"difference {result.ht_expectation_error:.3e}")
        print(f"exposure_probability_error {result.exposure_probability_error:.3e}")
        print(f"probability_mass_error {result.probability_mass_error:.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="netgate",
        description="Cluster-randomized experiment simulation on interference networks",
    )
    parser.add_argument("--version", action="version", version=f"netgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the inputs every command but verify reads: the config and the overrides they share
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", help="YAML experiment config")
    inputs.add_argument("--graph", help="override: network file (edge list or MatrixMarket)")
    inputs.add_argument("--gamma", type=float, help="override: Louvain resolution")
    inputs.add_argument("--seed", type=int, help="override: master seed")
    proportions = argparse.ArgumentParser(add_help=False)
    proportions.add_argument("--p", help="override: treatment proportions, e.g. '0.1,0.3,0.5'")

    p_run = sub.add_parser("run", parents=[inputs, proportions], help="run a Monte Carlo experiment and emit reports")
    p_run.add_argument("--reps", type=int, help="override: Monte Carlo repetitions")
    p_run.add_argument("--estimators", help="override: comma-separated estimator names")
    p_run.add_argument("--threads", type=int, help="override: worker processes (fork), capped at the usable CPUs")
    p_run.add_argument("--out", help="output directory (default netgate-out)")
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser("stats", parents=[inputs], help="clustering statistics for a network")
    p_stats.add_argument("--out", help="also write the partition file here")
    p_stats.set_defaults(func=_cmd_stats)

    p_verify = sub.add_parser("verify", help="run exact-oracle and bias-law suites")
    p_verify.add_argument("--quick", action="store_true", help="fewer repetitions")
    p_verify.add_argument("--seed", type=int, default=20240501)
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", parents=[inputs, proportions],
                            help="exact design expectations on a small instance, one block per proportion")
    p_enum.set_defaults(func=_cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
