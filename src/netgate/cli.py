"""Command-line entry point.

Subcommands: run (simulation tables), verify (exact-oracle and bias-law
suites), stats (clustering statistics), enumerate (exact expectations on
small instances).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from . import __version__, community, oracles, outcomes
from .graph import Graph, load_edge_list, read_partition, write_partition
from .harness import ExperimentConfig, emit_report, run, verify_theorem2


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.graph is not None:
        config.graph = {"path": args.graph}
    if args.gamma is not None:
        # without an explicit clustering seed, Louvain takes the master seed (after --seed)
        kept = {"seed": config.clustering["seed"]} if "seed" in config.clustering else {}
        config.clustering = {"gamma": args.gamma, **kept}
    if args.p is not None:
        config.proportions = [float(tok) for tok in args.p.replace(",", " ").split()]
    if args.reps is not None:
        config.repetitions = args.reps
    if args.seed is not None:
        config.master_seed = args.seed
    if args.estimators is not None:
        config.estimators = [tok.strip() for tok in args.estimators.split(",") if tok.strip()]
    if args.threads is not None:
        config.threads = args.threads
    return config  # run validates it before anything loads


def _note_dropped(g: Graph) -> None:
    """One stderr line naming the self-loops and duplicate edges the network load dropped, if any."""
    loops, duplicates = g.dropped_self_loops, g.dropped_duplicates
    if loops or duplicates:
        print(f"note: the network load dropped {loops} self-loop{'s' * (loops != 1)} and "
              f"{duplicates} duplicate edge{'s' * (duplicates != 1)}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    report = run(_apply_overrides(config, args))
    _note_dropped(report.partition.graph)
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
    g = load_edge_list(args.graph)
    _note_dropped(g)
    part = community.louvain(g, args.gamma, args.seed)
    print(f"nodes {g.node_count}")
    print(f"edges {g.edge_count}")
    print(community.stats(part, args.gamma).text(), end="")
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
    g = load_edge_list(args.graph)
    _note_dropped(g)
    if args.partition:
        part = read_partition(g, args.partition)
    else:
        part = community.louvain(g, args.gamma, args.seed)
    model = outcomes.linear_two_hop(g, beta=args.beta, r1=args.r1, r2=0.0, sigma=0.0)
    result = oracles.check_case(oracles.OracleCase(args.graph, part, model, args.p))
    print(f"clusters {part.cluster_count}")
    print(f"true_gate {outcomes.true_gate(model):.12g}")
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

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment and emit reports")
    p_run.add_argument("--config", help="YAML experiment config")
    p_run.add_argument("--graph", help="override: network file (edge list or MatrixMarket)")
    p_run.add_argument("--gamma", type=float, help="override: Louvain resolution")
    p_run.add_argument("--p", help="override: treatment proportions, e.g. '0.1,0.3,0.5'")
    p_run.add_argument("--reps", type=int, help="override: Monte Carlo repetitions")
    p_run.add_argument("--seed", type=int, help="override: master seed")
    p_run.add_argument("--estimators", help="override: comma-separated estimator names")
    p_run.add_argument("--threads", type=int, help="override: worker processes (fork), capped at the usable CPUs")
    p_run.add_argument("--out", help="output directory (default netgate-out)")
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser("stats", help="clustering statistics for a network")
    p_stats.add_argument("--graph", required=True)
    p_stats.add_argument("--gamma", type=float, default=5.0)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--out", help="also write the partition file here")
    p_stats.set_defaults(func=_cmd_stats)

    p_verify = sub.add_parser("verify", help="run exact-oracle and bias-law suites")
    p_verify.add_argument("--quick", action="store_true", help="fewer repetitions")
    p_verify.add_argument("--seed", type=int, default=20240501)
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="exact design expectations on a small instance")
    p_enum.add_argument("--graph", required=True)
    p_enum.add_argument("--partition", help="partition file (otherwise Louvain)")
    p_enum.add_argument("--gamma", type=float, default=1.0)
    p_enum.add_argument("--seed", type=int, default=0)
    p_enum.add_argument("--p", type=float, default=0.5)
    p_enum.add_argument("--beta", type=float, default=1.0)
    p_enum.add_argument("--r1", type=float, default=1.0)
    p_enum.set_defaults(func=_cmd_enumerate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
