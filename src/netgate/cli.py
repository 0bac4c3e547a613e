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

from . import __version__, community, design, oracles, outcomes
from .graph import load_edge_list, read_partition, write_partition
from .harness import ExperimentConfig, build_graph, build_partition, emit_report, run, verify_theorem2


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.graph is not None:
        config.graph = {"path": args.graph}
    if args.gamma is not None:
        config.clustering = {"gamma": args.gamma, "seed": config.clustering.get("seed", config.master_seed)}
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
    config.validate()
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config:
            config = ExperimentConfig.from_file(args.config)
        else:
            config = ExperimentConfig()
        config = _apply_overrides(config, args)
        g = build_graph(config)
        p_part, _ = build_partition(config, g)
        report = run(config, g=g, p_part=p_part)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.all_absent():
        print("error: every (estimator, p) cell degenerate", file=sys.stderr)
        return 3

    out_dir = Path(args.out or "netgate-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_report(report, out_dir / "report.csv")
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        write_partition(p_part, out_dir / "partition.txt")
        c = report.clustering
        (out_dir / "clustering_stats.txt").write_text(
            f"clusters {c.cluster_count}\n"
            f"interior_fraction {c.interior_fraction:.12g}\n"
            f"within_edge_fraction {c.within_edge_fraction:.12g}\n"
            f"modularity {c.modularity:.12g}\n",
            encoding="utf-8",
        )
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    print(report.to_csv(), end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        g = load_edge_list(args.graph)
        part = community.louvain(g, args.gamma, args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    s = community.stats(g, part, args.gamma)
    print(f"nodes {g.node_count}")
    print(f"edges {g.edge_count}")
    print(f"clusters {s.cluster_count}")
    print(f"interior_fraction {s.interior_fraction:.6f}")
    print(f"within_edge_fraction {s.within_edge_fraction:.6f}")
    print(f"modularity {s.modularity:.6f}")
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
    try:
        if not 0.0 < args.p < 1.0:
            raise ValueError(f"treatment proportion must be in (0,1), got {args.p}")
        g = load_edge_list(args.graph)
        if args.partition:
            part = read_partition(g, args.partition)
        else:
            part = community.louvain(g, args.gamma, args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if part.cluster_count > design.ENUMERATION_MAX_CLUSTERS:
        print(
            f"error: {part.cluster_count} clusters exceed the enumeration guard "
            f"({design.ENUMERATION_MAX_CLUSTERS})",
            file=sys.stderr,
        )
        return 2
    model = outcomes.linear_two_hop(g, beta=args.beta, r1=args.r1, r2=0.0, sigma=0.0)
    result = oracles.check_case(oracles.OracleCase(args.graph, g, part, model, args.p))
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
    p_run.add_argument("--threads", type=int, help="override: worker threads")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
