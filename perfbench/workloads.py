"""Benchmark workloads and their deterministic input generators.

Each workload is an SBM surrogate network written to disk in the format the
workload exercises, plus the experiment config that `netgate run` would be
given for it. Inputs depend only on the workload seed: the same seed writes
byte-identical files. Generation is never timed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from netgate import sbm
from netgate.graph import Graph

WORK = "perfbench/_work"  # generated inputs and outputs, under the checkout root
REFERENCE_SEED = 1  # the seed at which report.csv must match its recorded digest
PROPORTIONS = [0.1, 0.3, 0.5]
ALL_ESTIMATORS = ["DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    sbm: arguments of `netgate.sbm.generate` apart from the seed.
    fmt: "mtx" (MatrixMarket), "plain" (edge list with sparse shuffled
    labels and reversed duplicate lines) or "mtx+partition" (MatrixMarket
    plus the planted blocks as a partition file).
    gamma: Louvain resolution, or None when the partition file is read.
    reps: repetitions of the untraced table; trace_reps: of the traced one.
    require_interior: refuse a partition without interior nodes, which would
    leave MII and AMII timing only their degenerate paths.
    """

    name: str
    sbm: dict
    fmt: str
    gamma: float | None
    model: dict
    predictor: dict
    estimators: list
    threads: int
    reps: int
    trace_reps: int
    require_interior: bool = False


SOCFB_SIZED = {"communities": 50, "size": 232, "p_in": 0.40, "p_out": 0.0002}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_table",
            sbm=SOCFB_SIZED,
            fmt="mtx",
            gamma=5.0,
            # configs/paper_default.yaml
            model={
                "kind": "linear_two_hop",
                "beta": 1.0,
                "r1": 1.0,
                "r2": 0.0,
                "sigma": 2.0,
                "interaction": ["degree", "clusters"],
            },
            predictor={"max_hop": 2, "ridge_lambda": None, "training_mask": "full",
                       "covariates": ["degree"]},
            estimators=ALL_ESTIMATORS,
            threads=1,
            reps=90,
            trace_reps=67,
            require_interior=True,
        ),
        Workload(
            name="small_many",
            # configs/sbm_demo.yaml, generated at the workload seed
            sbm={"communities": 20, "size": 100, "p_in": 0.15, "p_out": 0.0009},
            fmt="mtx+partition",
            gamma=None,
            model={
                "kind": "linear_two_hop",
                "beta": 1.0,
                "r1": 1.0,
                "r2": 0.0,
                "sigma": 2.0,
                "interaction": ["degree", "clusters"],
            },
            predictor={"max_hop": 2, "training_mask": "full",
                       "covariates": ["degree", "clusters"]},
            estimators=ALL_ESTIMATORS,
            threads=2,
            reps=200,
            trace_reps=200,
        ),
        Workload(
            name="fine_ingest",
            sbm=SOCFB_SIZED,
            fmt="plain",
            gamma=60.0,
            # configs/two_hop_stress.yaml, without MII/AMII (empty interior)
            model={
                "kind": "linear_two_hop",
                "beta": 1.0,
                "r1": 1.0,
                "r2": 1.0,
                "sigma": 2.0,
                "interaction": ["degree", "clusters"],
            },
            predictor={"max_hop": 2, "training_mask": "full", "covariates": ["degree"]},
            estimators=["DIM", "HT", "HAJEK", "CAE", "GNN"],
            threads=2,
            reps=200,
            trace_reps=67,
        ),
    )
}


def params(w: Workload) -> dict:
    """The workload's parameters as they read back from JSON."""
    return json.loads(json.dumps(asdict(w)))


@dataclass(frozen=True)
class Inputs:
    """Generated files, as paths relative to the checkout root. The marker
    file is written last, so its presence means the inputs are complete."""

    graph: str
    partition: str | None
    marker: str


def input_paths(w: Workload, seed: int, work: str) -> Inputs:
    stem = f"{work}/{w.name}-s{seed}"
    return Inputs(
        graph=f"{stem}.mtx" if w.fmt.startswith("mtx") else f"{stem}.edges",
        partition=f"{stem}.part" if w.fmt == "mtx+partition" else None,
        marker=f"{stem}.done",
    )


def _mtx_text(g: Graph) -> str:
    edges = g.edge_array() + 1
    lower = edges[:, ::-1]  # row > col: the symmetric lower triangle
    header = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        f"{g.node_count} {g.node_count} {len(edges)}\n"
    )
    return header + ("%d %d\n" * len(lower)) % tuple(lower.ravel().tolist())


def _plain_text(g: Graph, seed: int) -> str:
    """Edge list over sparse random labels, lines shuffled, with about 1% of
    the edges repeated in reversed orientation."""
    rng = np.random.default_rng([seed, 1])
    labels = rng.choice(10**9, size=g.node_count, replace=False)
    edges = labels[g.edge_array()]
    dups = edges[rng.random(len(edges)) < 0.01][:, ::-1]
    lines = np.concatenate([edges, dups])
    lines = lines[rng.permutation(len(lines))]
    return "# fine_ingest surrogate\n" + ("%d %d\n" * len(lines)) % tuple(lines.ravel().tolist())


def generate(w: Workload, seed: int, root: Path, work: str) -> Inputs:
    """Write the workload's input files for `seed` under root/work."""
    inputs = input_paths(w, seed, work)
    (root / work).mkdir(parents=True, exist_ok=True)
    g, blocks = sbm.generate(seed=seed, **w.sbm)
    if w.fmt == "plain":
        text = _plain_text(g, seed)
    else:
        text = _mtx_text(g)
    (root / inputs.graph).write_text(text, encoding="utf-8")
    if inputs.partition is not None:
        part_text = "".join(f"{i} {c}\n" for i, c in enumerate(blocks.tolist()))
        (root / inputs.partition).write_text(part_text, encoding="utf-8")
    (root / inputs.marker).write_text("complete\n", encoding="utf-8")
    return inputs


def experiment_dict(w: Workload, seed: int, inputs: Inputs, threads: int) -> dict:
    """The ExperimentConfig fields `netgate run` would read for this workload."""
    if w.gamma is not None:
        clustering = {"gamma": w.gamma, "seed": seed}
    else:
        clustering = {"partition": inputs.partition}
    return {
        "graph": {"path": inputs.graph},
        "clustering": clustering,
        "proportions": list(PROPORTIONS),
        "model": dict(w.model),
        "predictor": dict(w.predictor),
        "estimators": list(w.estimators),
        "repetitions": w.reps,
        "master_seed": seed,
        "truth": "global_treatment_mean",
        "threads": threads,
        "verbose": False,
    }
