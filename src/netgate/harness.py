"""Seeded Monte Carlo experiments over (clustering, treatment proportion,
outcome model, estimator set), with bias/std/MSE aggregation and reporting.

A table's cells c = r * n_p + pi (repetition r at the pi-th proportion) run
in blocks of CELLS_PER_BLOCK consecutive ones, inline or on forked workers.
Each cell's generator is seeded with no state, by cell_seed(master_seed, r,
pi), so the reports do not depend on the order, the workers or the blocks.
A block draws each cell's cluster bits on its generator, makes one product
of each sparse matrix for all its draws (design.DrawBlock), and then each
cell realizes, fits and estimates, its generator carrying on from its draw.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import io
import json
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Literal, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__, community, design, estimators, outcomes, predictor, sbm
from .graph import EdgeFormat, Graph, Partition, decompose, load_edge_list, read_partition
from .outcomes import OutcomeModel, PartialLinearModel

# a table runs its cells in blocks of this many consecutive ones, which share one
# product of each sparse matrix (design.DrawBlock)
CELLS_PER_BLOCK = 24
TRUTHS = {"gate": outcomes.true_gate, "global_treatment_mean": outcomes.global_treatment_mean}
# what each key of the sections naming one of several methods may be (see _fits)
SECTION_KINDS = {
    "graph": {"path": str, "format": EdgeFormat, "sbm": dict},
    "clustering": {"gamma": float, "seed": int, "partition": str, "blocks": bool},
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key repeated in one mapping, where safe_load keeps the last value."""

    def construct_mapping(self, node, deep=False):
        keys = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]  # before merges flatten
        mapping = super().construct_mapping(node, deep)
        for i, key in enumerate(keys):  # a config's mapping holds a few keys
            if (value := self.construct_object(key)) in map(self.construct_object, keys[:i]):
                raise ValueError(f"config file {self.name} repeats key {value!r} on line {key.start_mark.line + 1}")
        return mapping


@dataclass
class ExperimentConfig:
    """Declarative description of one simulation experiment.

    graph: {"path": ..., "format": "auto"} or {"sbm": {communities, size,
    p_in, p_out, seed}}. clustering: {"gamma": g, "seed": s}, {"partition":
    path}, or {"blocks": true} (SBM block labels as clusters).
    """

    graph: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)
    proportions: list[float] = field(default_factory=lambda: [0.1, 0.3, 0.5])
    model: dict = field(default_factory=dict)
    predictor: dict = field(default_factory=dict)
    estimators: list[str] = field(default_factory=lambda: list(estimators.ESTIMATOR_NAMES))
    repetitions: int = 1000
    master_seed: int = 0
    truth: Literal[tuple(TRUTHS)] = "global_treatment_mean"
    threads: int = 1
    verbose: bool = False

    def validate(self) -> None:
        _check_spec("", _FIELD_KINDS, vars(self))
        for name, kinds in SECTION_KINDS.items():
            _check_spec(name, kinds, getattr(self, name))
        # an absent graph or clustering section may still come from a command-line override
        if self.clustering:
            _clustering_info(self)
        sources = [key for key in ("path", "sbm") if key in self.graph]
        if len(sources) > 1 or ("format" in self.graph and sources != ["path"]):
            raise ValueError(f"graph takes 'path' (and optionally 'format') or 'sbm', got {sorted(self.graph)}")
        # checked against the builders' signatures here, before anything loads
        if "sbm" in self.graph:
            _arguments("graph.sbm", sbm.generate, self.graph["sbm"])
        model_arguments = _model_arguments(self)[1]
        predictor_arguments = _arguments("predictor", predictor.Counterfactuals, self.predictor, None, p_part=None)
        sigma = model_arguments["sigma"]
        if sigma < 0:
            raise ValueError(f"model.sigma must be a finite number >= 0, got {sigma!r}")
        gamma = self.clustering.get("gamma", 1.0)
        if gamma <= 0:
            raise ValueError(f"clustering.gamma must be a finite number > 0, got {gamma!r}")
        if self.truth == "global_treatment_mean" and model_arguments.get("v") == "normal":
            raise ValueError("truth global_treatment_mean is the mean of Y(1), the GATE only where Y(0) is 0, "
                             "but model.v 'normal' adds v to Y(0): set truth: gate")
        lam = predictor_arguments["ridge_lambda"]
        if lam is not None and lam < 0:
            raise ValueError(f"predictor.ridge_lambda must be null or a finite number >= 0, got {lam!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.proportions:
            raise ValueError("at least one treatment proportion required")
        if not self.estimators:
            raise ValueError("at least one estimator required")
        # a proportion is keyed by its .12g form in report.json
        p_keys = [f"{p:.12g}" for p in self.proportions]
        for i, p in enumerate(self.proportions):
            if not 0.0 < p < 1.0:
                raise ValueError(f"treatment proportion {p} outside (0,1)")
            if p_keys[i] in p_keys[:i]:
                raise ValueError(f"duplicate treatment proportion {p} (equal to 12 significant digits)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        keys = [name.upper() for name in self.estimators]
        for i, name in enumerate(self.estimators):
            if keys[i] not in estimators.ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator {name!r}")
            if keys[i] in keys[:i]:
                raise ValueError(f"duplicate estimator {name!r}")
        name_lists = {"predictor.covariates": predictor_arguments["covariates"],
                      "model.interaction": model_arguments.get("interaction", ())}
        for key, names in name_lists.items():
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"duplicate {key} name {name!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=str)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, _UniqueKeyLoader)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} did not parse to a mapping")
        return cls.from_dict(data)

    def digest(self) -> str:
        """Hash of the experiment-defining fields; execution details
        (threads, verbosity) do not change what is being run."""
        data = self.to_dict()
        data.pop("threads", None)
        data.pop("verbose", None)
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_FIELD_KINDS = get_type_hints(ExperimentConfig)
# the plain checked forms: the types each admits and its name in a message
_PLAIN_KINDS = {float: (numbers.Real, "a finite number"), int: (numbers.Integral, "a non-negative integer"),
                bool: (bool, "a boolean"), str: (str, "a string"), dict: (dict, "a mapping")}
_signature = functools.cache(functools.partial(inspect.signature, eval_str=True))  # annotations resolved once


def _fits(value, kind) -> bool:
    """Whether value has the checked form kind: a key of _PLAIN_KINDS, list[X],
    Literal[...] or X | None. A bool is neither a number nor an integer; a number is finite, an integer >= 0."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return any(_fits(value, type(a)) and value == a for a in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(x, args[0]) for x in value)
    if args:  # X | None
        return value is None or _fits(value, args[0])
    fits = isinstance(value, _PLAIN_KINDS[kind][0]) and (kind is bool or not isinstance(value, bool))
    if kind is float:  # one comparison refuses NaN, +-inf and an integer beyond the float range
        return fits and abs(value) <= sys.float_info.max
    return fits and (kind is not int or value >= 0)


def _describe(kind) -> str:
    origin, args = get_origin(kind), get_args(kind)
    if origin is Literal:
        return f"one of {args}"
    if origin is list:
        names = get_args(args[0])  # a Literal's values
        return "a list of finite numbers" if args[0] is float else "a list of names" + (f" in {names}" if names else "")
    return f"null or {_describe(args[0])}" if args else _PLAIN_KINDS[kind][1]


def _check_spec(section: str, kinds: dict, spec: dict) -> None:
    """A ValueError naming section.key unless every key of spec is in kinds and
    every value has its key's checked form there: the one type check of a config."""
    unknown = set(spec) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown, key=str)}")
    for key, value in spec.items():
        if not _fits(value, kinds[key]):
            raise ValueError(f"{section}.{key}".lstrip(".") + f" must be {_describe(kinds[key])}, got {value!r}")


def _arguments(section: str, build, spec: dict, *args, **kwargs) -> dict:
    """build(*args, **kwargs, **spec)'s arguments with its defaults applied, or a
    ValueError: a misspelt or missing key fails, as does one that kwargs gives,
    and each value is checked against its annotation in build's signature."""
    signature = _signature(build)
    try:
        signature.bind_partial(*args, **spec)  # names an unknown key before a missing one
        bound = signature.bind(*args, **{**spec, **kwargs})
    except TypeError as exc:
        raise ValueError(f"{section}: {build.__name__}() {exc}") from exc
    _check_spec(section, {k: p.annotation for k, p in signature.parameters.items() if k not in kwargs}, spec)
    bound.apply_defaults()
    return bound.arguments


def build_graph(config: ExperimentConfig) -> Graph:
    spec = config.graph
    if "path" in spec:
        return load_edge_list(spec["path"], spec.get("format", "auto"))
    if "sbm" in spec:
        g = sbm.generate(**spec["sbm"])[0]
        if g.edge_count == 0:  # refused as an edge file without edges is
            raise ValueError("graph.sbm drew no edges")
        return g
    raise ValueError("graph config needs 'path' or 'sbm'")


def _clustering_info(config: ExperimentConfig) -> dict:
    """Provenance of the clustering the config describes (its seed included).
    The section names exactly one method, and a seed only beside gamma."""
    spec = config.clustering
    methods = [key for key in ("gamma", "partition", "blocks") if key in spec]
    if len(methods) != 1 or ("seed" in spec and methods != ["gamma"]):
        raise ValueError(
            f"clustering takes 'gamma' (and optionally 'seed'), 'partition' or 'blocks', got {sorted(spec)}"
        )
    if "gamma" in spec:
        seed = int(spec.get("seed", config.master_seed))
        return {"method": "louvain", "gamma": float(spec["gamma"]), "seed": seed}
    if "partition" in spec:
        return {"method": "file", "path": str(spec["partition"])}
    if not spec["blocks"]:
        raise ValueError("clustering.blocks must be true to use the SBM blocks")
    if "sbm" not in config.graph:
        raise ValueError("clustering 'blocks' requires an sbm graph")
    return {"method": "sbm-blocks"}


def build_partition(config: ExperimentConfig, g: Graph) -> tuple[Partition, dict]:
    """Partition per config plus its provenance (clustering is computed
    once per experiment)."""
    info = _clustering_info(config)
    if info["method"] == "louvain":
        return community.louvain(g, info["gamma"], info["seed"]), info
    if info["method"] == "file":
        return read_partition(g, config.clustering["partition"]), info
    spec = config.graph["sbm"]
    return decompose(g, sbm.block_labels(spec["communities"], spec["size"]), info), info


def _model_arguments(config: ExperimentConfig, g: Graph | None = None, p_part: Partition | None = None):
    """The model section's builder and its arguments, defaults applied (the
    graph and partition are None when only the section is checked)."""
    spec = dict(config.model)
    kind = spec.pop("kind", "linear_two_hop")
    builders = {"linear_two_hop": outcomes.linear_two_hop, "partial_linear": outcomes.partial_linear}
    if not isinstance(kind, str) or kind not in builders:
        raise ValueError(f"unknown model kind {kind!r}")
    return builders[kind], _arguments("model", builders[kind], spec, g, p_part=p_part)


def build_model(config: ExperimentConfig, g: Graph, p_part: Partition) -> OutcomeModel:
    build, arguments = _model_arguments(config, g, p_part)
    return build(**arguments)


@dataclass(frozen=True)
class CellStats:
    estimator: str
    p: float
    bias: float | None
    std: float | None
    mse: float | None
    reps_used: int
    degenerate: int
    absent_reason: str | None = None


@dataclass
class SimulationReport:
    cells: list[CellStats]
    truth_kind: str
    truth_value: float
    clustering: community.ClusteringStats
    clustering_info: dict
    config_digest: str
    master_seed: int
    version: str
    partition: Partition  # the partition the table ran on, in neither report.csv nor report.json
    raw_estimates: dict | None = None
    raw_diagnostics: dict | None = None
    alpha_hat_mean: dict | None = None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("# netgate simulation report\n")
        out.write(f"# version: {self.version}\n")
        out.write(f"# config_sha256: {self.config_digest}\n")
        out.write(f"# master_seed: {self.master_seed}\n")
        out.write(f"# truth: {self.truth_kind} = {self.truth_value:.12g}\n")
        out.write("# clustering: " + " ".join(f"{k}={v}" for k, v in self.clustering.fields()) + "\n")
        out.write("estimator,p,bias,std,mse,reps_used,degenerate\n")
        for cell in self.cells:
            stats = ("" if v is None else f"{v:.12g}" for v in (cell.bias, cell.std, cell.mse))  # blank when absent
            out.write(f"{cell.estimator},{cell.p:.12g},{','.join(stats)},{cell.reps_used},{cell.degenerate}\n")
        return out.getvalue()

    def to_json(self) -> str:
        payload: dict[str, Any] = {
            "version": self.version,
            "config_sha256": self.config_digest,
            "master_seed": self.master_seed,
            "truth_kind": self.truth_kind,
            "truth_value": self.truth_value,
            "clustering_info": self.clustering_info,
            "clustering_stats": asdict(self.clustering),
            "cells": [asdict(c) for c in self.cells],
        }
        if self.alpha_hat_mean is not None:
            payload["alpha_hat_mean"] = self.alpha_hat_mean
        if self.raw_estimates is not None:  # a degenerate draw's NaN is written as null
            payload["raw_estimates"] = {
                name: {key: [v if np.isfinite(v) else None for v in values] for key, values in by_p.items()}
                for name, by_p in self.raw_estimates.items()
            }
        if self.raw_diagnostics is not None:
            payload["raw_diagnostics"] = self.raw_diagnostics
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)

    def all_absent(self) -> bool:
        return bool(self.cells) and all(c.absent_reason is not None for c in self.cells)


def emit_report(report: SimulationReport, path: str | Path) -> None:
    """Write the CSV table (provenance header + one row per estimator/p)."""
    Path(path).write_text(report.to_csv(), encoding="utf-8")


class _SimulationState:
    """Shared inputs for the repetition loop, read-only but the predictor's one feature buffer."""

    def __init__(self, config: ExperimentConfig, p_part: Partition, model: OutcomeModel):
        self.proportions = list(config.proportions)
        self.master_seed = config.master_seed
        self.partition = p_part
        self.model = model
        self.names = tuple(n.upper() for n in config.estimators)
        # the predictor, and the fitted interaction coefficient tracked for the
        # bias-law checks, only for a table that fits the predictor
        self.predictor = self.tracked_column = None
        if {"GNN", "AMII"} & set(self.names):
            self.predictor = predictor.Counterfactuals(p_part.graph, p_part=p_part, **config.predictor)
            column = f"{_model_arguments(config)[1]['u']}*z" if isinstance(model, PartialLinearModel) else None
            if column in self.predictor.basis.names:
                self.tracked_column = column

    def run_cell(self, a: design.Assignment, rng: np.random.Generator, p: float) -> list:
        """The table row of the cell whose draw is `a`, its noise taken from `rng`, the
        generator that drew it: each estimate in `names` order (None on a degenerate
        draw), then estimate_all's codes (exact in float64), then the fitted alpha_hat."""
        y = self.model.realize(a, rng)
        pred1 = pred0 = None
        alpha_hat = np.nan
        if self.predictor is not None:
            fitted, pred1, pred0 = self.predictor(a, y)  # fitted on this worker's one feature buffer
            if self.tracked_column is not None:
                alpha_hat = fitted.coefficient(self.tracked_column)
        est = estimators.estimate_all(self.partition.graph, self.partition, a, y, p, pred1, pred0, self.names)
        return [est.estimates[name] for name in self.names] + est.codes + [alpha_hat]


def cell_seed(master_seed: int, r: int, pi: int) -> np.random.SeedSequence:
    """The seed of repetition r's cell at the pi-th proportion, made with no state:
    SeedSequence(master_seed).spawn(R)[r].spawn(n_p)[pi] for any R > r, n_p > pi."""
    return np.random.SeedSequence(master_seed, spawn_key=(r, pi))


# the table whose blocks a forked worker runs: set by _start_worker, never in the parent
_worker_state: _SimulationState | None = None


def _start_worker(state: _SimulationState) -> None:
    global _worker_state
    _worker_state = state


def _worker_block(cells: range):
    return _run_block(_worker_state, cells)


def _run_block(state: _SimulationState, cells: range) -> np.ndarray:
    """The cells c = r * n_p + pi in `cells`, each on its generator seeded by
    cell_seed, as one float64 array of their run_cell rows (None cast to NaN).

    The draws share one DrawBlock, and each cell runs on from its draw on the
    same generator. A state and cells give the same bits on every call."""
    n_p = len(state.proportions)
    rngs = [np.random.default_rng(cell_seed(state.master_seed, *divmod(c, n_p))) for c in cells]
    ps = [state.proportions[c % n_p] for c in cells]
    bits = [design.draw(state.partition, p, rng).t for p, rng in zip(ps, rngs)]
    block = design.DrawBlock(state.partition, bits)
    return np.array([state.run_cell(block.record(b), rng, p) for b, (p, rng) in enumerate(zip(ps, rngs))], np.float64)


def _simulate(config: ExperimentConfig, p_part: Partition, model: OutcomeModel) -> np.ndarray:
    """`_run_block`'s rows for all R * n_p cells as one (R, n_p, row width)
    array. The blocks run on min(threads, blocks, usable CPUs) forked worker
    processes, which inherit the state instead of unpickling it; one worker
    runs them inline."""
    state = _SimulationState(config, p_part, model)
    cells = range(config.repetitions * len(config.proportions))
    blocks = [cells[c : c + CELLS_PER_BLOCK] for c in cells[::CELLS_PER_BLOCK]]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.threads, len(blocks), cpus)
    if workers == 1:
        parts = [_run_block(state, block) for block in blocks]
    else:
        # imported here, so a one-worker run never loads them and they do not
        # raise the peak RSS of the network load and Louvain before the table
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(state,)
        )
        try:
            parts = list(pool.map(_worker_block, blocks))
        finally:
            pool.shutdown(cancel_futures=True)
    return np.concatenate(parts).reshape(config.repetitions, len(config.proportions), -1)


def _cell_stats(name: str, p: float, values: np.ndarray, truth: float) -> CellStats:
    """One report row from an estimator's values at p over all repetitions;
    the non-finite (degenerate) ones are counted and left out."""
    kept = values[np.isfinite(values)]
    used, degenerate = len(kept), len(values) - len(kept)
    if used == 0:
        return CellStats(name, p, None, None, None, 0, degenerate, "all repetitions degenerate")
    std = float(kept.std(ddof=1)) if used >= 2 else 0.0
    mse = float(np.mean((kept - truth) ** 2))
    return CellStats(name, p, float(kept.mean() - truth), std, mse, used, degenerate)


def run(
    config: ExperimentConfig,
    g: Graph | None = None,
    p_part: Partition | None = None,
) -> SimulationReport:
    """Execute the full experiment described by config; the report carries the partition.

    A preloaded graph, or a partition with its graph as g or alone, skips reloading; it must
    match the config, whose clustering the report names and a partition's record, unless None, equals.
    """
    config.validate()
    if p_part is None:
        p_part, _ = build_partition(config, build_graph(config) if g is None else g)
    given, g = g, p_part.graph
    if given is not None and given is not g:
        raise ValueError(f"the partition belongs to another graph ({g.node_count} nodes, g has {given.node_count})")
    info = _clustering_info(config)
    if p_part.clustering not in (None, info):
        raise ValueError(f"the partition was made by {p_part.clustering}, not by the config's clustering {info}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the truth non-finite: refused below
        model = build_model(config, g, p_part)
        truth = TRUTHS[config.truth](model)
    if not np.isfinite(truth):
        raise ValueError(f"truth {config.truth} is {truth}, not a finite number: the model's coefficients overflow")

    table = _simulate(config, p_part, model)
    ps = config.proportions
    names = [n.upper() for n in config.estimators]
    keys = [f"{p:.12g}" for p in ps]
    cells = [_cell_stats(name, p, table[:, pi, k], truth) for k, name in enumerate(names) for pi, p in enumerate(ps)]
    raw = raw_diag = alpha_mean = None
    if config.verbose:
        raw = {name: {key: table[:, pi, k].tolist() for pi, key in enumerate(keys)} for k, name in enumerate(names)}
        raw_diag = {key: [estimators.diagnostics(names, row[len(names):-1]) for row in table[:, pi]]
                    for pi, key in enumerate(keys)}
    if np.isfinite(table[:, :, -1]).any():
        alpha_mean = {key: float(np.nanmean(table[:, pi, -1])) for pi, key in enumerate(keys)}

    return SimulationReport(
        cells=cells,
        truth_kind=config.truth,
        truth_value=truth,
        clustering=community.stats(p_part, info.get("gamma", 1.0)),
        clustering_info=info,
        config_digest=config.digest(),
        master_seed=config.master_seed,
        version=__version__,
        partition=p_part,
        raw_estimates=raw,
        raw_diagnostics=raw_diag,
        alpha_hat_mean=alpha_mean,
    )


@dataclass(frozen=True)
class Theorem2Cell:
    """One estimator's bias at one p against the bias law's prediction."""

    estimator: str
    p: float
    empirical_bias: float
    predicted_bias: float
    se: float  # the Monte Carlo standard error of empirical_bias

    @property
    def ok(self) -> bool:
        return abs(self.empirical_bias - self.predicted_bias) <= 3 * self.se


@dataclass
class Theorem2Report:
    cells: list[Theorem2Cell]
    interior_mean_gap: float
    alpha: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    def lines(self) -> list[str]:
        """One line per p, its estimators' cells joined by "; "."""
        by_p: dict[float, list[str]] = {}
        for c in self.cells:
            by_p.setdefault(c.p, []).append(
                f"{c.estimator} bias {c.empirical_bias:+.4f} vs predicted {c.predicted_bias:+.4f} "
                f"(3se={3 * c.se:.4f}) [{'PASS' if c.ok else 'FAIL'}]")
        return [f"p={p:g}: " + "; ".join(parts) for p, parts in by_p.items()]


def verify_theorem2(config: ExperimentConfig) -> Theorem2Report:
    """Numerically check the interior-selection bias law: the interior
    estimator's bias should match alpha * (mu_Int - mu), and the augmented
    estimator's bias should match (mean alpha_hat - alpha) * (mu - mu_Int),
    each within 3 Monte Carlo standard errors.

    The estimand here is the full treatment-effect contrast, and the
    predictor must include the u*z interaction column.
    """
    config.validate()
    if config.model.get("kind") != "partial_linear":
        raise ValueError("theorem verification needs a partial_linear model")
    if config.truth != "gate":
        raise ValueError("theorem verification targets the gate estimand")
    if not {"MII", "AMII"} <= {n.upper() for n in config.estimators}:
        raise ValueError("theorem verification needs MII and AMII estimators")
    _, arguments = _model_arguments(config)
    u_name = arguments["u"]
    if u_name not in _arguments("predictor", predictor.Counterfactuals, config.predictor, None)["covariates"]:
        raise ValueError(f"predictor covariates must include {u_name!r} for the u*z column")

    report = run(config)
    part = report.partition
    gap = outcomes.interior_mean_gap(outcomes.covariate_vector(u_name, part.graph, part), part)
    alpha = float(arguments["alpha"])

    agg = {(c.estimator, c.p): c for c in report.cells}
    cells = []
    for p in config.proportions:
        if agg["MII", p].reps_used < 2 or agg["AMII", p].reps_used < 2:
            raise ValueError(f"too many degenerate repetitions at p={p}")
        alpha_hat_mean = report.alpha_hat_mean[f"{p:.12g}"]
        predicted = {"MII": alpha * gap, "AMII": (alpha_hat_mean - alpha) * (-gap)}
        for name, bias in predicted.items():
            cell = agg[name, p]
            cells.append(Theorem2Cell(name, p, cell.bias, bias, float(cell.std / np.sqrt(cell.reps_used))))
    return Theorem2Report(cells=cells, interior_mean_gap=gap, alpha=alpha)
