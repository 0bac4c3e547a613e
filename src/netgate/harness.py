"""Seeded Monte Carlo experiments over (clustering, treatment proportion,
outcome model, estimator set), with bias/std/MSE aggregation and reporting.

Repetitions draw independent substreams from the master seed, so results are
identical for any execution order or thread count.
"""

from __future__ import annotations

import hashlib
import io
import json
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Any

import numpy as np
import yaml

from . import __version__, community, design, estimators, outcomes, predictor, sbm
from .graph import Graph, Partition, decompose, load_edge_list, read_partition
from .outcomes import OutcomeModel, PartialLinearModel

TRUTHS = {"gate": outcomes.true_gate, "global_treatment_mean": outcomes.global_treatment_mean}
SECTION_KEYS = {
    "graph": {"path", "format", "sbm"},
    "clustering": {"gamma", "seed", "partition", "blocks"},
    "predictor": {"max_hop", "ridge_lambda", "training_mask", "covariates"},
}


@dataclass
class ExperimentConfig:
    """Declarative description of one simulation experiment.

    graph: {"path": ..., "format": "auto"} or {"sbm": {communities, size,
    p_in, p_out, seed}}. clustering: {"gamma": g, "seed": s}, {"partition":
    path}, or {"blocks": true} (SBM block labels as clusters).
    """

    graph: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)
    proportions: list = field(default_factory=lambda: [0.1, 0.3, 0.5])
    model: dict = field(default_factory=dict)
    predictor: dict = field(default_factory=dict)
    estimators: list = field(default_factory=lambda: list(estimators.ESTIMATOR_NAMES))
    repetitions: int = 1000
    master_seed: int = 0
    truth: str = "global_treatment_mean"
    threads: int = 1
    verbose: bool = False

    def validate(self) -> None:
        for name in ("graph", "clustering", "model", "predictor"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a mapping")
        for name in ("repetitions", "master_seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, kind, what in (("proportions", numbers.Real, "numbers"), ("estimators", str, "names")):
            items = getattr(self, name)
            if not isinstance(items, list) or not all(isinstance(x, kind) for x in items):
                raise ValueError(f"{name} must be a list of {what}, got {items!r}")
        for name, keys in SECTION_KEYS.items():
            unknown = set(getattr(self, name)) - keys
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
        for section, key in (("predictor", "covariates"), ("model", "interaction")):
            names = getattr(self, section).get(key, [])
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise ValueError(f"{section}.{key} must be a list of names, got {names!r}")
        lam = self.predictor.get("ridge_lambda")
        if lam is not None and (isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0 <= lam < np.inf):
            raise ValueError(f"predictor.ridge_lambda must be null or a finite number >= 0, got {lam!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.proportions:
            raise ValueError("at least one treatment proportion required")
        if not self.estimators:
            raise ValueError("at least one estimator required")
        for p in self.proportions:
            if not 0.0 < p < 1.0:
                raise ValueError(f"treatment proportion {p} outside (0,1)")
        if self.truth not in TRUTHS:
            raise ValueError(f"truth must be one of {tuple(TRUTHS)}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        keys = [name.upper() for name in self.estimators]
        for i, name in enumerate(self.estimators):
            if keys[i] not in estimators.ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator {name!r}")
            if keys[i] in keys[:i]:
                raise ValueError(f"duplicate estimator {name!r}")
        if not isinstance(self.verbose, bool):
            raise ValueError(f"verbose must be a boolean, got {self.verbose!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
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


def _from_spec(section: str, build, spec: dict, *args, **kwargs):
    """build(*args, **kwargs, **spec); a misspelt or missing key's TypeError becomes a ValueError."""
    try:
        return build(*args, **kwargs, **spec)
    except TypeError as exc:
        raise ValueError(f"{section}: {exc}") from exc


def build_graph(config: ExperimentConfig) -> Graph:
    spec = config.graph
    if "path" in spec:
        return load_edge_list(spec["path"], spec.get("format", "auto"))
    if "sbm" in spec:
        return _from_spec("graph.sbm", sbm.generate, spec["sbm"])[0]
    raise ValueError("graph config needs 'path' or 'sbm'")


def _clustering_info(config: ExperimentConfig) -> dict:
    """Provenance of the clustering the config describes (its seed included)."""
    spec = config.clustering
    if "gamma" in spec:
        seed = int(spec.get("seed", config.master_seed))
        return {"method": "louvain", "gamma": float(spec["gamma"]), "seed": seed}
    if "partition" in spec:
        return {"method": "file", "path": str(spec["partition"])}
    if spec.get("blocks"):
        if "sbm" not in config.graph:
            raise ValueError("clustering 'blocks' requires an sbm graph")
        return {"method": "sbm-blocks"}
    raise ValueError("clustering config needs 'gamma', 'partition', or 'blocks'")


def build_partition(config: ExperimentConfig, g: Graph) -> tuple[Partition, dict]:
    """Partition per config plus its provenance (clustering is computed
    once per experiment)."""
    info = _clustering_info(config)
    if info["method"] == "louvain":
        return community.louvain(g, info["gamma"], info["seed"]), info
    if info["method"] == "file":
        return read_partition(g, config.clustering["partition"]), info
    _, labels = _from_spec("graph.sbm", sbm.generate, config.graph["sbm"])
    return decompose(g, labels), info


def build_model(config: ExperimentConfig, g: Graph, p_part: Partition) -> OutcomeModel:
    spec = dict(config.model)
    kind = spec.pop("kind", "linear_two_hop")
    builders = {"linear_two_hop": outcomes.linear_two_hop, "partial_linear": outcomes.partial_linear}
    if kind not in builders:
        raise ValueError(f"unknown model kind {kind!r}")
    return _from_spec("model", builders[kind], spec, g, p_part=p_part)


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
        c = self.clustering
        out.write(
            "# clustering: "
            f"clusters={c.cluster_count} interior_fraction={c.interior_fraction:.12g} "
            f"within_edge_fraction={c.within_edge_fraction:.12g} "
            f"modularity={c.modularity:.12g}\n"
        )
        out.write("estimator,p,bias,std,mse,reps_used,degenerate\n")
        for cell in self.cells:
            if cell.absent_reason is not None:
                out.write(
                    f"{cell.estimator},{cell.p:.12g},,,,{cell.reps_used},{cell.degenerate}\n"
                )
            else:
                out.write(
                    f"{cell.estimator},{cell.p:.12g},{cell.bias:.12g},{cell.std:.12g},"
                    f"{cell.mse:.12g},{cell.reps_used},{cell.degenerate}\n"
                )
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
        if self.raw_estimates is not None:
            payload["raw_estimates"] = self.raw_estimates
        if self.raw_diagnostics is not None:
            payload["raw_diagnostics"] = self.raw_diagnostics
        return json.dumps(payload, indent=2, sort_keys=True)

    def all_absent(self) -> bool:
        return bool(self.cells) and all(c.absent_reason is not None for c in self.cells)


def emit_report(report: SimulationReport, sink: str | Path | IO) -> None:
    """Write the CSV table (provenance header + one row per estimator/p)."""
    text = report.to_csv()
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


class _SimulationState:
    """Shared read-only inputs for the repetition loop."""

    def __init__(self, config: ExperimentConfig, g: Graph, p_part: Partition, model: OutcomeModel):
        self.graph = g
        self.partition = p_part
        self.model = model
        self.names = [n.upper() for n in config.estimators]
        self.needs_predictor = bool({"GNN", "AMII"} & set(self.names))
        pspec = config.predictor
        self.ridge_lambda = pspec.get("ridge_lambda", None)
        training_mask = pspec.get("training_mask", "full")
        covariates = {
            name: outcomes.covariate_vector(name, g, p_part)
            for name in pspec.get("covariates", ["degree"])
        }
        self.mask = None
        if training_mask == "boundary":
            self.mask = ~p_part.interior_mask
        elif training_mask != "full":
            raise ValueError("training_mask must be 'full' or 'boundary'")
        self.basis = predictor.FeatureBasis(g, covariates, int(pspec.get("max_hop", 2)))
        self.f1 = self.basis.at(np.ones(g.node_count))
        self.f0 = self.basis.at(np.zeros(g.node_count))
        # fitted interaction coefficient tracked for the bias-law checks
        self.tracked_column = None
        if isinstance(model, PartialLinearModel):
            column = f"{config.model.get('u', 'degree')}*z"
            if column in self.basis.names:
                self.tracked_column = column

    def run_cell(self, rng: np.random.Generator, p: float):
        d = design.draw(self.partition, p, rng)
        a = design.Assignment(self.graph, d.unit_bits, self.partition, d.cluster_bits)
        y = self.model.realize(a, rng)
        pred1 = pred0 = None
        alpha_hat = np.nan
        if self.needs_predictor:
            feats = self.basis.at(a)
            fitted = predictor.fit(feats, y, self.ridge_lambda, self.mask)
            pred1 = predictor.predict(fitted, self.f1)
            pred0 = predictor.predict(fitted, self.f0)
            if self.tracked_column is not None:
                alpha_hat = fitted.coefficient(self.tracked_column)
        est = estimators.estimate_all(
            self.graph, self.partition, a, y, p, pred1, pred0, tuple(self.names)
        )
        return est, alpha_hat


def _simulate(
    config: ExperimentConfig, g: Graph, p_part: Partition, model: OutcomeModel
) -> tuple[dict[str, np.ndarray], np.ndarray, list | None]:
    """Raw per-repetition estimates: name -> array (n_p, R), NaN on degenerate;
    plus the fitted interaction coefficient per (p, repetition) and, when the
    verbose flag is set, the per-repetition diagnostics."""
    state = _SimulationState(config, g, p_part, model)
    ps = list(config.proportions)
    reps = config.repetitions
    values = {name: np.full((len(ps), reps), np.nan) for name in state.names}
    alpha_hats = np.full((len(ps), reps), np.nan)
    diagnostics = [[None] * reps for _ in ps] if config.verbose else None
    rep_seeds = np.random.SeedSequence(config.master_seed).spawn(reps)

    def one_rep(r: int) -> None:
        cell_seeds = rep_seeds[r].spawn(len(ps))
        for pi, p in enumerate(ps):
            rng = np.random.default_rng(cell_seeds[pi])
            est, alpha_hat = state.run_cell(rng, p)
            for name in state.names:
                v = est.estimates[name]
                if v is not None:
                    values[name][pi, r] = v
            alpha_hats[pi, r] = alpha_hat
            if diagnostics is not None:
                diagnostics[pi][r] = est.diagnostics

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(one_rep, range(reps)))
    else:
        for r in range(reps):
            one_rep(r)
    return values, alpha_hats, diagnostics


def _aggregate(
    values: dict[str, np.ndarray], ps: list[float], truth: float, reps: int
) -> list[CellStats]:
    cells = []
    for name, arr in values.items():
        for pi, p in enumerate(ps):
            vals = arr[pi]
            finite = np.isfinite(vals)
            used = int(finite.sum())
            degenerate = reps - used
            if used == 0:
                cells.append(
                    CellStats(name, p, None, None, None, 0, degenerate, "all repetitions degenerate")
                )
                continue
            kept = vals[finite]
            bias = float(kept.mean() - truth)
            std = float(kept.std(ddof=1)) if used >= 2 else 0.0
            mse = float(np.mean((kept - truth) ** 2))
            cells.append(CellStats(name, p, bias, std, mse, used, degenerate))
    return cells


def run(
    config: ExperimentConfig,
    g: Graph | None = None,
    p_part: Partition | None = None,
) -> SimulationReport:
    """Execute the full experiment described by config.

    A preloaded graph/partition may be supplied to skip reloading; they must
    match what the config describes, whose clustering the report names.
    """
    config.validate()
    if g is None:
        g = build_graph(config)
    if p_part is None:
        p_part, _ = build_partition(config, g)
    model = build_model(config, g, p_part)
    truth = TRUTHS[config.truth](model)

    values, alpha_hats, diagnostics = _simulate(config, g, p_part, model)
    ps = list(config.proportions)
    cells = _aggregate(values, ps, truth, config.repetitions)

    raw = None
    raw_diag = None
    if config.verbose:
        raw = {
            name: {f"{p:.12g}": arr[pi].tolist() for pi, p in enumerate(ps)}
            for name, arr in values.items()
        }
        raw_diag = {f"{p:.12g}": diagnostics[pi] for pi, p in enumerate(ps)}
    alpha_mean = None
    if np.isfinite(alpha_hats).any():
        alpha_mean = {
            f"{p:.12g}": float(np.nanmean(alpha_hats[pi])) for pi, p in enumerate(ps)
        }

    return SimulationReport(
        cells=cells,
        truth_kind=config.truth,
        truth_value=truth,
        clustering=community.stats(g, p_part, float(config.clustering.get("gamma", 1.0))),
        clustering_info=_clustering_info(config),
        config_digest=config.digest(),
        master_seed=config.master_seed,
        version=__version__,
        raw_estimates=raw,
        raw_diagnostics=raw_diag,
        alpha_hat_mean=alpha_mean,
    )


@dataclass(frozen=True)
class Theorem2Cell:
    p: float
    empirical_mii_bias: float
    predicted_mii_bias: float
    mii_se: float
    empirical_amii_bias: float
    predicted_amii_bias: float
    amii_se: float
    mii_ok: bool
    amii_ok: bool


@dataclass
class Theorem2Report:
    cells: list[Theorem2Cell]
    interior_mean_gap: float
    alpha: float

    @property
    def passed(self) -> bool:
        return all(c.mii_ok and c.amii_ok for c in self.cells)

    def lines(self) -> list[str]:
        out = []
        for c in self.cells:
            out.append(
                f"p={c.p:g}: MII bias {c.empirical_mii_bias:+.4f} vs predicted "
                f"{c.predicted_mii_bias:+.4f} (3se={3 * c.mii_se:.4f}) "
                f"[{'PASS' if c.mii_ok else 'FAIL'}]; AMII bias "
                f"{c.empirical_amii_bias:+.4f} vs predicted {c.predicted_amii_bias:+.4f} "
                f"(3se={3 * c.amii_se:.4f}) [{'PASS' if c.amii_ok else 'FAIL'}]"
            )
        return out


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
    u_name = config.model.get("u", "degree")
    if u_name not in config.predictor.get("covariates", ["degree"]):
        raise ValueError(f"predictor covariates must include {u_name!r} for the u*z column")

    g = build_graph(config)
    p_part, _ = build_partition(config, g)
    report = run(config, g, p_part)
    model = build_model(config, g, p_part)
    assert isinstance(model, PartialLinearModel)
    gap = outcomes.interior_mean_gap(model, p_part)
    alpha = model.alpha

    agg = {(c.estimator, c.p): c for c in report.cells}
    cells = []
    for p in config.proportions:
        mii, amii = agg["MII", p], agg["AMII", p]
        if mii.reps_used < 2 or amii.reps_used < 2:
            raise ValueError(f"too many degenerate repetitions at p={p}")
        alpha_hat_mean = report.alpha_hat_mean[f"{p:.12g}"]
        mii_se = float(mii.std / np.sqrt(mii.reps_used))
        amii_se = float(amii.std / np.sqrt(amii.reps_used))
        pred_mii = alpha * gap
        pred_amii = (alpha_hat_mean - alpha) * (-gap)
        cells.append(
            Theorem2Cell(
                p=p,
                empirical_mii_bias=mii.bias,
                predicted_mii_bias=pred_mii,
                mii_se=mii_se,
                empirical_amii_bias=amii.bias,
                predicted_amii_bias=pred_amii,
                amii_se=amii_se,
                mii_ok=abs(mii.bias - pred_mii) <= 3 * mii_se,
                amii_ok=abs(amii.bias - pred_amii) <= 3 * amii_se,
            )
        )
    return Theorem2Report(cells=cells, interior_mean_gap=gap, alpha=alpha)
