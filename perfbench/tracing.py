"""Outside-in tracing of one replication table.

The traced run replays `_SimulationState.run_cell` by calling each layer's
public entry point in the same order, with the same per-cell random
substream `harness._simulate` hands out, and records a span around every
call. Nothing inside the package is patched. Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from netgate import design, estimators, outcomes, predictor

# Estimator entry points timed one by one on each cell's draw, after the
# cell itself, with the arguments their current signatures take.
_ESTIMATOR_PROBES = {
    "DIM": ("dim", lambda c: (c["z"], c["y"])),
    "HT": ("ht", lambda c: (c["g"], c["part"], c["z"], c["y"], c["p"])),
    "HAJEK": ("hajek", lambda c: (c["g"], c["part"], c["z"], c["y"], c["p"])),
    "CAE": ("cae", lambda c: (c["g"], c["part"], c["z"], c["y"])),
    "MII": ("mii", lambda c: (c["part"], c["z"], c["y"])),
    "GNN": ("gnn_point", lambda c: (c["pred1"], c["pred0"])),
    "AMII": ("amii", lambda c: (c["part"], c["z"], c["y"], c["pred1"], c["pred0"])),
}

# Public entry points the cell replica calls.
_CELL_ENTRY_POINTS = (
    (design, "draw"),
    (outcomes, "covariate_vector"),
    (predictor, "build_features"),
    (predictor, "features_at_level"),
    (predictor, "fit"),
    (predictor, "predict"),
    (estimators, "estimate_all"),
)


class Tracer:
    """Spans as [name, start, end, parent index, cell id], in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: int | None = None):
        parent = self._open[-1] if self._open else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, cell])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> np.ndarray:
        """Seconds spent in every closed span of this name."""
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None])

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "cell")
        path.write_text(
            json.dumps([dict(zip(keys, s)) for s in self.spans], separators=(",", ":")),
            encoding="utf-8",
        )


def missing_entry_points() -> list[str]:
    """Names the cell replica needs but the package no longer provides."""
    missing = [f"{mod.__name__}.{attr}" for mod, attr in _CELL_ENTRY_POINTS
               if not callable(getattr(mod, attr, None))]
    if not isinstance(getattr(estimators, "DegenerateArmError", None), type):
        missing.append("netgate.estimators.DegenerateArmError")
    return missing


def replay_table(tracer: Tracer, config, g, part, model) -> dict:
    """Trace every cell of the table `config` describes.

    Returns the estimates as name -> (n_p, R) arrays with NaN on degenerate
    draws (the layout of `harness._simulate`), the ridge fallback count, one
    cell's feature matrix size, and the estimator probes that could not run.
    """
    names = [n.upper() for n in config.estimators]
    ps = list(config.proportions)
    reps = config.repetitions
    pspec = config.predictor
    max_hop = int(pspec.get("max_hop", 2))
    ridge_lambda = pspec.get("ridge_lambda", None)
    mask = ~part.interior_mask if pspec.get("training_mask", "full") == "boundary" else None
    covariates = {
        name: outcomes.covariate_vector(name, g, part)
        for name in pspec.get("covariates", ["degree"])
    }
    needs_predictor = bool({"GNN", "AMII"} & set(names))
    f1 = predictor.features_at_level(g, covariates, 1, max_hop)
    f0 = predictor.features_at_level(g, covariates, 0, max_hop)

    values = {name: np.full((len(ps), reps), np.nan) for name in names}
    fallbacks = 0
    feature_bytes = 0
    probe_errors: dict[str, str] = {}
    rep_seeds = np.random.SeedSequence(config.master_seed).spawn(reps)
    for r in range(reps):
        cell_seeds = rep_seeds[r].spawn(len(ps))
        for pi, p in enumerate(ps):
            rng = np.random.default_rng(cell_seeds[pi])
            cell_id = r * len(ps) + pi
            pred1 = pred0 = None
            with tracer.span("harness.cell", cell_id):
                with tracer.span("design.draw"):
                    d = design.draw(part, p, rng)
                z = d.unit_bits
                with tracer.span("outcomes.realize"):
                    y = model.realize(z, rng)
                if needs_predictor:
                    with tracer.span("predictor.features"):
                        feats = predictor.build_features(g, z, covariates, max_hop)
                    with tracer.span("predictor.fit"):
                        fitted = predictor.fit(feats, y, ridge_lambda, mask)
                    with tracer.span("predictor.predict"):
                        pred1 = predictor.predict(fitted, f1)
                    with tracer.span("predictor.predict"):
                        pred0 = predictor.predict(fitted, f0)
                    fallbacks += int(fitted.fallback_used)
                    feature_bytes = feats.values.nbytes
                with tracer.span("estimators.estimate_all"):
                    est = estimators.estimate_all(g, part, z, y, p, pred1, pred0, tuple(names))
            for name in names:
                v = est.estimates[name]
                if v is not None:
                    values[name][pi, r] = v
            cell = {"g": g, "part": part, "z": z, "y": y, "p": p, "pred1": pred1, "pred0": pred0}
            _probe(tracer, cell_id, cell, probe_errors)
    return {
        "values": values,
        "fallbacks": fallbacks,
        "feature_bytes": feature_bytes,
        "probe_errors": probe_errors,
    }


def _probe(tracer: Tracer, cell_id: int, cell: dict, errors: dict[str, str]) -> None:
    """Time one exposure_vector call and each estimator alone on this draw."""
    with tracer.span("probe", cell_id):
        if callable(getattr(design, "exposure_vector", None)):
            with tracer.span("design.exposure"):
                design.exposure_vector(cell["g"], cell["z"], 1)
        else:
            errors["design.exposure"] = "netgate.design.exposure_vector is gone"
        for key, (attr, args) in _ESTIMATOR_PROBES.items():
            metric = f"estimators.{key.lower()}"
            if metric in errors:
                continue
            fn = getattr(estimators, attr, None)
            if not callable(fn):
                errors[metric] = f"netgate.estimators.{attr} is gone"
                continue
            if cell["pred1"] is None and key in ("GNN", "AMII"):
                errors[metric] = "no predictor configured"
                continue
            try:
                with tracer.span(metric):
                    fn(*args(cell))
            except estimators.DegenerateArmError:
                pass
            except TypeError as exc:
                errors[metric] = f"netgate.estimators.{attr} signature changed: {exc}"
