"""Correctness gate for one benchmark iteration's report.

At the reference seed the report.csv bytes must hash to the digest recorded
from a threads=1 run (perfbench/reference.json). At every seed the report
must satisfy structural invariants that hold whatever the random draws.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from netgate import harness, outcomes

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(csv_bytes: bytes, expected: str) -> list[str]:
    got = sha256(csv_bytes)
    if got != expected:
        return [f"report.csv sha256 {got} differs from the recorded {expected}"]
    return []


def closed_form_treatment_mean(g, p_part, model_spec: dict) -> float:
    """mean_i Y_i(1) of the linear two-hop model, computed from the CSR arrays
    without the package's model code: beta + r1 P1 + w + r2 (P P1 - diag P^2)."""
    if model_spec.get("kind", "linear_two_hop") != "linear_two_hop":
        raise ValueError("the closed form covers the linear two-hop model only")
    n = g.node_count
    deg = np.diff(np.asarray(g.indptr)).astype(np.float64)
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    rows = np.repeat(np.arange(n), np.diff(np.asarray(g.indptr)))
    cols = np.asarray(g.indices)
    p = sp.csr_matrix((inv[rows], (rows, cols)), shape=(n, n))
    p1 = p @ np.ones(n)
    diag_p2 = np.bincount(rows, weights=inv[rows] * inv[cols], minlength=n)
    covariates = {
        "degree": deg / deg.mean(),
        "clusters": p_part.touch_counts / p_part.touch_counts.mean(),
        "constant": np.ones(n),
    }
    names = model_spec.get("interaction", [])
    w = sum((covariates[name] / len(names) for name in names), np.zeros(n))
    y1 = model_spec.get("beta", 1.0) + model_spec.get("r1", 1.0) * p1 + w
    y1 = y1 + model_spec.get("r2", 0.0) * (p @ p1 - diag_p2)
    return float(y1.mean())


def check_invariants(report, config, g, p_part) -> list[str]:
    """Structural checks that hold at any seed."""
    errors = []
    reps = config.repetitions
    expected_cells = {(n.upper(), p) for n in config.estimators for p in config.proportions}
    got_cells = [(c.estimator, c.p) for c in report.cells]
    if sorted(got_cells) != sorted(expected_cells) or len(got_cells) != len(expected_cells):
        errors.append(f"report cells {got_cells} do not cover estimators x proportions once")
    for c in report.cells:
        tag = f"{c.estimator}@p={c.p:g}"
        if c.reps_used + c.degenerate != reps:
            errors.append(f"{tag}: reps_used {c.reps_used} + degenerate {c.degenerate} != {reps}")
        if c.reps_used > 0:
            if not all(v is not None and math.isfinite(v) for v in (c.bias, c.std, c.mse)):
                errors.append(f"{tag}: non-finite bias/std/mse with {c.reps_used} reps used")
        elif c.absent_reason is None:
            errors.append(f"{tag}: no repetitions used but the cell is not marked absent")

    model = harness.build_model(config, g, p_part)
    truth = outcomes.global_treatment_mean(model)
    if report.truth_value != truth:
        errors.append(f"truth {report.truth_value!r} != global_treatment_mean {truth!r}")
    independent = closed_form_treatment_mean(g, p_part, config.model)
    if not math.isclose(report.truth_value, independent, rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"truth {report.truth_value!r} != closed form {independent!r}")
    return errors


def check_outputs(out_dir: Path, report) -> list[str]:
    """The files on disk are the report that was returned."""
    errors = []
    if (out_dir / "report.csv").read_text(encoding="utf-8") != report.to_csv():
        errors.append("report.csv on disk differs from the returned report")
    written = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if len(written.get("cells", [])) != len(report.cells):
        errors.append("report.json cell count differs from the returned report")
    return errors
