"""Point estimators of the global average treatment effect from one realized
cluster-randomized assignment.

All estimators are pure functions of (graph, partition, assignment, outcomes).
Degenerate arms raise DegenerateArmError; estimate_all converts those into
absent entries with diagnostics instead of silent zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import Assignment, as_assignment, clean_weights
from .graph import Graph, Partition

ESTIMATOR_NAMES = ("DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII")


class DegenerateArmError(ValueError):
    """An arm required by the estimator has no usable units this draw."""


_NO_CLUSTER_ARM = "an arm has no cluster with clean nodes"
_NO_INTERIOR_ARM = "interior set lacks a treated or control node"


def _gap(y: np.ndarray, arm1: np.ndarray, arm0: np.ndarray, why: str) -> float:
    """Mean of y over the boolean mask arm1 minus its mean over arm0."""
    if not arm1.any() or not arm0.any():
        raise DegenerateArmError(why)
    return float(y[arm1].mean() - y[arm0].mean())


def dim(z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control units."""
    treated = np.asarray(z) == 1
    y = np.asarray(y, dtype=np.float64)
    return _gap(y, treated, ~treated, "difference-in-means needs both arms populated")


def _ht(w1: np.ndarray, w0: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((w1 - w0) * y))


def ht(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray, p: float) -> float:
    """Inverse-probability estimator over cleanly exposed nodes, with analytic
    exposure probabilities p^c and (1-p)^c."""
    return _ht(*clean_weights(as_assignment(g, z), p_part, p), np.asarray(y, dtype=np.float64))


def _hajek(w1: np.ndarray, w0: np.ndarray, y: np.ndarray) -> float:
    s1, s0 = w1.sum(), w0.sum()
    if s1 == 0 or s0 == 0:
        raise DegenerateArmError("an arm has no cleanly exposed nodes")
    return float((w1 @ y) / s1 - (w0 @ y) / s0)


def hajek(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray, p: float) -> float:
    """Self-normalized variant of ht; requires a clean node in each arm."""
    return _hajek(*clean_weights(as_assignment(g, z), p_part, p), np.asarray(y, dtype=np.float64))


def _cae_clusters(
    p_part: Partition, a: Assignment, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster bits, which clusters have a node that is clean at their own
    level, and the mean outcome of those nodes per cluster (0 where none)."""
    k = p_part.cluster_count
    clean = a.clean[0] | a.clean[1]
    counts = np.bincount(p_part.cluster_of, weights=clean, minlength=k)
    sums = np.bincount(p_part.cluster_of, weights=clean * y, minlength=k)
    usable = counts > 0
    means = np.zeros(k)
    means[usable] = sums[usable] / counts[usable]
    return a.t, usable, means


def cae(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray) -> float:
    """Within-cluster averages of clean nodes, then an unweighted average
    across contributing clusters per arm; clusters with no clean node at
    their level are skipped."""
    a = as_assignment(g, z, p_part)
    t, usable, means = _cae_clusters(p_part, a, np.asarray(y, dtype=np.float64))
    return _gap(means, t & usable, ~t & usable, _NO_CLUSTER_ARM)


def _interior_arms(p_part: Partition, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control interior nodes, where clean exposure is z itself."""
    interior = p_part.interior_mask
    return interior & (z == 1), interior & (z == 0)


def mii(p_part: Partition, z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control interior nodes."""
    it, ic = _interior_arms(p_part, np.asarray(z))
    return _gap(np.asarray(y, dtype=np.float64), it, ic, _NO_INTERIOR_ARM)


def gnn_point(pred1: np.ndarray, pred0: np.ndarray) -> float:
    """Mean difference of the two counterfactual prediction vectors."""
    pred1 = np.asarray(pred1, dtype=np.float64)
    pred0 = np.asarray(pred0, dtype=np.float64)
    if pred1.shape != pred0.shape:
        raise ValueError("prediction vectors must have equal length")
    return float(pred1.mean() - pred0.mean())


def _amii(
    it: np.ndarray, ic: np.ndarray, y: np.ndarray, pred1: np.ndarray, pred0: np.ndarray
) -> float:
    base = _gap(y, it, ic, _NO_INTERIOR_ARM)
    adj1 = pred1.mean() - pred1[it].mean()
    adj0 = pred0.mean() - pred0[ic].mean()
    return float(base + adj1 - adj0)


def amii(
    p_part: Partition,
    z: np.ndarray,
    y: np.ndarray,
    pred1: np.ndarray,
    pred0: np.ndarray,
) -> float:
    """Interior difference-in-means plus the predictor correction for the
    covariate shift between interior nodes and the full population."""
    it, ic = _interior_arms(p_part, np.asarray(z))
    return _amii(it, ic, *(np.asarray(v, dtype=np.float64) for v in (y, pred1, pred0)))


def amii_ppi_form(
    p_part: Partition, z: np.ndarray, y: np.ndarray, pred1: np.ndarray
) -> float:
    """Treated-arm rearrangement: population prediction mean plus the mean
    residual over treated interior nodes. Differencing this against the
    analogous control form reproduces amii exactly."""
    y = np.asarray(y, dtype=np.float64)
    pred1 = np.asarray(pred1, dtype=np.float64)
    it, _ = _interior_arms(p_part, np.asarray(z))
    if not it.any():
        raise DegenerateArmError("no treated interior nodes")
    return float(pred1.mean() + (y[it] - pred1[it]).mean())


@dataclass
class EstimateSet:
    """Estimates keyed by name (None marks a degenerate draw) plus per-
    estimator diagnostics (counts and flags)."""

    estimates: dict[str, float | None] = field(default_factory=dict)
    diagnostics: dict[str, dict] = field(default_factory=dict)


def estimate_all(
    g: Graph,
    p_part: Partition,
    z: np.ndarray | Assignment,
    y: np.ndarray,
    p: float,
    pred1: np.ndarray | None = None,
    pred0: np.ndarray | None = None,
    names: tuple[str, ...] = ESTIMATOR_NAMES,
) -> EstimateSet:
    """Compute the requested estimators from one realized draw.

    GNN and AMII need the counterfactual prediction vectors. Each
    estimator's counts go into its diagnostics before it runs, so a
    degenerate draw keeps them.
    """
    a = as_assignment(g, z, p_part)
    y = np.asarray(y, dtype=np.float64)
    result = EstimateSet()
    if {"HT", "HAJEK"} & {name.upper() for name in names}:
        w1, w0 = clean_weights(a, p_part, p)
        clean = {"clean_treated": int(a.clean[0].sum()), "clean_control": int(a.clean[1].sum())}
    it, ic = _interior_arms(p_part, a.z)
    arms = {"s1": int(it.sum()), "s0": int(ic.sum())}

    for name in names:
        key = name.upper()
        if key not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {name!r}")
        if key in ("GNN", "AMII") and (pred1 is None or pred0 is None):
            raise ValueError(f"{key} estimator needs prediction vectors")
        diag: dict = {"flags": []}
        try:
            if key == "DIM":
                value = dim(a.z, y)
            elif key == "HT":
                diag.update(clean)
                diag["flags"] += [f"no_{arm}" for arm in clean if clean[arm] == 0]
                value = _ht(w1, w0, y)
            elif key == "HAJEK":
                diag.update(clean)
                value = _hajek(w1, w0, y)
            elif key == "CAE":
                t, usable, means = _cae_clusters(p_part, a, y)
                diag.update(
                    clusters_used_treated=int((t & usable).sum()),
                    clusters_used_control=int((~t & usable).sum()),
                    clusters_skipped_treated=int((t & ~usable).sum()),
                    clusters_skipped_control=int((~t & ~usable).sum()),
                )
                value = _gap(means, t & usable, ~t & usable, _NO_CLUSTER_ARM)
            elif key == "MII":
                diag.update(arms)
                value = _gap(y, it, ic, _NO_INTERIOR_ARM)
            elif key == "GNN":
                value = gnn_point(pred1, pred0)
            else:  # AMII
                diag.update(arms)
                value = _amii(it, ic, y, *(np.asarray(v, dtype=np.float64) for v in (pred1, pred0)))
            if not math.isfinite(value):
                raise DegenerateArmError(f"{key} produced a non-finite value")
            result.estimates[key] = value
        except DegenerateArmError as exc:
            result.estimates[key] = None
            diag["flags"].append(f"degenerate: {exc}")
        result.diagnostics[key] = diag
    return result
