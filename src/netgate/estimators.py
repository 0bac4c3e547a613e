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

from .design import DrawExposure, clean_masks, cluster_bits, draw_exposure
from .graph import Graph, Partition

ESTIMATOR_NAMES = ("DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII")


class DegenerateArmError(ValueError):
    """An arm required by the estimator has no usable units this draw."""


def _as_float(z) -> np.ndarray:
    return np.asarray(z, dtype=np.float64)


def dim(z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control units."""
    z = _as_float(z)
    y = _as_float(y)
    treated = z == 1
    if not treated.any() or treated.all():
        raise DegenerateArmError("difference-in-means needs both arms populated")
    return float(y[treated].mean() - y[~treated].mean())


def _ht(e: DrawExposure, y: np.ndarray) -> float:
    return float(np.mean((e.w1 - e.w0) * y))


def ht(g: Graph, p_part: Partition, z: np.ndarray, y: np.ndarray, p: float) -> float:
    """Inverse-probability estimator over cleanly exposed nodes, with analytic
    exposure probabilities p^c and (1-p)^c."""
    return _ht(draw_exposure(g, p_part, z, p), _as_float(y))


def _hajek(e: DrawExposure, y: np.ndarray) -> float:
    s1, s0 = e.w1.sum(), e.w0.sum()
    if s1 == 0 or s0 == 0:
        raise DegenerateArmError("an arm has no cleanly exposed nodes")
    return float((e.w1 @ y) / s1 - (e.w0 @ y) / s0)


def hajek(g: Graph, p_part: Partition, z: np.ndarray, y: np.ndarray, p: float) -> float:
    """Self-normalized variant of ht; requires a clean node in each arm."""
    return _hajek(draw_exposure(g, p_part, z, p), _as_float(y))


def _cae_arm_means(
    p_part: Partition, clean: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which clusters have a node that is clean at the cluster's own level,
    and the mean outcome of those nodes per cluster (0 where none)."""
    k = p_part.cluster_count
    counts = np.bincount(p_part.cluster_of, weights=clean, minlength=k)
    sums = np.bincount(p_part.cluster_of, weights=clean * y, minlength=k)
    usable = counts > 0
    means = np.zeros(k)
    means[usable] = sums[usable] / counts[usable]
    return usable, means


def _cae(t: np.ndarray, usable: np.ndarray, means: np.ndarray) -> float:
    arm1 = means[t & usable]
    arm0 = means[~t & usable]
    if len(arm1) == 0 or len(arm0) == 0:
        raise DegenerateArmError("an arm has no cluster with clean nodes")
    return float(arm1.mean() - arm0.mean())


def cae(g: Graph, p_part: Partition, z: np.ndarray, y: np.ndarray) -> float:
    """Within-cluster averages of clean nodes, then an unweighted average
    across contributing clusters per arm; clusters with no clean node at
    their level are skipped."""
    d1, d0 = clean_masks(g, z)
    return _cae(cluster_bits(p_part, z), *_cae_arm_means(p_part, d1 | d0, _as_float(y)))


def _interior_arms(p_part: Partition, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control interior nodes, where clean exposure is z itself."""
    interior = p_part.interior_mask
    return interior & (z == 1), interior & (z == 0)


def _mii(it: np.ndarray, ic: np.ndarray, y: np.ndarray) -> float:
    if not it.any() or not ic.any():
        raise DegenerateArmError("interior set lacks a treated or control node")
    return float(y[it].mean() - y[ic].mean())


def mii(p_part: Partition, z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control interior nodes."""
    return _mii(*_interior_arms(p_part, _as_float(z)), _as_float(y))


def gnn_point(pred1: np.ndarray, pred0: np.ndarray) -> float:
    """Mean difference of the two counterfactual prediction vectors."""
    pred1 = _as_float(pred1)
    pred0 = _as_float(pred0)
    if pred1.shape != pred0.shape:
        raise ValueError("prediction vectors must have equal length")
    return float(pred1.mean() - pred0.mean())


def _amii(
    it: np.ndarray, ic: np.ndarray, y: np.ndarray, pred1: np.ndarray, pred0: np.ndarray
) -> float:
    base = _mii(it, ic, y)
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
    it, ic = _interior_arms(p_part, _as_float(z))
    return _amii(it, ic, _as_float(y), _as_float(pred1), _as_float(pred0))


def amii_ppi_form(
    p_part: Partition, z: np.ndarray, y: np.ndarray, pred1: np.ndarray
) -> float:
    """Treated-arm rearrangement: population prediction mean plus the mean
    residual over treated interior nodes. Differencing this against the
    analogous control form reproduces amii exactly."""
    y = _as_float(y)
    pred1 = _as_float(pred1)
    it, _ = _interior_arms(p_part, _as_float(z))
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
    z: np.ndarray,
    y: np.ndarray,
    p: float,
    pred1: np.ndarray | None = None,
    pred0: np.ndarray | None = None,
    names: tuple[str, ...] = ESTIMATOR_NAMES,
) -> EstimateSet:
    """Compute the requested estimators from one realized draw.

    GNN and AMII need the counterfactual prediction vectors.
    """
    z = _as_float(z)
    y = _as_float(y)
    result = EstimateSet()
    e = draw_exposure(g, p_part, z, p)
    it, ic = _interior_arms(p_part, z)
    clean1 = int(e.d1.sum())
    clean0 = int(e.d0.sum())
    s1 = int(it.sum())
    s0 = int(ic.sum())

    for name in names:
        key = name.upper()
        if key not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {name!r}")
        diag: dict = {"flags": []}
        try:
            if key == "DIM":
                value = dim(z, y)
            elif key == "HT":
                value = _ht(e, y)
                diag.update(clean_treated=clean1, clean_control=clean0)
                if clean1 == 0:
                    diag["flags"].append("no_clean_treated")
                if clean0 == 0:
                    diag["flags"].append("no_clean_control")
            elif key == "HAJEK":
                value = _hajek(e, y)
                diag.update(clean_treated=clean1, clean_control=clean0)
            elif key == "CAE":
                t = e.cluster_bits
                usable, means = _cae_arm_means(p_part, e.d1 | e.d0, y)
                value = _cae(t, usable, means)
                diag.update(
                    clusters_used_treated=int((t & usable).sum()),
                    clusters_used_control=int((~t & usable).sum()),
                    clusters_skipped_treated=int((t & ~usable).sum()),
                    clusters_skipped_control=int((~t & ~usable).sum()),
                )
            elif key == "MII":
                value = _mii(it, ic, y)
                diag.update(s1=s1, s0=s0)
            elif key == "GNN":
                if pred1 is None or pred0 is None:
                    raise ValueError("GNN estimator needs prediction vectors")
                value = gnn_point(pred1, pred0)
            else:  # AMII
                if pred1 is None or pred0 is None:
                    raise ValueError("AMII estimator needs prediction vectors")
                value = _amii(it, ic, y, _as_float(pred1), _as_float(pred0))
                diag.update(s1=s1, s0=s0)
            if not math.isfinite(value):
                raise DegenerateArmError(f"{key} produced a non-finite value")
            result.estimates[key] = value
        except DegenerateArmError as exc:
            result.estimates[key] = None
            diag["flags"].append(f"degenerate: {exc}")
        result.diagnostics[key] = diag
    return result
