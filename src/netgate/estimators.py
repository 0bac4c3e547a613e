"""Point estimators of the global average treatment effect from one realized
cluster-randomized assignment.

All estimators are pure functions of (graph, partition, assignment, outcomes).
estimate_all is the one implementation of HT, Hajek, CAE, MII and AMII: it
records a degenerate draw as an absent entry with a reason code, not a silent
zero, and the draw's counts as integers in the fixed layout that diagnostics
alone decodes. ht, hajek, cae, mii and amii are views of it that return one
estimate or raise DegenerateArmError with the reason it recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import Assignment, as_assignment
from .graph import Graph, Partition

ESTIMATOR_NAMES = ("DIM", "HT", "HAJEK", "CAE", "MII", "GNN", "AMII")


class DegenerateArmError(ValueError):
    """An arm required by the estimator has no usable units this draw."""


# a draw's counts, in the order they follow the reason codes in EstimateSet.codes
COUNTS = ("clean_treated", "clean_control", "s1", "s0", "clusters_used_treated", "clusters_used_control",
          "clusters_skipped_treated", "clusters_skipped_control")
# the counts each estimator's diagnostics name
READS = {"HT": COUNTS[:2], "HAJEK": COUNTS[:2], "CAE": COUNTS[4:], "MII": COUNTS[2:4], "AMII": COUNTS[2:4]}
# reason code 1 of each estimator that needs an arm populated; code 0 is a value and code 2 a non-finite one
REASONS = {"DIM": "difference-in-means needs both arms populated", "HAJEK": "an arm has no cleanly exposed nodes",
           "CAE": "an arm has no cluster with clean nodes",
           **dict.fromkeys(("MII", "AMII"), "interior set lacks a treated or control node")}


def _reason(key: str, code: int) -> str:
    """The DegenerateArmError message of estimator key's reason code 1 or 2."""
    return REASONS[key] if code == 1 else f"{key} produced a non-finite value"


def _mean(v: np.ndarray) -> np.float64:
    """np.mean of a non-empty 1-D float64 array, with its bits (the same
    pairwise sum, divided by the count) and without its dispatch."""
    return np.add.reduce(v) / len(v)


def _gap(y: np.ndarray, arm1: np.ndarray, arm0: np.ndarray, why: str) -> float:
    """Mean of y over arm1 minus its mean over arm0 (boolean masks or index arrays)."""
    y1, y0 = y[arm1], y[arm0]
    if not len(y1) or not len(y0):
        raise DegenerateArmError(why)
    return float(_mean(y1) - _mean(y0))


def dim(z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control units."""
    treated = np.asarray(z) == 1
    y = np.asarray(y, dtype=np.float64)
    return _gap(y, treated, ~treated, REASONS["DIM"])


def _interior_arms(p_part: Partition, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control interior nodes (clean exposure is z itself) as sorted indices."""
    nodes = p_part.interior_nodes
    z = z[nodes]
    return nodes[z == 1], nodes[z == 0]


def _predictions(pred1: np.ndarray, pred0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.float64, np.float64, float]:
    """The two counterfactual prediction vectors as float64 (of equal length),
    their means, and GNN, the difference of the means."""
    pred1, pred0 = (np.asarray(v, dtype=np.float64) for v in (pred1, pred0))
    if pred1.shape != pred0.shape:
        raise ValueError("prediction vectors must have equal length")
    mean1, mean0 = _mean(pred1), _mean(pred0)
    return pred1, pred0, mean1, mean0, float(mean1 - mean0)


def gnn_point(pred1: np.ndarray, pred0: np.ndarray) -> float:
    """Mean difference of the two counterfactual prediction vectors."""
    return _predictions(pred1, pred0)[-1]


def amii_ppi_form(
    p_part: Partition, z: np.ndarray, y: np.ndarray, pred1: np.ndarray
) -> float:
    """Treated-arm rearrangement: population prediction mean plus the mean
    residual over treated interior nodes. Differencing this against the
    analogous control form reproduces amii exactly."""
    y = np.asarray(y, dtype=np.float64)
    pred1 = np.asarray(pred1, dtype=np.float64)
    it, _ = _interior_arms(p_part, np.asarray(z))
    if not len(it):
        raise DegenerateArmError("no treated interior nodes")
    return float(_mean(pred1) + _mean(y[it] - pred1[it]))


@dataclass
class EstimateSet:
    """Estimates keyed by name (None marks a degenerate draw) plus codes, which diagnostics decodes:
    a reason code per requested name, then the draw's COUNTS (0 unless one of them reads it)."""

    estimates: dict[str, float | None]
    codes: list[int]


def diagnostics(names: tuple[str, ...], codes) -> dict[str, dict]:
    """Each estimator's report.json diagnostics from estimate_all's codes (a list or a
    float row) for names, its upper-case keys: its flags (HT's no_clean_* from the
    counts, then a degenerate draw's reason) and the counts it reads."""
    counts = dict(zip(COUNTS, map(int, codes[len(names):])))
    result = {}
    for key, code in zip(names, codes):
        flags = [f"no_{c}" for c in COUNTS[:2] if counts[c] == 0] if key == "HT" else []
        if code:
            flags.append(f"degenerate: {_reason(key, code)}")
        result[key] = {"flags": flags, **{c: counts[c] for c in READS.get(key, ())}}
    return result


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

    GNN and AMII need the counterfactual prediction vectors. Each count is
    written once, before an estimator that reads it runs, so a degenerate
    draw keeps it. A non-finite value is a degenerate draw (code 2).
    """
    a = as_assignment(g, z, p_part)
    y = np.asarray(y, dtype=np.float64)
    keys = [name.upper() for name in names]
    for name, key in zip(names, keys):
        if key not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {name!r}")
        if key in ("GNN", "AMII") and (pred1 is None or pred0 is None):
            raise ValueError(f"{key} estimator needs prediction vectors")
    estimates, reasons, counts = {}, [], dict.fromkeys(COUNTS, 0)
    # each quantity that two estimators share is computed once, and only when one is asked for
    if {"HT", "HAJEK"} & set(keys):
        # each level's weight is np.where(d, inv, 0.0) in every bit: 1/p^c or 1/(1-p)^c on its clean nodes and
        # +0.0 elsewhere. It is inv's bits times d as integers, so an inf inverse times 0 is +0.0, never a NaN,
        # and there is no per-node branch, which on a draw's random mask makes np.where several times slower
        d1, d0 = a.clean
        inverses = p_part.inverse_clean_probability(p)
        w1, w0 = ((inv.view(np.int64) * d).view(np.float64) for d, inv in zip((d1, d0), inverses))
        counts.update(clean_treated=int(np.count_nonzero(d1)), clean_control=int(np.count_nonzero(d0)))
    if {"MII", "AMII"} & set(keys):
        it, ic = _interior_arms(p_part, a.z)
        counts.update(s1=len(it), s0=len(ic))
    if {"GNN", "AMII"} & set(keys):
        pred1, pred0, mean1, mean0, gnn = _predictions(pred1, pred0)
    gap = None  # MII, and the first term of AMII

    for key in keys:
        try:
            if key == "DIM":
                value = dim(a.z, y)
            elif key == "HT":
                value = float(_mean((w1 - w0) * y))
            elif key == "HAJEK":
                s1, s0 = w1.sum(), w0.sum()
                if s1 == 0 or s0 == 0:
                    raise DegenerateArmError(REASONS[key])
                value = float((w1 @ y) / s1 - (w0 @ y) / s0)
            elif key == "CAE":
                # per cluster, the mean outcome of its nodes that are clean at its own
                # level (0 where none), which reads no other node's outcome
                k, t = p_part.cluster_count, a.t
                nodes = np.flatnonzero(a.clean[0] | a.clean[1])  # an index gathers faster than a mask here
                cluster = p_part.cluster_of[nodes]
                sizes = np.bincount(cluster, minlength=k)
                sums = np.bincount(cluster, weights=y[nodes], minlength=k)
                usable = sizes > 0
                means = np.zeros(k)
                means[usable] = sums[usable] / sizes[usable]
                used = (t & usable, ~t & usable, t & ~usable, ~t & ~usable)  # treated, control used, then skipped
                counts.update(zip(COUNTS[4:], (int(np.count_nonzero(arm)) for arm in used)))
                value = _gap(means, used[0], used[1], REASONS[key])
            elif key == "GNN":
                value = gnn
            else:  # MII or AMII: AMII adds to MII each arm's prediction mean over all
                # nodes minus its mean over that arm's interior nodes
                gap = _gap(y, it, ic, REASONS[key]) if gap is None else gap
                value = gap if key == "MII" else float(
                    gap + (mean1 - _mean(pred1[it])) - (mean0 - _mean(pred0[ic])))
            code = 0 if math.isfinite(value) else 2
        except DegenerateArmError:
            code = 1
        estimates[key] = None if code else value
        reasons.append(code)
    return EstimateSet(estimates, reasons + list(counts.values()))


def _view(key: str, g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray,
          p: float | None = None, pred1: np.ndarray | None = None, pred0: np.ndarray | None = None) -> float:
    """The estimate `key` of estimate_all alone, or DegenerateArmError with the reason it recorded."""
    result = estimate_all(g, p_part, z, y, p, pred1, pred0, (key,))
    if result.estimates[key] is None:
        raise DegenerateArmError(_reason(key, result.codes[0]))
    return result.estimates[key]


def ht(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray, p: float) -> float:
    """Inverse-probability estimator over cleanly exposed nodes, with analytic
    exposure probabilities p^c and (1-p)^c."""
    return _view("HT", g, p_part, z, y, p)


def hajek(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray, p: float) -> float:
    """Self-normalized variant of ht; requires a clean node in each arm."""
    return _view("HAJEK", g, p_part, z, y, p)


def cae(g: Graph, p_part: Partition, z: np.ndarray | Assignment, y: np.ndarray) -> float:
    """Within-cluster averages of clean nodes, then an unweighted average
    across contributing clusters per arm; clusters with no clean node at
    their level are skipped."""
    return _view("CAE", g, p_part, z, y)


def mii(p_part: Partition, z: np.ndarray, y: np.ndarray) -> float:
    """Difference in mean outcomes between treated and control interior nodes."""
    return _view("MII", p_part.graph, p_part, z, y)


def amii(p_part: Partition, z: np.ndarray, y: np.ndarray, pred1: np.ndarray, pred0: np.ndarray) -> float:
    """Interior difference-in-means plus the predictor correction for the
    covariate shift between interior nodes and the full population."""
    return _view("AMII", p_part.graph, p_part, z, y, pred1=pred1, pred0=pred0)
