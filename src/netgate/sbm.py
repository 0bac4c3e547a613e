"""Stochastic block model graphs with planted equal-size communities.

Test fixture and verification workload: the blocks double as randomization
clusters, giving partitions with a tunable interior fraction.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_edges


def block_labels(communities: int, size: int) -> np.ndarray:
    """Block label of each node of a `communities` x `size` SBM; they do not
    depend on the edge draw."""
    return np.repeat(np.arange(communities), size)


def generate(
    communities: int,
    size: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> tuple[Graph, np.ndarray]:
    """Sample an SBM with `communities` blocks of `size` nodes each.

    Within-block edges appear with probability p_in, between-block edges
    with p_out, all independent. Returns the graph and the block label of
    each node (usable directly as a cluster assignment).
    """
    if communities < 1 or size < 1:
        raise ValueError("need at least one community of at least one node")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0,1]")
    n = communities * size
    rng = np.random.default_rng(seed)

    # all node pairs i<j, sampled blockwise to keep the draw order deterministic
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for a in range(communities):
        base_a = a * size
        # within block a: strict upper triangle
        iu, ju = np.triu_indices(size, k=1)
        keep = rng.random(len(iu)) < p_in
        us.append(base_a + iu[keep])
        vs.append(base_a + ju[keep])
        for b in range(a + 1, communities):
            base_b = b * size
            mask = rng.random((size, size)) < p_out
            ii, jj = np.nonzero(mask)
            us.append(base_a + ii)
            vs.append(base_b + jj)

    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return from_edges(u.astype(np.int64), v.astype(np.int64), n), block_labels(communities, size)
