"""Shared fixtures: toy graphs, an interior-rich SBM, and the optional
socfb-Stanford3 network (tests needing it skip when the file is absent)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO

import numpy as np
import pytest

from netgate import community, sbm
from netgate.graph import Graph, Partition, decompose, from_edges, load_edge_list
from netgate.harness import CellStats, SimulationReport
from netgate.oracles import TRI_RING_CLUSTERS, tri_ring, tri_ring_partition

DATA_ENV = "NETGATE_DATA_DIR"
STANFORD_BASENAMES = ("socfb-Stanford3.mtx", "socfb-Stanford3.edges", "socfb-Stanford3.txt")


def stanford3_path() -> Path | None:
    roots = []
    if os.environ.get(DATA_ENV):
        roots.append(Path(os.environ[DATA_ENV]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for name in STANFORD_BASENAMES:
            candidate = root / name
            if candidate.exists():
                return candidate
    return None


@pytest.fixture(scope="session")
def stanford3() -> Graph:
    path = stanford3_path()
    if path is None:
        pytest.skip(
            "socfb-Stanford3 network file not found; place it under ./data or "
            f"${DATA_ENV} (see README: scripts/fetch_socfb_stanford3.py)"
        )
    return load_edge_list(path)


@pytest.fixture(scope="session")
def stanford3_partitions(stanford3) -> dict[float, Partition]:
    """Louvain partitions at the three studied resolutions, one seed."""
    return {gamma: community.louvain(stanford3, gamma, seed=20240501) for gamma in (2.0, 5.0, 10.0)}


@pytest.fixture
def toy_graph() -> Graph:
    return tri_ring()


@pytest.fixture
def toy_partition() -> Partition:
    return tri_ring_partition()


@pytest.fixture
def toy_clusters() -> np.ndarray:
    return np.array(TRI_RING_CLUSTERS)


@pytest.fixture(scope="session")
def interior_rich_sbm() -> tuple[Graph, Partition]:
    """20 blocks of 100 nodes with sparse between-block edges, so a healthy
    share of nodes is interior when blocks act as clusters."""
    g, labels = sbm.generate(communities=20, size=100, p_in=0.15, p_out=0.0009, seed=7)
    return g, decompose(g, labels)


def report_cell(report: SimulationReport, estimator: str, p: float) -> CellStats:
    """The report row for (estimator, p)."""
    for c in report.cells:
        if c.estimator == estimator.upper() and abs(c.p - p) < 1e-12:
            return c
    raise KeyError(f"no cell for ({estimator}, {p})")


def neighbors(g: Graph, i: int) -> np.ndarray:
    """Sorted neighbor ids of node i (read-only view)."""
    return g.indices[g.indptr[i] : g.indptr[i + 1]]


def path_graph(n: int) -> Graph:
    u = np.arange(n - 1)
    return from_edges(u, u + 1, n)


def two_triangles() -> Graph:
    e = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    return from_edges(e[:, 0], e[:, 1], 6)


def write_edge_list(g: Graph, sink: str | Path | IO) -> None:
    """Write g as a plain edge list over internal ids (one 'u v' line per edge)."""
    text = "".join(f"{a} {b}\n" for a, b in g.edge_array())
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)
