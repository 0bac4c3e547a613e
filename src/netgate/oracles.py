"""Exact enumeration checks on desk-scale instances.

For small cluster counts the design can be enumerated completely, which
turns the inverse-probability estimator's unbiasedness and the analytic
exposure probabilities into exact identities (machine precision, no Monte
Carlo error). These suites back the `netgate verify` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design, estimators, outcomes, sbm
from .graph import Graph, Partition, decompose, from_edges

TRI_RING_EDGES = [
    (0, 1), (0, 2), (1, 2),
    (3, 4), (3, 5), (4, 5),
    (6, 7), (6, 8), (7, 8),
    (2, 3), (5, 6), (8, 0),
]
TRI_RING_CLUSTERS = [0, 0, 0, 1, 1, 1, 2, 2, 2]


def tri_ring() -> Graph:
    """Three triangles joined in a ring: 9 nodes, 12 edges."""
    e = np.array(TRI_RING_EDGES)
    return from_edges(e[:, 0], e[:, 1], 9)


def tri_ring_partition() -> Partition:
    return decompose(tri_ring(), np.array(TRI_RING_CLUSTERS))


@dataclass(frozen=True)
class OracleCase:
    name: str
    graph: Graph
    partition: Partition
    model: outcomes.OutcomeModel
    p: float


def _path_graph(n: int) -> Graph:
    u = np.arange(n - 1)
    return from_edges(u, u + 1, n)


def _star_graph(n: int) -> Graph:
    return from_edges(np.zeros(n - 1, dtype=np.int64), np.arange(1, n), n)


def default_oracle_cases() -> list[OracleCase]:
    """Small 1-hop noiseless instances with K <= 10 covering interior-heavy,
    boundary-heavy, isolated-node, and random topologies."""
    cases = []

    g = tri_ring()
    part = tri_ring_partition()
    cases.append(
        OracleCase(
            "tri-ring plain",
            g,
            part,
            outcomes.linear_two_hop(g, beta=1.0, r1=1.0, r2=0.0, sigma=0.0),
            0.3,
        )
    )
    cases.append(
        OracleCase(
            "tri-ring interacted",
            g,
            part,
            outcomes.linear_two_hop(
                g, beta=1.0, r1=1.0, r2=0.0, sigma=0.0,
                interaction=("degree", "clusters"), p_part=part,
            ),
            0.5,
        )
    )

    g = _path_graph(12)
    part = decompose(g, np.repeat(np.arange(4), 3))
    cases.append(
        OracleCase(
            "path-12",
            g,
            part,
            outcomes.linear_two_hop(g, beta=2.0, r1=0.5, r2=0.0, sigma=0.0),
            0.2,
        )
    )

    # two disjoint triangles plus an isolated node
    e = np.array([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    g = from_edges(e[:, 0], e[:, 1], 7)
    part = decompose(g, np.array([0, 0, 0, 1, 1, 1, 1]))
    model = outcomes.partial_linear(
        g, beta=1.5, alpha=0.7, sigma=0.0, h="sqrt", h_scale=2.0, v="normal", v_seed=11
    )
    cases.append(OracleCase("triangles+isolate", g, part, model, 0.4))

    g = _star_graph(7)
    part = decompose(g, np.array([0, 0, 0, 1, 1, 2, 2]))
    cases.append(
        OracleCase(
            "star-7",
            g,
            part,
            outcomes.linear_two_hop(
                g, beta=1.0, r1=1.0, r2=0.0, sigma=0.0, interaction=("clusters",), p_part=part
            ),
            0.5,
        )
    )

    g, labels = sbm.generate(communities=5, size=8, p_in=0.6, p_out=0.05, seed=5)
    part = decompose(g, labels)
    cases.append(
        OracleCase(
            "sbm-5x8",
            g,
            part,
            outcomes.linear_two_hop(
                g, beta=1.0, r1=1.0, r2=0.0, sigma=0.0, interaction=("degree",), p_part=part
            ),
            0.25,
        )
    )
    return cases


@dataclass(frozen=True)
class OracleResult:
    name: str
    ht_expectation_error: float
    exposure_probability_error: float
    probability_mass_error: float

    def ok(self, tol: float = 1e-12) -> bool:
        return (
            self.ht_expectation_error <= tol
            and self.exposure_probability_error <= tol
            and self.probability_mass_error <= tol
        )


def check_case(case: OracleCase) -> OracleResult:
    """Enumerate the design and compare exact expectations against the
    analytic quantities they must equal under 1-hop interference."""
    g, part, model, p = case.graph, case.partition, case.model, case.p
    n = g.node_count
    tau = outcomes.true_gate(model)
    ht_expect = 0.0
    freq1 = np.zeros(n)
    freq0 = np.zeros(n)
    mass = 0.0
    for bits, prob in design.enumerate_assignments(part, p):
        a = design.Assignment(g, design.expand(part, bits), part, bits)
        ht_expect += prob * estimators.ht(g, part, a, model.potential(a), p)
        freq1 += prob * a.clean[0]
        freq0 += prob * a.clean[1]
        mass += prob
    q1, q0 = part.clean_probability(p)
    return OracleResult(
        name=case.name,
        ht_expectation_error=abs(ht_expect - tau),
        exposure_probability_error=max(
            np.abs(freq1 - q1).max(), np.abs(freq0 - q0).max()
        ),
        probability_mass_error=abs(mass - 1.0),
    )


def run_oracle_suite(cases: list[OracleCase] | None = None) -> list[OracleResult]:
    if cases is None:
        cases = default_oracle_cases()
    return [check_case(c) for c in cases]
