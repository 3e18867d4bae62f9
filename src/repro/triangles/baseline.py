"""CPZ-style degeneracy-ordered baseline for the triangle workload.

Chang–Pettie–Zhang enumerate triangles in Õ(√n) CONGEST rounds by peeling
the graph into a low-arboricity part (handled by having every vertex
announce its forward edges along the degeneracy order) plus an expander
part — the result Theorem 2 of Chang–Saranurak improves to Õ(n^{1/3}) by
replacing the generic routing with expander routing over the
decomposition.  This module is the comparison point: the same degeneracy
orientation the paper's baseline builds on
(:func:`repro.graphs.metrics.degeneracy_order` /
:func:`repro.graphs.metrics.degeneracy`), run centrally, with the
repository's reference round accounting so benchmarks can put the two
headline bounds side by side.

Charging convention (documented, like the centralized Nibble charging
Lemma 9's leading terms): the peeling pass costs ⌈log₂ n⌉ rounds per
announcement wave with the degeneracy as the per-vertex bandwidth bound,
the enumeration pass costs the ⌈√n⌉ headline with the examined forward
wedges as message volume.  The *output* is exact regardless — identical to
:func:`repro.triangles.oriented_triangles`, which benchmarks assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..graphs.graph import Graph
from ..graphs.metrics import degeneracy_order
from ..utils.rounds import RoundReport
from .oriented import forward_wedge_count, oriented_triangles


@dataclass
class BaselineResult:
    """Output of the CPZ-style baseline: exact triangles plus accounting."""

    triangles: frozenset
    degeneracy: int
    wedges_examined: int
    report: RoundReport = field(default_factory=lambda: RoundReport("cpz_baseline"))

    @property
    def count(self) -> int:
        """Number of triangles enumerated."""
        return len(self.triangles)


def cpz_baseline_enumeration(graph: Graph) -> BaselineResult:
    """Enumerate all triangles with the degeneracy-ordered baseline.

    Computes the canonical degeneracy order, orients every edge forward
    along it, and closes the forward wedges — the low-arboricity half of
    CPZ run on the whole graph, with the vectorized oriented enumerator.

    The attached :class:`~repro.utils.rounds.RoundReport` charges the
    reference costs described in the module docstring; compare its
    ``total_rounds`` with the Theorem 2 pipeline's
    (:func:`repro.triangles.decomposition_triangle_enumeration`) to see the
    √n-vs-n^{1/3} gap the paper closes.
    """
    report = RoundReport("cpz_baseline")
    order, degen = degeneracy_order(graph)
    n = max(graph.num_vertices, 2)
    peel_report = report.subreport("degeneracy_peeling")
    peel_report.charge(max(1.0, degen * math.ceil(math.log2(n))), messages=graph.num_edges)
    wedges = forward_wedge_count(graph, order=order)
    triangles = oriented_triangles(graph, order=order)
    enum_report = report.subreport("oriented_enumeration")
    enum_report.charge(max(1.0, math.ceil(math.sqrt(n))), messages=wedges)
    return BaselineResult(
        triangles=frozenset(triangles),
        degeneracy=degen,
        wedges_examined=wedges,
        report=report,
    )
