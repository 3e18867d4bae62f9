"""Theorem 2: triangle enumeration on top of the expander decomposition.

The paper's headline application.  Decompose the graph, let every cluster
enumerate the triangles it is responsible for, and recurse on the removed
edges:

1. Run :func:`repro.decomposition.expander_decomposition` on the working
   graph; at most ε·m inter-cluster edges are removed.
2. **Cluster stage.**  Each cluster C enumerates every triangle with at
   least one intra-cluster edge: for each edge {u, v} inside C, the wedge
   through it is closed with the working graph's full adjacency (the third
   vertex may live anywhere — in CONGEST, C's vertices know their incident
   edges, so the cluster collectively holds exactly this information and
   Theorem 2 routes it through the φ-expander in Õ(·) rounds).
3. **Recursion.**  Any triangle not found in step 2 has *all three* edges
   removed, so recursing on the removed-edge graph — ≤ ε·m edges, hence a
   geometrically shrinking instance — finds the rest.  The recursion
   bottoms out with the oriented enumerator once the working graph is tiny.

Why this is a *partition* of the triangle set (the correctness argument
``docs/TRIANGLES.md`` spells out): a triangle's vertices meet 1, 2, or 3
clusters.  Three-in-one keeps all its edges intra-cluster; 2+1 has exactly
one intra-cluster edge (clusters are disjoint, so no other pair shares
one); 1+1+1 has none — all three edges are inter-cluster and reappear at
the next level.  So each level's cluster findings are disjoint across
clusters, and disjoint from every deeper level (a found triangle has an
edge that never reaches the next level).  The implementation asserts this
partition (set size equals the sum of stage counts) and, by default,
verifies the final set against the oriented enumerator bit-for-bit.

Round accounting follows the repository convention for reference
implementations (charge the paper's leading terms): each cluster is charged
⌈Vol(C)^{1/3}⌉ rounds — Theorem 2's Õ(n^{1/3}) routing budget — with its
examined wedge count as message volume, clusters combine via
:func:`repro.utils.rounds.parallel_rounds`, recursion levels add
sequentially, and the decomposition's own report is folded in.  The
CPZ-style baseline (:mod:`repro.triangles.baseline`) charges its ⌈√n⌉
headline instead, which is what makes the paper's Õ-comparison visible in
``BENCH_decomposition.json``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..decomposition.expander import DecompositionResult, expander_decomposition
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..graphs.metrics import degeneracy_order
from ..graphs.peel import PeeledCSR
from ..nibble.parameters import ParameterMode
from ..utils.rng import SeedLike, ensure_rng
from ..utils.rounds import RoundReport, parallel_rounds
from .oriented import forward_wedge_count, oriented_triangles

#: Working graphs with at most this many proper edges skip the decomposition
#: and enumerate directly — below it one oriented pass is cheaper than even a
#: single Nibble batch, exactly like the recursion base case of Theorem 2.
BASE_CASE_EDGE_LIMIT = 64


def _charge_cluster(report: RoundReport, volume: int, wedges: int) -> None:
    """Charge one cluster's reference cost: ⌈Vol^{1/3}⌉ rounds, wedge messages."""
    report.charge(max(1.0, math.ceil(volume ** (1.0 / 3.0))), messages=wedges)


def _cluster_triangles(
    base: CSRGraph, edge_keys: np.ndarray, indices: np.ndarray
) -> tuple[set, int]:
    """Triangles with ≥1 edge inside a cluster: masked intra-edges + closure.

    Returns ``(triangles, wedges_examined)``; the closing vertex is looked
    up in the *working graph's* full adjacency, so 2+1 triangles (one
    corner outside the cluster) are found here too.
    ``indices`` are the cluster's base indices.  Intra-cluster edges come
    from a :class:`PeeledCSR` view of the shared level snapshot; for each
    such edge the candidates are gathered from the lower-degree endpoint's
    *full* adjacency and closed with one binary search per candidate
    against ``edge_keys`` (both directions present, so no canonicalisation).
    Triple keys dedup the three-fold discovery of fully-inside triangles.
    """
    view = PeeledCSR.for_subset(base, indices)
    u, v = view.alive_edges()
    if u.size == 0:
        return set(), 0
    du = base.proper_degree[u]
    dv = base.proper_degree[v]
    src = np.where(du <= dv, u, v)
    oth = np.where(du <= dv, v, u)
    row_id, w = base.flat_adjacency(src)
    examined = int(w.size)
    if examined == 0:
        return set(), 0
    partner = oth[row_id]
    n = np.int64(base.n)
    cand = partner * n + w
    pos = np.searchsorted(edge_keys, cand)
    pos_safe = np.minimum(pos, len(edge_keys) - 1)
    ok = (w != partner) & (pos < len(edge_keys)) & (edge_keys[pos_safe] == cand)
    if not ok.any():
        return set(), examined
    a = src[row_id][ok]
    b = partner[ok]
    c = w[ok]
    tri = np.sort(np.stack((a, b, c)), axis=0)
    keys3 = (tri[0] * n + tri[1]) * n + tri[2]
    _, first_seen = np.unique(keys3, return_index=True)
    labels = base.vertices
    triangles = {
        frozenset(
            (labels[int(tri[0, i])], labels[int(tri[1, i])], labels[int(tri[2, i])])
        )
        for i in first_seen
    }
    return triangles, examined


@dataclass(frozen=True)
class TriangleLevel:
    """Per-recursion-level record of the Theorem 2 pipeline."""

    level: int
    num_vertices: int
    num_edges: int
    num_clusters: int
    triangles_found: int
    removed_edges: int
    direct: bool
    decompose_seconds: float
    enumerate_seconds: float


@dataclass
class TriangleWorkloadResult:
    """Output of :func:`decomposition_triangle_enumeration`."""

    triangles: frozenset
    levels: list[TriangleLevel]
    epsilon: float
    phi: float
    verified: bool
    report: RoundReport = field(
        default_factory=lambda: RoundReport("triangle_enumeration")
    )

    @property
    def count(self) -> int:
        """Total number of triangles enumerated."""
        return len(self.triangles)

    @property
    def num_levels(self) -> int:
        """Recursion depth actually used (number of level records)."""
        return len(self.levels)

    @property
    def cluster_triangle_count(self) -> int:
        """Triangles found by the level-0 cluster stage."""
        return self.levels[0].triangles_found if self.levels else 0

    @property
    def cross_triangle_count(self) -> int:
        """Triangles found below level 0 (≥1 level-0 removed edge each)."""
        return sum(rec.triangles_found for rec in self.levels[1:])

    @property
    def enumeration_rounds(self) -> float:
        """Rounds charged to the triangle stages alone (clusters + base cases).

        The complement of :attr:`decomposition_rounds` within
        ``report.total_rounds``; this is the Õ(n^{1/3})-shaped part the
        paper's Theorem 2 bounds, so benchmarks compare it (plus the
        decomposition investment, reported separately) against the
        baseline's ⌈√n⌉ charge.
        """
        return sum(
            node.total_rounds
            for _, node in self.report.walk()
            if node.label in ("cluster_stage", "direct_enumeration")
        )

    @property
    def decomposition_rounds(self) -> float:
        """Rounds spent building the decompositions across all levels."""
        return self.report.total_rounds - self.enumeration_rounds

    @property
    def stage_seconds(self) -> dict:
        """Aggregated wall time: decomposition vs enumeration work."""
        return {
            "decompose_s": round(sum(r.decompose_seconds for r in self.levels), 3),
            "enumerate_s": round(sum(r.enumerate_seconds for r in self.levels), 3),
        }


def decomposition_triangle_enumeration(
    graph: Graph,
    epsilon: float = 0.1,
    phi: float = 0.1,
    mode: ParameterMode = ParameterMode.PRACTICAL,
    seed: SeedLike = None,
    verify: bool = True,
    sparse_cut_kwargs: Optional[dict] = None,
    executor=None,
    workers: Optional[int] = None,
) -> TriangleWorkloadResult:
    """Enumerate every triangle of ``graph`` via Theorem 2's recursion.

    Runs the expander decomposition, has each cluster close the wedges over
    its intra-cluster edges, and recurses on the removed-edge graph (module
    docstring; ``docs/TRIANGLES.md`` for the full argument).  Termination
    is unconditional: a level either removes strictly fewer edges than its
    working graph has (so the next level is strictly smaller) or falls back
    to direct enumeration, and graphs at or below
    :data:`BASE_CASE_EDGE_LIMIT` edges enumerate directly.

    With ``verify=True`` (the default, kept on in benchmarks and tests) the
    final set is checked for exact equality against the independent
    oriented enumerator and a mismatch raises — the workload never returns
    a silently wrong answer.  Every decomposed level builds one CSR
    snapshot of its working graph: the decomposition runs on it as its
    host and the cluster stage reads it; the verification pass snapshots
    the input on its own, so the check shares no array with the pipeline.

    ``executor``/``workers`` select the execution engine for every level's
    decomposition (:mod:`repro.parallel`): ``workers`` > 1 opens one
    sharded engine amortised across all recursion levels and closed on
    return.  The engine never reaches an output — sharded and sequential
    queries return identical triangle sets.
    """
    from ..parallel.executor import resolve_executor

    rng = ensure_rng(seed)
    engine, owned_engine = resolve_executor(executor, workers)
    report = RoundReport("triangle_enumeration")
    triangles: set = set()
    levels: list[TriangleLevel] = []
    found_total = 0
    work = graph
    level = 0

    def _direct_level(
        level_report: RoundReport,
        remainder: Graph,
        depth: int,
        decompose_seconds: float,
    ) -> int:
        """Recursion base case: one oriented pass over what is left.

        ``decompose_seconds`` is the time of a decomposition that ran on
        this level and removed every edge (zero when none ran).
        """
        begin = time.perf_counter()
        order, _ = degeneracy_order(remainder)  # one peel serves both calls
        found = oriented_triangles(remainder, order=order)
        direct_report = level_report.subreport("direct_enumeration")
        _charge_cluster(
            direct_report,
            remainder.total_volume(),
            forward_wedge_count(remainder, order=order),
        )
        triangles.update(found)
        levels.append(
            TriangleLevel(
                level=depth,
                num_vertices=remainder.num_vertices,
                num_edges=remainder.num_edges,
                num_clusters=0,
                triangles_found=len(found),
                removed_edges=0,
                direct=True,
                decompose_seconds=round(decompose_seconds, 6),
                enumerate_seconds=round(time.perf_counter() - begin, 6),
            )
        )
        return len(found)

    try:
        while work.num_edges > 0:
            level_report = report.subreport(f"level {level} (m={work.num_edges})")

            if work.num_edges <= BASE_CASE_EDGE_LIMIT:
                found_total += _direct_level(level_report, work, level, 0.0)
                break

            begin = time.perf_counter()
            snapshot = CSRGraph.from_graph(work)
            decomposition = expander_decomposition(
                snapshot,
                epsilon=epsilon,
                phi=phi,
                mode=mode,
                seed=rng,
                sparse_cut_kwargs=sparse_cut_kwargs,
                executor=engine,
            )
            decompose_seconds = time.perf_counter() - begin
            level_report.add_child(decomposition.report)

            removed = decomposition.cut_edges
            if len(removed) >= work.num_edges:
                # Degenerate decomposition (everything removed): no cluster has
                # an edge, so recursing would loop on the same instance forever.
                found_total += _direct_level(
                    level_report, work, level, decompose_seconds
                )
                break

            begin = time.perf_counter()
            found_here = _enumerate_clusters(snapshot, decomposition, level_report)
            triangles.update(found_here)
            found_total += len(found_here)
            levels.append(
                TriangleLevel(
                    level=level,
                    num_vertices=work.num_vertices,
                    num_edges=work.num_edges,
                    num_clusters=decomposition.num_components,
                    triangles_found=len(found_here),
                    removed_edges=len(removed),
                    direct=False,
                    decompose_seconds=round(decompose_seconds, 6),
                    enumerate_seconds=round(time.perf_counter() - begin, 6),
                )
            )
            work = Graph(edges=removed)
            level += 1
    finally:
        if owned_engine:
            engine.close()

    if found_total != len(triangles):
        raise AssertionError(
            "triangle stages were not disjoint: "
            f"{found_total} found vs {len(triangles)} distinct"
        )
    verified = False
    if verify:
        expected = oriented_triangles(graph)
        if triangles != expected:
            missing = len(expected - triangles)
            extra = len(triangles - expected)
            raise AssertionError(
                f"decomposition enumeration disagrees with the oriented "
                f"enumerator: {missing} missing, {extra} spurious"
            )
        verified = True
    return TriangleWorkloadResult(
        triangles=frozenset(triangles),
        levels=levels,
        epsilon=epsilon,
        phi=phi,
        verified=verified,
        report=report,
    )


def _enumerate_clusters(
    base: CSRGraph,
    decomposition: DecompositionResult,
    level_report: RoundReport,
) -> set:
    """The cluster stage of one level, on the snapshot it was decomposed on.

    Every cluster is a masked view of ``base`` and closes its wedges
    against the shared sorted edge-key array (memoised on the snapshot, so
    it is built once per level rather than per cluster).  Cluster reports
    are combined with :func:`parallel_rounds` — in CONGEST the clusters are
    vertex-disjoint and run simultaneously.
    """
    found: set = set()
    cluster_reports: list[RoundReport] = []
    edge_keys = base.directed_edge_keys()
    for i, component in enumerate(decomposition.components):
        idx = np.asarray(
            sorted(base.index[v] for v in component.vertices), dtype=np.int64
        )
        tris, wedges = _cluster_triangles(base, edge_keys, idx)
        found |= tris
        cluster_report = RoundReport(f"cluster {i} (n={len(component)})")
        _charge_cluster(cluster_report, int(base.degree[idx].sum()), wedges)
        cluster_reports.append(cluster_report)
    level_report.add_child(parallel_rounds(cluster_reports, label="cluster_stage"))
    return found
