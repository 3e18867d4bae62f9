"""Graph-quality metrics from the paper's terminology section.

Exact (exponential) computations are provided for small graphs so tests can
certify algorithm output against ground truth; estimators based on the lazy
random walk / spectral gap cover the larger graphs used in benchmarks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, Vertex

#: Largest vertex count for which exact (2^{n-1}-cut) enumeration is used.
#: ``graph_conductance_exact`` / ``most_balanced_sparse_cut_exact`` refuse
#: larger inputs, and the spectral certifiers fall back to sweep cuts beyond
#: it.  One constant so the exact/estimated boundary cannot drift apart again.
EXACT_ENUMERATION_LIMIT = 16


# ----------------------------------------------------------------------
# cut-level quantities (thin wrappers; the Graph methods are authoritative)
# ----------------------------------------------------------------------
def volume(graph: Graph, subset: Optional[Iterable[Vertex]] = None) -> int:
    """Vol(S) with respect to ``graph`` (whole graph if ``subset`` is None)."""
    return graph.volume(subset)


def cut_size(graph: Graph, subset: Iterable[Vertex]) -> int:
    """|∂(S)|."""
    return graph.cut_size(subset)


def conductance(graph: Graph, subset: Iterable[Vertex]) -> float:
    """Φ(S) = |∂(S)| / min{Vol(S), Vol(S̄)}."""
    return graph.conductance_of_cut(subset)


def balance(graph: Graph, subset: Iterable[Vertex]) -> float:
    """bal(S) = min{Vol(S), Vol(S̄)} / Vol(V)."""
    return graph.balance_of_cut(subset)


# ----------------------------------------------------------------------
# graph conductance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CutResult:
    """A cut together with its quality numbers."""

    subset: frozenset
    conductance: float
    balance: float
    cut_size: int

    @property
    def is_empty(self) -> bool:
        return len(self.subset) == 0


def graph_conductance_exact(graph: Graph) -> CutResult:
    """Exact Φ(G) by enumerating all 2^{n-1} cuts.

    Only feasible for ``n <= EXACT_ENUMERATION_LIMIT``; used as ground truth
    in tests.  The returned cut attains the minimum conductance.  Degenerate
    graphs (fewer than two vertices, or zero volume) report infinite
    conductance.

    Vertices are enumerated in canonical ``repr`` order so the tie-breaking
    cut is a pure function of the graph's structure, not of its dict
    insertion order — two structurally identical graphs built by different
    backends hand the decomposition the same fallback witness.
    """
    vertices = sorted(graph.vertices(), key=repr)
    n = len(vertices)
    if n < 2 or graph.total_volume() == 0:
        return CutResult(frozenset(), float("inf"), 0.0, 0)
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact conductance is exponential (n={n} > {EXACT_ENUMERATION_LIMIT}); "
            "use estimate_conductance"
        )
    anchor = vertices[0]
    rest = vertices[1:]
    best: Optional[CutResult] = None
    for r in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = set(combo) | {anchor}
            if len(subset) == n:
                continue
            phi = graph.conductance_of_cut(subset)
            if best is None or phi < best.conductance:
                best = CutResult(
                    frozenset(subset),
                    phi,
                    graph.balance_of_cut(subset),
                    graph.cut_size(subset),
                )
    assert best is not None
    return best


def most_balanced_sparse_cut_exact(graph: Graph, phi: float) -> CutResult:
    """Exact most-balanced cut among all cuts of conductance at most ``phi``.

    Exponential in n; test-only ground truth for Theorem 3's parameter ``b``.
    Returns an empty cut if no cut of conductance at most ``phi`` exists.
    """
    vertices = list(graph.vertices())
    n = len(vertices)
    if n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact most-balanced cut is exponential in n (n={n} > {EXACT_ENUMERATION_LIMIT})"
        )
    if n < 2:
        return CutResult(frozenset(), float("inf"), 0.0, 0)
    anchor = vertices[0]
    rest = vertices[1:]
    best: Optional[CutResult] = None
    for r in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = set(combo) | {anchor}
            if len(subset) == n:
                continue
            cond = graph.conductance_of_cut(subset)
            if cond > phi:
                continue
            bal = graph.balance_of_cut(subset)
            if best is None or bal > best.balance:
                best = CutResult(frozenset(subset), cond, bal, graph.cut_size(subset))
    if best is None:
        return CutResult(frozenset(), float("inf"), 0.0, 0)
    return best


def estimate_conductance(graph: Graph) -> float:
    """Conductance of the spectral sweep cut — an *upper bound* on Φ(G).

    The sweep cut over the Fiedler vector lies inside the Cheeger sandwich
    ``λ₂ / 2 <= Φ(G) <= sqrt(2 λ₂)`` and is usually an excellent estimate,
    but it is one-sided: the true Φ(G) can be up to quadratically smaller.
    """
    from .spectral import sweep_cut_conductance

    return sweep_cut_conductance(graph)


# ----------------------------------------------------------------------
# mixing time (paper Section 1: Θ(1/Φ) <= τ_mix <= Θ(log n / Φ²))
# ----------------------------------------------------------------------
def mixing_time_bounds(graph: Graph, phi: Optional[float] = None) -> tuple[float, float]:
    """Return the (lower, upper) mixing-time bounds implied by conductance.

    With ``phi`` given, both bounds use it directly.  Without it, each side
    of the interval uses the side of the Cheeger sandwich that keeps it
    valid: the sweep-cut value (an upper bound on Φ) for the ``1/Φ`` lower
    bound, and λ₂/2 (a lower bound on Φ) for the ``log(n)/Φ²`` upper bound —
    plugging the sweep value into the upper bound would shrink it below the
    true mixing time whenever the Cheeger gap is quadratic.
    """
    n = max(graph.num_vertices, 2)
    if phi is not None:
        if phi <= 0:
            return float("inf"), float("inf")
        return 1.0 / phi, math.log(n) / (phi * phi)
    from .peel import PeeledCSR
    from .spectral import fiedler_scores, sweep_cut

    view = PeeledCSR.from_graph(graph)
    if view.num_vertices < 2 or view.total_volume == 0:
        return 0.0, float("inf")
    scores, lam2 = fiedler_scores(view)  # one eigensolve serves both sides
    phi_lower = lam2 / 2.0
    phi_upper = sweep_cut(view, scores).conductance
    lower = 1.0 / phi_upper if phi_upper > 0 else float("inf")
    upper = math.log(n) / (phi_lower * phi_lower) if phi_lower > 0 else float("inf")
    return lower, upper


def estimate_mixing_time(
    graph: Graph, tolerance: float = 0.25, max_steps: int = 10_000
) -> int:
    """Empirical mixing time of the lazy random walk.

    Runs the exact power iteration of the lazy walk matrix from a worst-case
    point mass (the minimum-degree vertex) and returns the first step at which
    the total variation distance to the degree-stationary distribution drops
    below ``tolerance``.  Returns ``max_steps`` if it never does.
    """
    import numpy as np

    if graph.num_vertices == 0:
        return 0
    degrees, matrix = _lazy_walk_matrix(graph)
    total = degrees.sum()
    if total == 0:
        return 0
    stationary = degrees / total
    n = graph.num_vertices
    start = int(np.argmin(degrees))
    p = np.zeros(n)
    p[start] = 1.0
    for step in range(1, max_steps + 1):
        p = matrix @ p
        if 0.5 * np.abs(p - stationary).sum() < tolerance:
            return step
    return max_steps


def _lazy_walk_matrix(graph: Graph):
    """(degrees, column-stochastic lazy walk matrix M = (A D^{-1} + I) / 2).

    Rows and columns follow ``repr``-sorted vertex order.  A self loop at
    ``v`` keeps its share of probability at ``v``, matching the paper's
    convention that self loops count toward the degree.
    """
    import numpy as np

    vertices = sorted(graph.vertices(), key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    degrees = np.array([graph.degree(v) for v in vertices], dtype=float)
    m = np.zeros((n, n))
    for v in vertices:
        j = index[v]
        deg = graph.degree(v)
        if deg == 0:
            m[j, j] = 1.0
            continue
        m[j, j] += 0.5 + 0.5 * graph.self_loops(v) / deg
        for u in graph.neighbors(v):
            m[index[u], j] += 0.5 / deg
    return degrees, m


# ----------------------------------------------------------------------
# arboricity (used to describe the CPZ baseline's extra part)
# ----------------------------------------------------------------------
def degeneracy_order(graph: Graph) -> tuple[list[Vertex], int]:
    """Canonical degeneracy order plus the degeneracy itself.

    Repeatedly removes a vertex of minimum residual proper degree, breaking
    ties by the canonical ``repr``-sorted position (the same total order the
    CSR index map and the dict sweep use), so the order — and therefore any
    edge orientation derived from it — is identical across backends and
    runs.  Returns ``(order, degeneracy)`` where ``degeneracy`` is the
    maximum residual degree seen at removal time.

    The order is the backbone of the triangle machinery
    (:mod:`repro.triangles`): orienting each edge from earlier to later in
    this order bounds every vertex's forward degree by the degeneracy,
    which is what caps the oriented enumerator's work at O(m·degeneracy).
    O(n log n + m log n) heap-based peeling.
    """
    import heapq

    vertices = sorted(graph.vertices(), key=repr)
    pos = {v: i for i, v in enumerate(vertices)}
    remaining = {v: graph.proper_degree(v) for v in vertices}
    heap = [(remaining[v], pos[v]) for v in vertices]
    heapq.heapify(heap)
    removed: set = set()
    order: list[Vertex] = []
    best = 0
    while heap:
        d, p = heapq.heappop(heap)
        v = vertices[p]
        if v in removed or d != remaining[v]:
            continue
        removed.add(v)
        order.append(v)
        best = max(best, d)
        for u in graph.neighbors(v):
            if u not in removed:
                remaining[u] -= 1
                heapq.heappush(heap, (remaining[u], pos[u]))
    return order, best


def degeneracy(graph: Graph) -> int:
    """Degeneracy (max over the peeling order of the min remaining degree).

    Degeneracy is a 2-approximation of arboricity; we use it to measure the
    "extra part" produced by the CPZ-style baseline decomposition.  The
    peeling order itself is available from :func:`degeneracy_order`.
    """
    return degeneracy_order(graph)[1]


def densest_subgraph_density(graph: Graph) -> float:
    """Approximate maximum subgraph density via iterative peeling (Charikar 1/2-approx).

    Nash–Williams: arboricity = max over subgraphs of ⌈m_S / (n_S - 1)⌉, so
    this density estimate gives a lower bound companion to the
    degeneracy upper bound (:func:`degeneracy`).
    """
    best = 0.0
    remaining = set(graph.vertices())
    degrees = {v: graph.proper_degree(v) for v in remaining}
    edges_left = graph.num_edges
    adj = {v: set(graph.neighbors(v)) for v in remaining}
    while len(remaining) >= 2:
        best = max(best, edges_left / len(remaining))
        victim = min(remaining, key=lambda v: degrees[v])
        for u in adj[victim]:
            if u in remaining:
                degrees[u] -= 1
                adj[u].discard(victim)
                edges_left -= 1
        remaining.discard(victim)
    return best


# ----------------------------------------------------------------------
# triangle ground truth
# ----------------------------------------------------------------------
def brute_force_triangles(graph: Graph) -> set[frozenset]:
    """All triangles of the graph as frozensets of three vertices.

    The *oracle*, not the algorithm: an unoriented O(Σ_v deg(v)²) scan that
    visits every triangle three times, kept only as tiny-graph ground truth
    for the oriented enumerator (:func:`repro.triangles.oriented_triangles`)
    and therefore guarded at ``n <= EXACT_ENUMERATION_LIMIT`` like the other
    exhaustive certifiers in this module.  Every non-test path enumerates
    through :mod:`repro.triangles` instead.
    """
    if graph.num_vertices > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"brute-force triangle enumeration is a test oracle "
            f"(n={graph.num_vertices} > {EXACT_ENUMERATION_LIMIT}); "
            "use repro.triangles.oriented_triangles"
        )
    triangles: set[frozenset] = set()
    for v in graph.vertices():
        nbrs = sorted(graph.neighbors(v), key=repr)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if graph.has_edge(u, w):
                    triangles.add(frozenset((v, u, w)))
    return triangles


def triangle_count(graph: Graph) -> int:
    """Number of triangles in the graph, via the oriented enumerator.

    Delegates to :func:`repro.triangles.oriented_triangle_count` (degeneracy
    orientation + sorted-adjacency intersection, O(m·degeneracy)), so this
    stays usable at benchmark scale; the old brute-force path survives only
    as the size-guarded :func:`brute_force_triangles` oracle.
    """
    from ..triangles.oriented import oriented_triangle_count

    return oriented_triangle_count(graph)
