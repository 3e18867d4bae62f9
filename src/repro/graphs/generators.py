"""Synthetic graph families used in tests, examples, and benchmarks.

The paper evaluates nothing empirically, so all experiments in this
reproduction run on synthetic families with *known* structure:

* random regular graphs — high conductance w.h.p., the canonical expander;
* barbell / bridged expanders — a single planted sparse cut with controllable
  balance, the worst case for naive sparse-cut algorithms;
* ring of cliques and planted partitions — graphs whose ideal expander
  decomposition is known by construction;
* paths, cycles, grids, hypercubes, complete graphs, Erdős–Rényi graphs —
  reference points for the low-diameter decomposition and triangle workloads.

Every generator takes a ``seed`` (or an already-constructed
:class:`numpy.random.Generator`) so experiments are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .graph import Graph

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    """Normalise a seed-like value into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# deterministic families
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Path on vertices ``0 .. n-1``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle on vertices ``0 .. n-1`` (requires n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    g = Graph(vertices=range(n))
    for u, v in itertools.combinations(range(n), 2):
        g.add_edge(u, v)
    return g


def star_graph(n: int) -> Graph:
    """Star with center 0 and ``n - 1`` leaves."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    g = Graph(vertices=range(n))
    for v in range(1, n):
        g.add_edge(0, v)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertices are ``(r, c)`` tuples."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative")
    g = Graph(vertices=((r, c) for r in range(rows) for c in range(cols)))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g


def hypercube_graph(dimension: int) -> Graph:
    """Boolean hypercube Q_d on ``2**dimension`` integer-labelled vertices."""
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dimension
    g = Graph(vertices=range(n))
    for v in range(n):
        for bit in range(dimension):
            u = v ^ (1 << bit)
            if u > v:
                g.add_edge(v, u)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}; left part 0..a-1, right part a..a+b-1."""
    g = Graph(vertices=range(a + b))
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def binary_tree_graph(depth: int) -> Graph:
    """Complete binary tree of the given depth (heap-indexed vertices)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = (1 << (depth + 1)) - 1
    g = Graph(vertices=range(n))
    for v in range(1, n):
        g.add_edge(v, (v - 1) // 2)
    return g


# ----------------------------------------------------------------------
# random families
# ----------------------------------------------------------------------
def erdos_renyi_graph(n: int, p: float, seed: SeedLike = None) -> Graph:
    """G(n, p) Erdős–Rényi graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = _rng(seed)
    g = Graph(vertices=range(n))
    if p == 0.0 or n < 2:
        return g
    # Vectorised sampling of the upper triangle keeps this usable at n ~ 2000.
    upper = np.triu_indices(n, k=1)
    mask = rng.random(len(upper[0])) < p
    for u, v in zip(upper[0][mask], upper[1][mask]):
        g.add_edge(int(u), int(v))
    return g


def random_regular_graph(n: int, degree: int, seed: SeedLike = None) -> Graph:
    """Random ``degree``-regular graph via repeated configuration-model trials.

    Random regular graphs are expanders w.h.p.; they are the positive examples
    for conductance certification and the substrate for routing experiments.
    """
    if n * degree % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree >= n:
        raise ValueError("degree must be less than n")
    rng = _rng(seed)
    for _ in range(200):
        stubs = np.repeat(np.arange(n), degree)
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v or frozenset((u, v)) in edges:
                ok = False
                break
            edges.add(frozenset((u, v)))
        if ok:
            g = Graph(vertices=range(n))
            for e in edges:
                u, v = tuple(e)
                g.add_edge(u, v)
            return g
    # Fall back to networkx's more careful sampler if rejection keeps failing.
    import networkx as nx

    nx_seed = int(rng.integers(0, 2**31 - 1))
    return Graph.from_networkx(nx.random_regular_graph(degree, n, seed=nx_seed))


def barbell_expanders(
    n_per_side: int,
    degree: int = 8,
    bridge_edges: int = 1,
    seed: SeedLike = None,
) -> Graph:
    """Two random regular expanders joined by ``bridge_edges`` bridge edges.

    The bridge is the unique sparse cut; its conductance is roughly
    ``bridge_edges / (n_per_side * degree)`` and its balance is 1/2, making
    this the canonical positive instance for the nearly most balanced sparse
    cut algorithm (Theorem 3).

    All ``bridge_edges`` bridges are distinct edges: endpoint pairs that
    would repeat once ``i % n_per_side`` wraps are shifted to the next free
    right-side vertex (deterministically, no RNG draw), so the planted cut
    really has the declared size.  Requires
    ``bridge_edges <= n_per_side**2``.
    """
    if bridge_edges > n_per_side * n_per_side:
        raise ValueError("bridge_edges exceeds the number of distinct cross pairs")
    rng = _rng(seed)
    left = random_regular_graph(n_per_side, degree, rng)
    g = Graph()
    for v in left.vertices():
        g.add_vertex(("L", v))
    for u, v in left.edges():
        g.add_edge(("L", u), ("L", v))
    right = random_regular_graph(n_per_side, degree, rng)
    for v in right.vertices():
        g.add_vertex(("R", v))
    for u, v in right.edges():
        g.add_edge(("R", u), ("R", v))
    seen: set[tuple[int, int]] = set()
    for i in range(bridge_edges):
        left_i = i % n_per_side
        right_i = i % n_per_side
        while (left_i, right_i) in seen:
            right_i = (right_i + 1) % n_per_side
        seen.add((left_i, right_i))
        g.add_edge(("L", left_i), ("R", right_i))
    return g


def unbalanced_bridged_expanders(
    n_small: int,
    n_large: int,
    degree: int = 8,
    bridge_edges: int = 1,
    seed: SeedLike = None,
) -> Graph:
    """Two expanders of different sizes joined by a thin bridge.

    The most balanced sparse cut has balance roughly
    ``n_small / (n_small + n_large)``; used to exercise the ``b/2`` branch of
    Theorem 3's balance guarantee.

    As in :func:`barbell_expanders`, bridges are deduplicated by shifting a
    repeated pair to the next free large-side vertex, so the planted cut has
    exactly ``bridge_edges`` edges (requires
    ``bridge_edges <= n_small * n_large``).
    """
    if bridge_edges > n_small * n_large:
        raise ValueError("bridge_edges exceeds the number of distinct cross pairs")
    rng = _rng(seed)
    degree_small = min(degree, n_small - 1)
    if n_small * degree_small % 2 == 1:
        degree_small -= 1
    if degree_small < 1:
        raise ValueError("n_small too small to build an expander side")
    small = random_regular_graph(n_small, degree_small, rng)
    large = random_regular_graph(n_large, degree, rng)
    g = Graph()
    for v in small.vertices():
        g.add_vertex(("S", v))
    for u, v in small.edges():
        g.add_edge(("S", u), ("S", v))
    for v in large.vertices():
        g.add_vertex(("B", v))
    for u, v in large.edges():
        g.add_edge(("B", u), ("B", v))
    seen: set[tuple[int, int]] = set()
    for i in range(bridge_edges):
        small_i = i % n_small
        large_i = i % n_large
        while (small_i, large_i) in seen:
            large_i = (large_i + 1) % n_large
        seen.add((small_i, large_i))
        g.add_edge(("S", small_i), ("B", large_i))
    return g


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` cliques of size ``clique_size`` joined in a ring.

    The ideal expander decomposition is "one component per clique"; the ring
    edges are the inter-component edges.  Also a dense triangle workload.
    """
    if num_cliques < 2 or clique_size < 2:
        raise ValueError("need at least 2 cliques of size at least 2")
    g = Graph()
    for c in range(num_cliques):
        members = [(c, i) for i in range(clique_size)]
        for v in members:
            g.add_vertex(v)
        for u, v in itertools.combinations(members, 2):
            g.add_edge(u, v)
    for c in range(num_cliques):
        g.add_edge((c, 0), ((c + 1) % num_cliques, 1 % clique_size))
    return g


def planted_partition_graph(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: SeedLike = None,
) -> Graph:
    """Stochastic block model with equal-size communities.

    With ``p_in >> p_out`` each community is an expander and the planted
    partition is (close to) the optimal expander decomposition.
    Vertices are ``(community, index)`` pairs.
    """
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    rng = _rng(seed)
    g = Graph()
    members = {
        c: [(c, i) for i in range(community_size)] for c in range(num_communities)
    }
    for vs in members.values():
        for v in vs:
            g.add_vertex(v)
    for c, vs in members.items():
        for u, v in itertools.combinations(vs, 2):
            if rng.random() < p_in:
                g.add_edge(u, v)
    for c1, c2 in itertools.combinations(range(num_communities), 2):
        for u in members[c1]:
            for v in members[c2]:
                if rng.random() < p_out:
                    g.add_edge(u, v)
    return g


def _power_law_stubs(
    n: int, exponent: float, seed: SeedLike, max_degree: Optional[int]
) -> np.ndarray:
    """The shuffled stub list both power-law generators pair up consecutively.

    Draws the degree sequence, applies the parity fix-up and shuffles the
    stubs — every RNG draw either generator makes.
    """
    if not exponent > 1:  # also refuses NaN, which would draw a matching
        raise ValueError(f"exponent must be a number greater than 1, got {exponent!r}")
    if max_degree is not None and max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    rng = _rng(seed)
    cap = max(2, n // 4) if max_degree is None else max_degree
    degrees = np.clip(
        np.round(rng.pareto(exponent - 1, size=n) + 1).astype(int), 1, cap
    )
    if degrees.sum() % 2 == 1:
        if max_degree is None:
            degrees[int(np.argmax(degrees))] += 1
        elif int(degrees.min()) < cap:
            degrees[int(np.argmin(degrees))] += 1
        else:
            degrees[int(np.argmax(degrees))] -= 1
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    return stubs


def power_law_graph(
    n: int,
    exponent: float = 2.5,
    seed: SeedLike = None,
    max_degree: Optional[int] = None,
) -> Graph:
    """Configuration-model-ish graph with a power-law degree sequence.

    Low-degree tails are what the CPZ baseline peels off into its
    low-arboricity part, so this family stresses the difference between the
    paper's decomposition and the baseline.

    ``exponent`` must be greater than 1 (``ValueError`` otherwise, NaN
    included).  ``max_degree`` caps the drawn degree sequence (the
    degree-skew axis of the world sweep).  With an explicit cap, the parity
    fix-up bumps the minimum-degree vertex (or drops a stub when every
    vertex sits at the cap), so no realized degree ever exceeds
    ``max_degree``.  Without it the historical behavior is preserved
    bit-for-bit: the implicit cap is ``max(2, n // 4)`` and the parity bump
    goes to the maximum-degree vertex, which may exceed that implicit cap
    by one.
    """
    stubs = _power_law_stubs(n, exponent, seed, max_degree)
    g = Graph(vertices=range(n))
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u != v:
            g.add_edge(u, v)
    return g


def power_law_csr(
    n: int,
    exponent: float = 2.5,
    seed: SeedLike = None,
    max_degree: Optional[int] = None,
) -> "CSRGraph":
    """:func:`power_law_graph` built straight into a CSR snapshot.

    Same RNG recipe, draw for draw (degree sequence, parity fix-up, stub
    shuffle, consecutive pairing, self-pairs dropped, parallel pairs
    collapsed), so for any seed the edge *set* equals the dict generator's
    — ``tests`` pin ``to_graph()`` equality — but the construction is pure
    numpy: no Python per-edge loop and no dict graph, which is what makes
    ~10⁷-edge instances buildable in seconds for the ``--xl`` benchmark.

    The rows come from one sort.  Each proper pair ``{u, v}`` contributes
    the composite keys ``u·n + v`` and ``v·n + u``, and sorting the 2m
    keys orders them by row and, within a row, by neighbour.  A parallel
    pair repeats both of its keys, so an adjacent-difference mask
    collapses it.  ``key // n`` and ``key − row·n`` give each entry's row
    and neighbour, and ``indptr`` is the running sum of the rows' counts.
    ``tests/test_power_law_snapshot.py`` pins the arrays' bytes.

    The one deliberate difference: vertices are indexed in *numeric* order
    (labels are ``0 .. n-1``), not the ``repr``-sorted order
    :meth:`CSRGraph.from_graph` uses.  Numeric order is self-consistent for
    everything a CSR-hosted decomposition does; only the dict↔CSR
    tie-break parity depends on ``repr`` order, and a snapshot at this
    scale never has a dict twin.
    """
    from .csr import CSRGraph, choose_index_dtype

    stubs = _power_law_stubs(n, exponent, seed, max_degree)
    pairs = (len(stubs) // 2) * 2
    u = stubs[0:pairs:2].astype(np.int64)
    v = stubs[1:pairs:2].astype(np.int64)
    proper = u != v
    u, v = u[proper], v[proper]
    width = np.int64(n)
    keys = np.sort(np.concatenate((u * width + v, v * width + u)))
    if len(keys):
        fresh = np.empty(len(keys), dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
    rows = keys // width
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    dtype = choose_index_dtype(n, len(keys))
    return CSRGraph(
        indptr=indptr.astype(dtype, copy=False),
        indices=(keys - rows * width).astype(dtype, copy=False),
        loops=np.zeros(n, dtype=np.int64),
        vertices=list(range(n)),
    )


def dumbbell_cliques(clique_size: int, path_length: int) -> Graph:
    """Two cliques connected by a path of the given length.

    A classic low-conductance instance whose sparse cut is extremely
    unbalanced in *vertices* but balanced in *volume*.
    """
    g = Graph()
    left = [("L", i) for i in range(clique_size)]
    right = [("R", i) for i in range(clique_size)]
    for group in (left, right):
        for v in group:
            g.add_vertex(v)
        for u, v in itertools.combinations(group, 2):
            g.add_edge(u, v)
    prev = left[0]
    for i in range(path_length):
        node = ("P", i)
        g.add_vertex(node)
        g.add_edge(prev, node)
        prev = node
    g.add_edge(prev, right[0])
    return g


def disjoint_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Disjoint union of cliques (a graph that is already decomposed)."""
    g = Graph()
    for c in range(num_cliques):
        members = [(c, i) for i in range(clique_size)]
        for v in members:
            g.add_vertex(v)
        for u, v in itertools.combinations(members, 2):
            g.add_edge(u, v)
    return g


def triangle_rich_graph(n: int, p: float = 0.3, seed: SeedLike = None) -> Graph:
    """Erdős–Rényi graph with extra planted triangles.

    Guarantees a known set of planted triangles (each on a random vertex
    triple whose three edges are forced present) so enumeration tests can
    assert specific triangles are reported.

    Expected triangle density: the G(n, p) background alone contributes
    C(n, 3)·p³ triangles in expectation — ≈ n³p³/6, i.e. ~154 at the
    default ``n=60, p=0.3`` — on top of which ``max(1, n // 10)`` triples
    are planted (closing a planted edge can create further incidental
    triangles, so the plant count is a lower bound on the surplus).  At the
    default ``p`` the family is therefore *dense* in triangles relative to
    its ≈ n²p/2 edges: about 0.85 triangles per edge at n=60, growing
    linearly with n — which is exactly what the enumeration workloads want
    to stress, in contrast to the triangle-free ring bridges of
    :func:`ring_of_cliques`.

    Requires ``n >= 3``: planting a triangle needs three distinct vertices
    (smaller n used to crash inside the random triple draw).
    """
    if n < 3:
        raise ValueError("triangle_rich_graph needs at least 3 vertices")
    rng = _rng(seed)
    g = erdos_renyi_graph(n, p, rng)
    planted = max(1, n // 10)
    vertices = list(range(n))
    for _ in range(planted):
        a, b, c = (int(x) for x in rng.choice(vertices, size=3, replace=False))
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.add_edge(a, c)
    return g


# ----------------------------------------------------------------------
# metadata-returning variants (ground truth for the world sweep)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlantedStructure:
    """Ground truth emitted alongside a generated graph.

    The world sweep (:mod:`repro.worlds`) scores decompositions against
    this: ``communities`` is the planted partition (``None`` for families
    with no planted structure, e.g. power-law graphs), and
    ``planted_cut_conductance`` is the worst (largest) conductance over the
    planted communities measured *exactly on the realized graph* — the
    sparsity level a decomposition must detect to recover the structure
    (``None`` when undefined, e.g. a single community).
    """

    family: str
    params: dict
    communities: Optional[tuple[frozenset, ...]]
    planted_cut_conductance: Optional[float]

    @property
    def num_communities(self) -> int:
        """Number of planted communities (0 when there is no planted truth)."""
        return len(self.communities) if self.communities else 0


def _planted_conductance(graph: Graph, communities: Sequence[frozenset]) -> Optional[float]:
    """Worst planted-community conductance, exactly, or ``None`` if degenerate."""
    values = [graph.conductance_of_cut(c) for c in communities]
    finite = [v for v in values if v != float("inf")]
    if len(finite) != len(values) or not finite:
        return None
    return max(finite)


def planted_partition_with_metadata(
    num_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: SeedLike = None,
) -> tuple[Graph, PlantedStructure]:
    """:func:`planted_partition_graph` plus its planted ground truth.

    The graph is bit-identical to the plain generator for the same seed;
    the metadata lists each community's vertex set and the exact worst
    planted-community conductance of the realized draw.
    """
    g = planted_partition_graph(num_communities, community_size, p_in, p_out, seed)
    communities = tuple(
        frozenset((c, i) for i in range(community_size))
        for c in range(num_communities)
    )
    return g, PlantedStructure(
        family="planted_partition",
        params={
            "num_communities": num_communities,
            "community_size": community_size,
            "p_in": p_in,
            "p_out": p_out,
        },
        communities=communities,
        planted_cut_conductance=_planted_conductance(g, communities),
    )


def ring_of_cliques_with_metadata(
    num_cliques: int, clique_size: int
) -> tuple[Graph, PlantedStructure]:
    """:func:`ring_of_cliques` plus its planted ground truth (one community per clique)."""
    g = ring_of_cliques(num_cliques, clique_size)
    communities = tuple(
        frozenset((c, i) for i in range(clique_size)) for c in range(num_cliques)
    )
    return g, PlantedStructure(
        family="ring_of_cliques",
        params={"num_cliques": num_cliques, "clique_size": clique_size},
        communities=communities,
        planted_cut_conductance=_planted_conductance(g, communities),
    )


def barbell_expanders_with_metadata(
    n_per_side: int,
    degree: int = 8,
    bridge_edges: int = 1,
    seed: SeedLike = None,
) -> tuple[Graph, PlantedStructure]:
    """:func:`barbell_expanders` plus its planted ground truth (the two sides)."""
    g = barbell_expanders(n_per_side, degree, bridge_edges, seed)
    communities = (
        frozenset(("L", v) for v in range(n_per_side)),
        frozenset(("R", v) for v in range(n_per_side)),
    )
    return g, PlantedStructure(
        family="barbell_expanders",
        params={
            "n_per_side": n_per_side,
            "degree": degree,
            "bridge_edges": bridge_edges,
        },
        communities=communities,
        planted_cut_conductance=_planted_conductance(g, communities),
    )


def power_law_with_metadata(
    n: int,
    exponent: float = 2.5,
    seed: SeedLike = None,
    max_degree: Optional[int] = None,
) -> tuple[Graph, PlantedStructure]:
    """:func:`power_law_graph` plus metadata (no planted communities).

    Power-law draws have no planted partition, so ``communities`` is
    ``None`` — recall is undefined for this family and the sweep records it
    as such instead of inventing a truth.
    """
    g = power_law_graph(n, exponent, seed, max_degree=max_degree)
    return g, PlantedStructure(
        family="power_law",
        params={"n": n, "exponent": exponent, "max_degree": max_degree},
        communities=None,
        planted_cut_conductance=None,
    )


def union_of_expanders_with_metadata(
    num_parts: int,
    part_size: int,
    degree: int = 4,
    bridge_edges: int = 0,
    seed: SeedLike = None,
) -> tuple[Graph, PlantedStructure]:
    """Union of random-regular expanders plus its planted ground truth.

    ``bridge_edges = 0`` is the disconnectedness extreme: the parts are the
    connected components and the ideal decomposition exactly (worst planted
    conductance 0.0).  Small positive bridge counts turn it into a sparsely
    connected multi-community instance.
    """
    rng = _rng(seed)
    parts = [random_regular_graph(part_size, degree, rng) for _ in range(num_parts)]
    g = union_of_graphs(parts, bridge_edges=bridge_edges, seed=rng)
    communities = tuple(
        frozenset((idx, v) for v in range(part_size)) for idx in range(num_parts)
    )
    return g, PlantedStructure(
        family="union_of_expanders",
        params={
            "num_parts": num_parts,
            "part_size": part_size,
            "degree": degree,
            "bridge_edges": bridge_edges,
        },
        communities=communities,
        planted_cut_conductance=_planted_conductance(g, communities),
    )


def union_of_graphs(graphs: Sequence[Graph], bridge_edges: int = 0,
                    seed: SeedLike = None) -> Graph:
    """Disjoint union of graphs, optionally connected by random bridges.

    Vertices are relabelled to ``(index_of_graph, original_vertex)``.
    """
    rng = _rng(seed)
    g = Graph()
    for idx, sub in enumerate(graphs):
        for v in sub.vertices():
            g.add_vertex((idx, v))
        for u, v in sub.edges():
            g.add_edge((idx, u), (idx, v))
    if bridge_edges and len(graphs) > 1:
        parts = [[(i, v) for v in sub.vertices()] for i, sub in enumerate(graphs)]
        for _ in range(bridge_edges):
            i, j = rng.choice(len(graphs), size=2, replace=False)
            u = parts[int(i)][int(rng.integers(len(parts[int(i)])))]
            v = parts[int(j)][int(rng.integers(len(parts[int(j)])))]
            g.add_edge(u, v)
    return g
