"""Self-loop aware undirected graph used throughout the reproduction.

The paper (Chang & Saranurak, PODC 2019) works with graphs ``G{S}`` obtained
from an induced subgraph ``G[S]`` by adding ``deg_V(v) - deg_S(v)`` self loops
at each vertex ``v``.  Every self loop contributes exactly ``1`` to the degree
of its endpoint (following Spielman & Srivastava), so the degree of each vertex
of ``S`` is the same in ``G`` and in ``G{S}``.  That degree-preservation is
load-bearing for the conductance accounting of the whole algorithm, so the
graph data structure has first-class support for self loops.

The class is intentionally small and dependency-free: a dictionary of
adjacency sets plus a dictionary of self-loop counts.  All of the heavier
machinery (spectral estimates, generators, metrics) lives in sibling modules.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Optional

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Graph:
    """An undirected graph with integer self-loop multiplicities.

    Parameters
    ----------
    vertices:
        Optional iterable of vertices to add up front.
    edges:
        Optional iterable of ``(u, v)`` pairs.  ``u == v`` adds a self loop.

    Notes
    -----
    * Degrees follow the paper's convention: every self loop adds ``1`` to the
      degree of its endpoint.
    * ``num_edges`` counts only proper (non-loop) edges; ``volume`` counts
      degree mass and therefore includes self loops.
    """

    __slots__ = ("_adj", "_loops", "_num_edges")

    def __init__(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._loops: dict[Vertex, int] = {}
        self._num_edges = 0
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()
            self._loops[v] = 0

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``.

        A repeated proper edge is ignored (the graph is simple apart from self
        loops).  ``u == v`` increments the self-loop count at ``u``.
        """
        self.add_vertex(u)
        self.add_vertex(v)
        if u == v:
            self._loops[u] += 1
            return
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1

    def add_self_loops(self, v: Vertex, count: int) -> None:
        """Add ``count`` self loops at ``v`` (each contributing 1 to its degree)."""
        if count < 0:
            raise ValueError("self loop count must be non-negative")
        self.add_vertex(v)
        self._loops[v] += count

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the proper edge ``{u, v}``; raises ``KeyError`` if absent."""
        if u == v:
            if self._loops.get(u, 0) <= 0:
                raise KeyError(f"no self loop at {u!r}")
            self._loops[u] -= 1
            return
        if v not in self._adj.get(u, set()):
            raise KeyError(f"edge {{{u!r}, {v!r}}} not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def remove_edge_with_loops(self, u: Vertex, v: Vertex) -> None:
        """Remove ``{u, v}`` and add one compensating self loop at each endpoint.

        This is the ``Remove-j`` operation of the paper's Section 2: removals
        never change any vertex degree.  A self loop (``u == v``) contributes
        1 to its endpoint's degree, so removing it is compensated by exactly
        *one* new loop — i.e. a degree-preserving no-op — not one per
        "endpoint", which would inflate the degree by 1.
        """
        self.remove_edge(u, v)
        self._loops[u] += 1
        if u != v:
            self._loops[v] += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and every incident edge."""
        if v not in self._adj:
            raise KeyError(f"vertex {v!r} not in graph")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        del self._loops[v]

    def copy(self) -> "Graph":
        """Return an independent deep copy."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._loops = dict(self._loops)
        g._num_edges = self._num_edges
        return g

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of proper (non-loop) edges."""
        return self._num_edges

    @property
    def num_self_loops(self) -> int:
        """Total self-loop multiplicity over all vertices."""
        return sum(self._loops.values())

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over proper edges, each reported once."""
        seen: set[frozenset] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the proper edge ``{u, v}`` is present."""
        if u == v:
            return self._loops.get(u, 0) > 0
        return v in self._adj.get(u, set())

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """Return the set of neighbors of ``v`` (self excluded)."""
        return set(self._adj[v])

    def self_loops(self, v: Vertex) -> int:
        """Self-loop multiplicity at ``v``."""
        return self._loops[v]

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``: proper neighbors plus self-loop multiplicity."""
        return len(self._adj[v]) + self._loops[v]

    def proper_degree(self, v: Vertex) -> int:
        """Number of proper edges incident to ``v`` (self loops excluded)."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree over all vertices (0 for the empty graph)."""
        return max((self.degree(v) for v in self._adj), default=0)

    # ------------------------------------------------------------------
    # volumes and cuts (paper Section 1, Terminology)
    # ------------------------------------------------------------------
    def volume(self, vertices: Optional[Iterable[Vertex]] = None) -> int:
        """Vol(S) = sum of degrees over ``vertices`` (all vertices if ``None``)."""
        if vertices is None:
            return sum(self.degree(v) for v in self._adj)
        return sum(self.degree(v) for v in vertices)

    def total_volume(self) -> int:
        """Vol(V), i.e. ``2 * num_edges + num_self_loops``."""
        return 2 * self._num_edges + self.num_self_loops

    def cut_edges(self, subset: Iterable[Vertex]) -> list[Edge]:
        """Return ∂(S): proper edges with exactly one endpoint in ``subset``."""
        inside = set(subset)
        boundary = []
        for u in inside:
            if u not in self._adj:
                raise KeyError(f"vertex {u!r} not in graph")
            for v in self._adj[u]:
                if v not in inside:
                    boundary.append((u, v))
        return boundary

    def cut_size(self, subset: Iterable[Vertex]) -> int:
        """Return |∂(S)|."""
        inside = set(subset)
        count = 0
        for u in inside:
            for v in self._adj[u]:
                if v not in inside:
                    count += 1
        return count

    def edges_within(self, subset: Iterable[Vertex]) -> list[Edge]:
        """Return E(S): proper edges with both endpoints in ``subset``.

        Deduplication uses a seen-set of frozensets, which only requires the
        vertices to be hashable — mixed or unorderable vertex types are fine.
        """
        inside = set(subset)
        out: list[Edge] = []
        seen: set[frozenset] = set()
        for u in inside:
            for v in self._adj[u]:
                if v in inside:
                    key = frozenset((u, v))
                    if key not in seen:
                        seen.add(key)
                        out.append((u, v))
        return out

    def prefix_cut_profile(
        self, order: Sequence[Vertex]
    ) -> tuple[list[int], list[int]]:
        """Incremental cut/volume statistics of the prefixes of ``order``.

        Returns ``(prefix_volume, prefix_cut)`` indexed by prefix length
        (index 0 is the empty prefix): ``prefix_volume[j] = Vol(order[:j])``
        and ``prefix_cut[j] = |∂(order[:j])|``, in one pass over the
        adjacency of the ordered vertices.  This is the scan shared by the
        Nibble sweep and the spectral sweep cut.
        """
        adj = self._adj
        loops = self._loops
        prefix_volume = [0]
        prefix_cut = [0]
        inside: set[Vertex] = set()
        vol = 0
        cut = 0
        for v in order:
            neighbors = adj[v]
            vol += len(neighbors) + loops[v]
            for u in neighbors:
                if u in inside:
                    cut -= 1
                else:
                    cut += 1
            inside.add(v)
            prefix_volume.append(vol)
            prefix_cut.append(cut)
        return prefix_volume, prefix_cut

    def conductance_of_cut(self, subset: Iterable[Vertex]) -> float:
        """Φ(S) = |∂(S)| / min{Vol(S), Vol(S̄)} (``inf`` when a side is empty)."""
        inside = set(subset)
        vol_s = self.volume(inside)
        vol_rest = self.total_volume() - vol_s
        denom = min(vol_s, vol_rest)
        if denom == 0:
            return float("inf")
        return self.cut_size(inside) / denom

    def balance_of_cut(self, subset: Iterable[Vertex]) -> float:
        """bal(S) = min{Vol(S), Vol(S̄)} / Vol(V) (0 for the empty graph)."""
        total = self.total_volume()
        if total == 0:
            return 0.0
        vol_s = self.volume(set(subset))
        return min(vol_s, total - vol_s) / total

    # ------------------------------------------------------------------
    # induced subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, subset: Iterable[Vertex]) -> "Graph":
        """Return ``G[S]``: the plain induced subgraph (self loops of S kept)."""
        inside = set(subset)
        g = Graph()
        for v in inside:
            if v not in self._adj:
                raise KeyError(f"vertex {v!r} not in graph")
            g.add_vertex(v)
            g._loops[v] = self._loops[v]
        for u in inside:
            for v in self._adj[u]:
                if v in inside:
                    g.add_edge(u, v)
        return g

    def induced_with_loops(self, subset: Iterable[Vertex]) -> "Graph":
        """Return ``G{S}``: induced subgraph with degree-preserving self loops.

        Every vertex ``v ∈ S`` receives ``deg_G(v) - deg_{G[S]}(v)`` additional
        self loops so its degree matches its degree in the host graph.
        """
        inside = set(subset)
        g = self.induced_subgraph(inside)
        for v in inside:
            deficit = self.degree(v) - g.degree(v)
            if deficit:
                g.add_self_loops(v, deficit)
        return g

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def bfs_distances(
        self, source: Vertex, max_distance: Optional[int] = None
    ) -> dict[Vertex, int]:
        """Breadth-first distances from ``source`` (optionally capped)."""
        if source not in self._adj:
            raise KeyError(f"vertex {source!r} not in graph")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if max_distance is not None and dist[u] >= max_distance:
                continue
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def connected_components(self) -> list[set[Vertex]]:
        """Return the list of connected components (as vertex sets)."""
        remaining = set(self._adj)
        components = []
        while remaining:
            start = next(iter(remaining))
            comp = set(self.bfs_distances(start))
            components.append(comp)
            remaining -= comp
        return components

    def diameter(self) -> int:
        """Exact diameter of the graph (``-1`` if disconnected or empty)."""
        if not self._adj:
            return -1
        n = len(self._adj)
        best = 0
        for v in self._adj:
            dist = self.bfs_distances(v)
            if len(dist) != n:
                return -1
            best = max(best, max(dist.values()))
        return best

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.MultiGraph` (self loops preserved)."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        for v, count in self._loops.items():
            for _ in range(count):
                g.add_edge(v, v)
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build from any networkx graph (parallel proper edges collapse)."""
        g = cls()
        for v in nx_graph.nodes():
            g.add_vertex(v)
        for u, v in nx_graph.edges():
            g.add_edge(u, v)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(n={self.num_vertices}, m={self.num_edges}, "
            f"loops={self.num_self_loops})"
        )
