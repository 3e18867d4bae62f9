"""Incremental peeling layer over :class:`~repro.graphs.csr.CSRGraph`.

PR 2 vectorized the *read-only* hot path (walk / truncate / sweep), but the
mutable side of the decomposition — Theorem 3's Remove-j loop and the
``G{U}`` re-snapshotting between recursion levels — still rebuilt a dict
``Graph`` (and then a fresh ``CSRGraph``) after every found cut.  This
module removes that rebuild: a :class:`PeeledCSR` is one immutable CSR
snapshot plus

* an ``alive`` boolean vertex mask,
* a per-vertex *residual* proper-degree array (``proper_degree[v]`` =
  number of alive neighbors of ``v``), and
* a per-vertex residual self-loop array (``loops[v]`` = original loops
  plus one compensating loop per peeled neighbor),

so removing a certified cut is an O(Vol(cut)) masked update
(:meth:`PeeledCSR.peel`) instead of an O(n + m) graph rebuild — the same
peeling idea Spielman–Teng's Partition uses to reach its near-linear bound.

Degree preservation is the load-bearing invariant.  For every alive vertex

    proper_degree[v] + loops[v] == base.degree[v]           (INV-1)

holds at all times, because :meth:`PeeledCSR.peel` converts each
alive-to-peeled edge into a compensating self loop at the alive endpoint —
exactly the paper's degree-preserving Remove-j operation
(:meth:`repro.graphs.graph.Graph.remove_edge_with_loops` followed by
:meth:`~repro.graphs.graph.Graph.remove_vertex`).  Consequently a view with
alive set ``S`` is *structurally identical* to ``Graph.induced_with_loops(S)``
of the snapshotted graph: same proper edges, same degrees, and
``loops[v] = loops_G(v) + (deg_G(v) - deg_{G[S]}(v))`` — the ``G{S}``
loop-degree identity (see ``docs/PEELING.md`` for the two-line proof).
Peeling is also *path independent*: any sequence of peels ending at alive
set ``S`` yields the same arrays as :meth:`PeeledCSR.for_subset` built for
``S`` directly, which is what lets one snapshot serve an entire recursion
branch of the expander decomposition.

The CSR walk/sweep kernel (:class:`~repro.graphs.csr.WalkWorkspace`)
touches a graph only through ``n`` / ``degree`` / ``loops`` /
``proper_degree`` / ``total_volume`` / ``vertices`` / ``index`` /
``flat_adjacency``.  :class:`PeeledCSR` exposes that exact surface with the
mask applied (``flat_adjacency`` drops edges into peeled vertices,
``degree`` is the unchanged base array per INV-1), so the *same* kernel code
runs masked, bit-for-bit equal to the dict backend on the materialised
``G{U}`` — no second kernel implementation to keep in sync.  The one check
the surface cannot provide — a peeled view's base index still contains dead
vertices — lives in :meth:`~repro.graphs.csr.WalkWorkspace.walk_iter`,
which rejects a dead start.  Any new kernel that reaches past the masked
surface (e.g. into ``base.indptr`` directly) must apply the mask itself.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from . import csr as csr_kernels
from .csr import CSRGraph
from .graph import Graph, Vertex
from ..utils.rng import sample_index_by_weight


def _sorted_unique(indices: Iterable[int]) -> np.ndarray:
    """``indices`` as a new sorted, duplicate-free int64 array.

    An array that already is one (what the decomposition passes) is
    copied after one comparison pass instead of a sort.
    """
    idx = np.array(
        indices if isinstance(indices, np.ndarray) else list(indices),
        dtype=np.int64,
    )
    if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
        idx = np.unique(idx)
    return idx


class PeeledCSR:
    """A mutable alive-subset view of one immutable :class:`CSRGraph`.

    The view starts with every vertex alive (:meth:`full`) or restricted to
    a subset (:meth:`for_subset`) and shrinks monotonically through
    :meth:`peel`.  All arrays are indexed by the *base* snapshot's vertex
    indices; dead rows are zeroed and never consulted.

    Attributes
    ----------
    base:
        The shared immutable CSR snapshot (never mutated).
    alive:
        Boolean mask over ``base`` indices.
    proper_degree:
        Residual proper degree: number of alive neighbors (0 on dead rows).
    loops:
        Residual self-loop multiplicity: base loops plus one compensating
        loop per peeled neighbor (0 on dead rows).
    total_volume:
        Vol of the alive set.  Equal to ``base.degree[alive].sum()`` by
        degree preservation (INV-1).
    num_edges:
        Number of residual proper (alive–alive) edges.

    A view made by :meth:`for_subset` keeps the subset's masked gather and
    fills ``proper_degree`` and ``loops`` — the two length-``n`` integer
    arrays — only when they are first read, so a subset that is compacted
    straight away (:func:`maybe_compact`) never builds them.
    """

    __slots__ = (
        "base",
        "alive",
        "_proper_degree",
        "_loops",
        "total_volume",
        "num_edges",
        "_ws",
        "_gather",
    )

    def __init__(
        self,
        base: CSRGraph,
        alive: np.ndarray,
        proper_degree: Optional[np.ndarray],
        loops: Optional[np.ndarray],
        total_volume: int,
        num_edges: int,
    ) -> None:
        self.base = base
        self.alive = alive
        self._proper_degree = proper_degree
        self._loops = loops
        self.total_volume = total_volume
        self.num_edges = num_edges
        self._ws = None
        #: ``(idx, row_id, flat)``: a :meth:`for_subset` view's alive
        #: indices and masked adjacency gather, until its residual arrays
        #: are built.
        self._gather: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, base: CSRGraph) -> "PeeledCSR":
        """A view of ``base`` with every vertex alive (nothing peeled yet)."""
        return cls(
            base=base,
            alive=np.ones(base.n, dtype=bool),
            proper_degree=base.proper_degree.astype(np.int64).copy(),
            loops=base.loops.astype(np.int64).copy(),
            total_volume=int(base.total_volume),
            num_edges=len(base.indices) // 2,
        )

    @classmethod
    def from_graph(cls, graph: "Graph | CSRGraph | PeeledCSR") -> "PeeledCSR":
        """The all-alive view of a dict ``Graph`` (snapshotted) or a ``CSRGraph``.

        A ``PeeledCSR`` is returned as it is (not copied): every entry point
        that normalises its input this way only reads it.
        """
        if isinstance(graph, PeeledCSR):
            return graph
        if isinstance(graph, CSRGraph):
            return cls.full(graph)
        return cls.full(CSRGraph.from_graph(graph))

    @classmethod
    def for_subset(cls, base: CSRGraph, indices: Iterable[int]) -> "PeeledCSR":
        """The view whose alive set is exactly ``indices`` (base indices).

        Structurally identical to ``G{S}`` = ``induced_with_loops`` of the
        snapshotted graph restricted to the subset: residual proper degrees
        count within-subset neighbors and every out-of-subset edge becomes a
        compensating self loop.  No dict graph is built.  The whole host is
        :meth:`full`; any other subset costs one masked adjacency gather,
        O(Vol(S)), plus the alive mask, and its residual degree arrays are
        filled on first use — :meth:`compact` does not need them.
        """
        idx = _sorted_unique(indices)
        if idx.size and (idx[0] < 0 or idx[-1] >= base.n):
            raise IndexError("subset index out of range for the base snapshot")
        if idx.size == base.n:
            return cls.full(base)
        alive = np.zeros(base.n, dtype=bool)
        alive[idx] = True
        row_id, flat = base.flat_adjacency(idx)
        if flat.size:
            keep = alive[flat]
            row_id, flat = row_id[keep], flat[keep]
        view = cls(
            base=base,
            alive=alive,
            proper_degree=None,
            loops=None,
            total_volume=int(base.degree[idx].sum()),
            num_edges=int(flat.size) // 2,
        )
        view._gather = (idx, row_id, flat)
        return view

    @property
    def proper_degree(self) -> np.ndarray:
        """Residual proper degree per base index (0 on dead rows)."""
        if self._proper_degree is None:
            self._fill_degrees()
        return self._proper_degree

    @property
    def loops(self) -> np.ndarray:
        """Residual self loops per base index (0 on dead rows)."""
        if self._loops is None:
            self._fill_degrees()
        return self._loops

    def _fill_degrees(self) -> None:
        """Build the residual arrays of a :meth:`for_subset` view (INV-1).

        The view is then used as a kernel input like any other, so its
        subset gather is let go rather than held for the view's lifetime.
        """
        idx, row_id, _ = self._gather
        counts = np.bincount(row_id, minlength=idx.size)
        proper = np.zeros(self.base.n, dtype=np.int64)
        proper[idx] = counts
        loops = np.zeros(self.base.n, dtype=np.int64)
        loops[idx] = self.base.degree[idx] - counts
        self._proper_degree, self._loops = proper, loops
        self._gather = None

    def clone(self) -> "PeeledCSR":
        """An independent copy sharing the immutable base snapshot.

        A fresh :meth:`for_subset` view is copied with its subset gather,
        which no method writes, and each copy builds its residual arrays on
        first use — so the copy's :meth:`compact` (the pre-check's) does
        not gather the subset's adjacency again.
        """
        if self._gather is not None:
            view = PeeledCSR(
                base=self.base,
                alive=self.alive.copy(),
                proper_degree=None,
                loops=None,
                total_volume=self.total_volume,
                num_edges=self.num_edges,
            )
            view._gather = self._gather
            return view
        return PeeledCSR(
            base=self.base,
            alive=self.alive.copy(),
            proper_degree=self.proper_degree.copy(),
            loops=self.loops.copy(),
            total_volume=self.total_volume,
            num_edges=self.num_edges,
        )

    # ------------------------------------------------------------------
    # the CSR kernel surface (masked)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the *base* index space (mass vectors index into it)."""
        return self.base.n

    @property
    def degree(self) -> np.ndarray:
        """Per-vertex degree — the base array, unchanged, by INV-1."""
        return self.base.degree

    @property
    def vertices(self) -> list:
        """Base vertex labels in index order (shared with the snapshot)."""
        return self.base.vertices

    @property
    def index(self) -> dict:
        """Label → base-index mapping (shared with the snapshot)."""
        return self.base.index

    @property
    def num_vertices(self) -> int:
        """Number of alive vertices."""
        if self._gather is not None:
            return int(self._gather[0].size)
        return int(np.count_nonzero(self.alive))

    def alive_indices(self) -> np.ndarray:
        """Alive base indices, ascending.

        Ascending index is ``repr`` order only on a snapshot of a dict
        graph (:meth:`CSRGraph.from_graph`); a CSR host keeps the index
        order it was built with.
        """
        if self._gather is not None:
            return self._gather[0]
        return np.flatnonzero(self.alive)

    def _alive_gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(idx, row_id, flat)``: the alive indices and their masked gather."""
        if self._gather is not None:
            return self._gather
        idx = self.alive_indices()
        return (idx, *self.flat_adjacency(idx))

    def flat_adjacency(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masked gather: like :meth:`CSRGraph.flat_adjacency`, minus dead targets.

        ``row_id`` keeps its meaning (position within ``rows``), so the walk
        and sweep kernels consume the filtered arrays unchanged; per-target
        accumulation order (ascending source index) is preserved because
        filtering never reorders.
        """
        row_id, flat = self.base.flat_adjacency(rows)
        if flat.size == 0:
            return row_id, flat
        keep = self.alive[flat]
        return row_id[keep], flat[keep]

    def neighbors(self, i: int) -> np.ndarray:
        """Alive neighbor indices of base index ``i`` (ascending)."""
        row = self.base.neighbors(i)
        return row[self.alive[row]]

    # ------------------------------------------------------------------
    # peeling (the vectorized Remove-j + vertex drop)
    # ------------------------------------------------------------------
    def peel(self, indices: Iterable[int]) -> int:
        """Peel ``indices`` out of the view; returns how many were alive.

        Equivalent to, on the materialised dict graph: Remove-j every
        boundary edge of the peeled set (remove it, add one compensating
        self loop at each endpoint) and then remove the peeled vertices —
        which cancels the peeled endpoints' compensations, leaving exactly
        one new loop per boundary edge, at the surviving endpoint.  Alive
        degrees never change (INV-1).  Cost: O(Vol(peeled)) plus an O(n)
        bincount, with no Python per-edge loop.
        """
        idx = _sorted_unique(indices)
        if idx.size:
            idx = idx[self.alive[idx]]
        if idx.size == 0:
            return 0
        proper, loops = self.proper_degree, self.loops
        # The alive mask and residual loops are kernel inputs; any cached
        # walk workspace (gather/scatter caches) or subset gather would go
        # stale with them.
        self._ws = None
        self._gather = None
        self.alive[idx] = False
        row_id, flat = self.base.flat_adjacency(idx)
        boundary = 0
        if flat.size:
            targets = flat[self.alive[flat]]  # alive survivors only
            boundary = int(targets.size)
            if boundary:
                compensation = np.bincount(targets, minlength=self.base.n)
                proper -= compensation
                loops += compensation
        # Residual proper degrees of the peeled rows still count their
        # alive-at-call-time neighbors: 2·(internal edges) + boundary.
        internal_twice = int(proper[idx].sum()) - boundary
        self.num_edges -= boundary + internal_twice // 2
        self.total_volume -= int(self.base.degree[idx].sum())
        proper[idx] = 0
        loops[idx] = 0
        return int(idx.size)

    def compact(self) -> "PeeledCSR":
        """Re-snapshot the alive set into a fresh all-alive compact view.

        Peels, start sampling, and workspace set-up cost O(base.n) no
        matter how few vertices remain alive, so once a view has shrunk
        well below its index space it pays to rebuild: this takes the
        residual alive–alive adjacency from one masked ``flat_adjacency``
        gather (the one :meth:`for_subset` already made, for a view fresh
        from it) and re-indexes it into a new :class:`CSRGraph` —
        O(Vol(alive)) numpy work, plus an O(n) scan for the alive set of a
        peeled view, no dict graph in sight.  Every gathered neighbour is
        alive, so its new index is its rank in the alive set: the ranks are
        scattered into a transient array over the base index space and the
        neighbours read theirs from it.  That array is an O(base.n)
        transient at the compact index width, 4 or 8 bytes per vertex:
        at most 16 MB on the 2·10⁶-vertex ``--xl`` host, beside the
        ≥ 160 MB of its gather.
        Residual degrees are the gather's row counts and loops make up the
        rest of each base degree (INV-1), so a fresh subset view is
        compacted without ever building its length-``n`` arrays.  The
        compact base keeps the alive labels in their old relative
        (ascending index) order, and degrees/loops carry over unchanged, so
        walks, sweeps, and cuts on the compact view are bit-identical to the
        uncompacted ones.  :func:`maybe_compact` applies the 2× shrink
        heuristic.
        """
        idx, row_id, flat = self._alive_gather()
        counts = np.bincount(row_id, minlength=idx.size)
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        dtype = csr_kernels.choose_index_dtype(idx.size, int(indptr[-1]))
        rank = np.empty(self.base.n, dtype=dtype)
        rank[idx] = np.arange(idx.size, dtype=dtype)
        labels = self.base.vertices
        base = CSRGraph(
            indptr=indptr.astype(dtype, copy=False),
            indices=rank[flat],
            loops=self.base.degree[idx] - counts,
            vertices=[labels[i] for i in idx.tolist()],
        )
        return PeeledCSR.full(base)

    def alive_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Residual proper edges as index arrays ``(u, v)`` with ``u < v``.

        Exactly the alive–alive edges of the view (each undirected edge
        once), gathered with one masked ``flat_adjacency`` pass.  This is
        the "intra-cluster edge list" primitive of the Theorem 2 triangle
        workload: a cluster's view yields the edges whose wedges the
        cluster is responsible for closing (:mod:`repro.triangles`).
        """
        idx, row_id, flat = self._alive_gather()
        if flat.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        u = idx[row_id]
        keep = u < flat
        return u[keep], flat[keep]

    # ------------------------------------------------------------------
    # masked cut / volume queries (twins of the Graph methods)
    # ------------------------------------------------------------------
    def volume(self, indices: Iterable[int]) -> int:
        """Vol of an alive index set (degree mass; loops included via INV-1).

        ``indices`` is treated as a set: duplicates count once, as in
        :meth:`Graph.volume` over a vertex set.
        """
        return int(self.base.degree[_sorted_unique(indices)].sum())

    def cut_edges(self, indices: Iterable[int]) -> list[tuple[Vertex, Vertex]]:
        """∂(S) against the alive rest, as label pairs (S-endpoint first)."""
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size == 0:
            return []
        inside = np.zeros(self.base.n, dtype=bool)
        inside[idx] = True
        row_id, flat = self.flat_adjacency(idx)
        crossing = ~inside[flat]
        labels = self.base.vertices
        return [
            (labels[int(idx[r])], labels[int(t)])
            for r, t in zip(row_id[crossing], flat[crossing])
        ]

    def cut_size(self, indices: Iterable[int]) -> int:
        """|∂(S)| against the alive rest."""
        idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.int64)
        if idx.size == 0:
            return 0
        inside = np.zeros(self.base.n, dtype=bool)
        inside[idx] = True
        row_id, flat = self.flat_adjacency(idx)
        return int(np.count_nonzero(~inside[flat]))

    def conductance_of_cut(self, indices: Iterable[int]) -> float:
        """Φ(S) = |∂(S)| / min{Vol(S), Vol(alive∖S)}; ``inf`` on empty sides."""
        idx = list(indices)
        vol_s = self.volume(idx)
        denom = min(vol_s, self.total_volume - vol_s)
        if denom == 0:
            return float("inf")
        return self.cut_size(idx) / denom

    def balance_of_cut(self, indices: Iterable[int]) -> float:
        """bal(S) = min{Vol(S), Vol(alive∖S)} / Vol(alive) (0 if volume 0)."""
        if self.total_volume == 0:
            return 0.0
        vol_s = self.volume(list(indices))
        return min(vol_s, self.total_volume - vol_s) / self.total_volume

    # ------------------------------------------------------------------
    # traversal / sampling
    # ------------------------------------------------------------------
    def connected_components(self) -> list[np.ndarray]:
        """Alive components as sorted base-index arrays, by smallest member.

        Vertices whose residual edges are all self loops come out as
        singletons, matching the dict graph's ``connected_components`` on
        the materialised ``G{U}``.  The components are found with
        whole-array passes: every vertex starts as its own root, each
        round hooks the larger root of every edge whose endpoints' roots
        differ onto the smallest root it touches, and pointer jumping then
        flattens every tree.  Roots only ever decrease, so each
        component's root ends at its smallest index, which orders the
        components.  On a dict host's snapshot that is ascending smallest
        ``repr``; the decomposition recursion sorts pieces by ``repr``
        itself, whatever the host.
        """
        idx, row_id, flat = self._alive_gather()
        if idx.size == 0:
            return []
        u = idx[row_id]
        once = u < flat
        u, v = u[once], flat[once].astype(np.int64)
        parent = np.arange(self.base.n, dtype=np.int64)
        while u.size:
            pu, pv = parent[u], parent[v]
            differ = pu != pv
            if not differ.any():
                break
            u, v, pu, pv = u[differ], v[differ], pu[differ], pv[differ]
            np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
        roots = parent[idx]
        order = np.argsort(roots, kind="stable")
        members = idx[order]
        ordered_roots = roots[order]
        starts = np.flatnonzero(ordered_roots[1:] != ordered_roots[:-1]) + 1
        return np.split(members, starts)

    def sample_start(self, rng: np.random.Generator) -> Optional[int]:
        """Degree-proportional alive start index (ψ_V), or ``None`` if empty.

        Draws over the positive-degree alive vertices in ascending index
        order with :func:`~repro.utils.rng.sample_index_by_weight`.  On a
        dict host's snapshot (:meth:`CSRGraph.from_graph`) that order is
        ``repr`` order, so the draw consumes the RNG stream exactly like the
        dict path's :func:`repro.utils.rng.sample_by_degree` over
        ``repr``-sorted vertices (same weight vector, same call), which is
        what keeps dict and peeled runs of RandomNibble in lockstep for a
        shared seed; a CSR host draws in its own index order.
        """
        idx = self.alive_indices()
        if idx.size:
            idx = idx[self.base.degree[idx] > 0]
        if idx.size == 0:
            return None
        weights = np.asarray(self.base.degree[idx], dtype=float)
        return int(idx[sample_index_by_weight(rng, weights)])

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def indices_of(self, labels: Iterable[Vertex]) -> np.ndarray:
        """Base indices of the given vertex labels, ascending."""
        index = self.base.index
        return np.asarray(sorted(index[v] for v in labels), dtype=np.int64)

    def to_graph(self) -> Graph:
        """Materialise the alive view into a dict ``Graph``.

        The result equals ``induced_with_loops(alive labels)`` of the
        snapshotted graph with every prior peel's Remove-j compensation
        applied — vertices in ascending index order.
        """
        labels = self.base.vertices
        idx = self.alive_indices()
        g = Graph(vertices=(labels[int(i)] for i in idx))
        for i in idx:
            row = self.neighbors(int(i))
            for j in row[row > i]:
                g.add_edge(labels[int(i)], labels[int(j)])
            if self.loops[i]:
                g.add_self_loops(labels[int(i)], int(self.loops[i]))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeeledCSR(alive={self.num_vertices}/{self.base.n}, "
            f"m={self.num_edges}, vol={self.total_volume})"
        )


# ----------------------------------------------------------------------
# compaction policy
# ----------------------------------------------------------------------
def maybe_compact(peel: PeeledCSR) -> PeeledCSR:
    """Compact a view once it has shrunk below half of its index space.

    The 2× rule keeps total compaction cost linear over any peeling
    sequence (a geometric series, the standard amortisation argument) while
    capping the view's length-``n`` array work at 2× the alive count.
    Returns the view unchanged when compaction wouldn't pay.
    """
    if 2 * peel.num_vertices <= peel.n:
        return peel.compact()
    return peel

