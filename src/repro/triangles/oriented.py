"""Degeneracy-oriented exact triangle enumeration (the scalable ground truth).

The classic orientation argument: fix a total order on the vertices and
orient every edge from its earlier to its later endpoint.  Each triangle
then has exactly one vertex — its *apex*, the earliest of the three — with
both of its triangle edges pointing forward, so enumerating, for every
apex, the forward-neighbor pairs that are themselves connected by a forward
edge visits every triangle **exactly once**.  With the canonical degeneracy
order (:func:`repro.graphs.metrics.degeneracy_order`) every forward degree
is at most the degeneracy, so total work is O(m·degeneracy) — the
arboricity-bounded bound of Chiba–Nishizeki, and the reason this enumerator
replaces the old unoriented brute force as the repository's triangle ground
truth at benchmark scale.

The enumerator snapshots the graph once and runs on flat arrays: it
builds the rank-sorted forward adjacency as numpy arrays, generates every
candidate pair with the same repeat/offset gather the walk kernels use,
and closes wedges with one ``searchsorted`` membership test against the
oriented edge-key array.  The result is the set of triangles, each a
``frozenset`` of three vertex labels; ``tests/test_triangles.py`` checks
it against the brute-force oracle and a forward-set reference
enumerator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph, Vertex
from ..graphs.metrics import degeneracy_order


def _rank_map(graph: Graph, order: Optional[Sequence[Vertex]]) -> dict:
    """Vertex → rank under ``order`` (default: canonical degeneracy order)."""
    if order is None:
        order, _ = degeneracy_order(graph)
    rank = {v: r for r, v in enumerate(order)}
    if len(rank) != len(order) or rank.keys() != set(graph.vertices()):
        raise ValueError("order must enumerate every vertex exactly once")
    return rank


def _forward_arrays(
    graph: CSRGraph, rank_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-sorted forward adjacency of ``graph`` as flat arrays.

    Returns ``(fe_row, fe_tgt, counts)``: the forward (rank-increasing)
    directed edges grouped by source row — within a group targets ascend by
    rank — plus the per-row forward-degree counts.
    """
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.proper_degree)
    flat = graph.indices
    keep = rank_idx[flat] > rank_idx[rows]
    fe_row = rows[keep]
    fe_tgt = flat[keep]
    perm = np.lexsort((rank_idx[fe_tgt], fe_row))
    fe_row = fe_row[perm]
    fe_tgt = fe_tgt[perm]
    counts = np.bincount(fe_row, minlength=graph.n)
    return fe_row, fe_tgt, counts


def _candidate_pairs(
    fe_row: np.ndarray, fe_tgt: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All forward-neighbor pairs ``(apex, first, second)``, vectorized.

    For the forward edge at in-row position k, its candidate partners are
    the later entries of the same row (the "tail"), so the pair list is one
    repeat/offset gather over the flat forward arrays — no Python loop.
    ``first`` always precedes ``second`` in rank because rows are
    rank-sorted.
    """
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    pos = np.arange(len(fe_row), dtype=np.int64) - starts[fe_row]
    tails = counts[fe_row] - 1 - pos
    total = int(tails.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    e_rep = np.repeat(np.arange(len(fe_row), dtype=np.int64), tails)
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.concatenate(([0], np.cumsum(tails[:-1]))), tails)
    apex = fe_row[e_rep]
    first = fe_tgt[e_rep]
    second = fe_tgt[e_rep + 1 + offsets]
    return apex, first, second


def _oriented_hits(
    graph: CSRGraph, rank_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples of every triangle, one entry per triangle.

    The closing test is one binary search per candidate pair: the pair
    (first, second) closes iff the forward edge first→second exists, and a
    candidate is always rank-ordered (rows are rank-sorted), so membership
    against the forward edge-key array (``source·n + target``, sorted once)
    finds each triangle exactly once, at its apex.
    """
    fe_row, fe_tgt, counts = _forward_arrays(graph, rank_idx)
    if fe_row.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    keys = np.sort(fe_row * np.int64(graph.n) + fe_tgt)
    apex, first, second = _candidate_pairs(fe_row, fe_tgt, counts)
    if apex.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    cand = first * np.int64(graph.n) + second
    pos = np.searchsorted(keys, cand)
    pos_safe = np.minimum(pos, len(keys) - 1)
    hit = (pos < len(keys)) & (keys[pos_safe] == cand)
    return apex[hit], first[hit], second[hit]


def _rank_index_array(graph: CSRGraph, rank: dict) -> np.ndarray:
    """The rank map as an array over CSR indices."""
    rank_idx = np.empty(graph.n, dtype=np.int64)
    for v, r in rank.items():
        rank_idx[graph.index[v]] = r
    return rank_idx


def oriented_triangles(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> set[frozenset]:
    """Every triangle of ``graph``, as frozensets of three vertex labels.

    Exact on any input; the orientation order only affects cost, never the
    output.  ``order`` defaults to the canonical degeneracy order (the
    O(m·degeneracy) bound); any permutation of the vertices is accepted —
    e.g. the ``repr``-sorted order to skip the peeling pass — and anything
    else raises :class:`ValueError`.
    """
    rank = _rank_map(graph, order)
    csr = CSRGraph.from_graph(graph)
    apex, first, second = _oriented_hits(csr, _rank_index_array(csr, rank))
    labels = csr.vertices
    return {
        frozenset((labels[int(a)], labels[int(b)], labels[int(c)]))
        for a, b, c in zip(apex, first, second)
    }


def oriented_triangle_count(
    graph: Graph, order: Optional[Sequence[Vertex]] = None
) -> int:
    """Number of triangles, skipping the per-triangle label materialisation.

    Same enumeration as :func:`oriented_triangles`; the count is the size
    of the hit mask, so no Python-level per-triangle work happens at all —
    the variant :func:`repro.graphs.metrics.triangle_count` routes through.
    """
    rank = _rank_map(graph, order)
    csr = CSRGraph.from_graph(graph)
    apex, _, _ = _oriented_hits(csr, _rank_index_array(csr, rank))
    return int(apex.size)


def forward_wedge_count(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> int:
    """Number of forward-neighbor pairs the oriented enumerator examines.

    Σ_v C(d⁺(v), 2) under the orientation — the work term of the
    O(m·degeneracy) bound, and the message-volume figure the round
    accounting of :mod:`repro.triangles.baseline` charges.
    """
    rank = _rank_map(graph, order)
    total = 0
    for v in graph.vertices():
        d = sum(1 for u in graph.neighbors(v) if rank[u] > rank[v])
        total += d * (d - 1) // 2
    return total
