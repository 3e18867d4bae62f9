"""The decomposition's array passes against plain references.

* :meth:`PeeledCSR.connected_components` (label propagation with pointer
  jumping) against a breadth-first search kept here, on random peeled
  views with loop-only and isolated vertices and on a memory-mapped host;
* a subset view compacted straight from its subset gather against the
  compaction of the same alive set reached by peeling, array for array;
* the spectral screen's ``scipy.sparse`` adjacency product against the
  gather-plus-``bincount`` form, bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import spectral
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import power_law_csr
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR, maybe_compact


def bfs_components(view: PeeledCSR) -> list[list[int]]:
    """Alive components by breadth-first search, each sorted, by smallest index."""
    seen: set[int] = set()
    components = []
    for start in np.flatnonzero(view.alive).tolist():
        if start in seen:
            continue
        seen.add(start)
        member, queue = [start], deque([start])
        while queue:
            for j in view.neighbors(queue.popleft()).tolist():
                if j not in seen:
                    seen.add(j)
                    member.append(j)
                    queue.append(j)
        components.append(sorted(member))
    return components


def as_lists(pieces: list[np.ndarray]) -> list[list[int]]:
    for piece in pieces:
        assert piece.dtype == np.int64
    return [piece.tolist() for piece in pieces]


@st.composite
def peeled_views(draw):
    """A random graph with self loops and isolated vertices, peeled or cut
    down to a random alive subset."""
    n = draw(st.integers(min_value=1, max_value=30))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    loops = draw(st.lists(st.integers(0, n - 1), max_size=n))
    graph = Graph(vertices=range(n))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    for v in loops:
        graph.add_self_loops(v, 1)
    base = CSRGraph.from_graph(graph)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    subset = [i for i in range(n) if keep[i]]
    if draw(st.booleans()):
        return PeeledCSR.for_subset(base, subset)
    view = PeeledCSR.full(base)
    view.peel([i for i in range(n) if not keep[i]])
    return view


class TestConnectedComponents:
    @settings(max_examples=150, deadline=None)
    @given(peeled_views())
    def test_equal_to_bfs(self, view):
        assert as_lists(view.connected_components()) == bfs_components(view)

    @settings(max_examples=40, deadline=None)
    @given(peeled_views())
    def test_compacted_view_equal_to_bfs(self, view):
        compact = view.compact()
        assert as_lists(compact.connected_components()) == bfs_components(compact)

    def test_mmap_host(self, tmp_path):
        host = CSRGraph.from_mmap(power_law_csr(600, exponent=2.0, seed=4).to_mmap(tmp_path))
        full = PeeledCSR.full(host)
        pieces = full.connected_components()
        assert len(pieces) > 1
        assert as_lists(pieces) == bfs_components(full)
        # drop the giant's first half: it shatters
        giant = max(pieces, key=len)
        view = PeeledCSR.for_subset(host, np.setdiff1d(np.arange(host.n), giant[::2]))
        assert as_lists(view.connected_components()) == bfs_components(view)


class TestDirectCompaction:
    @pytest.mark.parametrize("seed", range(4))
    def test_subset_compaction_equals_peeled_compaction(self, seed):
        rng = np.random.default_rng(seed)
        host = power_law_csr(400, exponent=2.0, seed=seed)
        graph = host.to_graph()
        for v in rng.choice(host.n, size=20, replace=False).tolist():
            graph.add_self_loops(v, 2)
        base = CSRGraph.from_graph(graph)
        subset = np.sort(rng.choice(base.n, size=base.n // 3, replace=False))
        direct = maybe_compact(PeeledCSR.for_subset(base, subset))
        assert direct.base is not base  # the 2x rule compacted it
        peeled = PeeledCSR.full(base)
        peeled.peel(np.setdiff1d(np.arange(base.n), subset))
        reference = peeled.compact()
        a, b = direct.base, reference.base
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
        assert np.array_equal(a.loops, b.loops) and a.loops.dtype == b.loops.dtype
        assert a.vertices == b.vertices
        # the host-sized view's own residual arrays, restricted
        assert np.array_equal(np.diff(a.indptr), peeled.proper_degree[subset])
        assert np.array_equal(a.loops, peeled.loops[subset])
        assert (direct.num_edges, direct.total_volume) == (
            peeled.num_edges,
            peeled.total_volume,
        )

    def test_whole_host_is_the_full_view(self):
        base = power_law_csr(200, exponent=2.0, seed=1)
        view = PeeledCSR.for_subset(base, np.arange(base.n))
        full = PeeledCSR.full(base)
        assert np.array_equal(view.alive, full.alive)
        assert np.array_equal(view.proper_degree, full.proper_degree)
        assert np.array_equal(view.loops, full.loops)


class TestScreenMatvec:
    def test_sparse_product_equals_gather_and_bincount(self):
        host = power_law_csr(3000, exponent=2.0, seed=2)
        view = PeeledCSR.full(host)
        view.peel(np.arange(0, host.n, 7))
        compact = view.compact().base
        adjacency = spectral._unit_adjacency(compact)
        rows = np.arange(compact.n)
        row_id, flat = compact.flat_adjacency(rows)
        y = np.random.default_rng(5).standard_normal(compact.n)
        for _ in range(5):
            expected = np.bincount(row_id, weights=y[flat], minlength=compact.n)
            got = adjacency @ y
            assert got.tobytes() == expected.tobytes()
            y = got / np.linalg.norm(got)
