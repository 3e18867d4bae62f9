"""The decomposition's canonical component order, pinned on awkward hosts.

Sibling pieces of a disconnected working graph are emitted in ascending
order of their smallest vertex ``repr``; pieces whose smallest ``repr``\\ s
are equal keep the order of their smallest base index.  A dict host is
snapshotted in ``repr`` order, so there index order and ``repr`` order
agree; a CSR host keeps whatever index order it was built with.  These
tests fix the order on hosts where the two disagree:

* a CSR host with integer labels in numeric index order, where ``"10"``
  sorts before ``"9"``;
* hosts carrying two distinct labels with the same ``repr``.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition import expander_decomposition
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import power_law_csr
from repro.graphs.graph import Graph


class Tied:
    """A label whose ``repr`` is chosen freely, so two labels can share one."""

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text

    def __repr__(self) -> str:
        return self.text

    def __eq__(self, other) -> bool:
        return isinstance(other, Tied) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Tied", self.name))


def csr_host(vertices: list, edges: list) -> CSRGraph:
    """A CSR snapshot whose index order is exactly ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    rows: list[list[int]] = [[] for _ in vertices]
    for u, v in edges:
        rows[index[u]].append(index[v])
        rows[index[v]].append(index[u])
    indptr = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.asarray([j for r in rows for j in sorted(r)], dtype=np.int64)
    return CSRGraph(indptr, indices, np.zeros(len(vertices), dtype=np.int64), vertices)


def smallest_reprs(result) -> list[str]:
    return [min(map(repr, c.vertices)) for c in result.components]


class TestNumericIndexOrder:
    def test_disjoint_triangles_come_out_in_repr_order(self):
        triangles = [(9, 90, 91), (10, 60, 61), (2, 70, 71), (100, 101, 102), (11, 80, 81)]
        edges = [e for a, b, c in triangles for e in ((a, b), (b, c), (a, c))]
        host = csr_host(list(range(120)), edges)
        result = expander_decomposition(host, 0.1, 0.1, seed=3)
        reprs = smallest_reprs(result)
        assert reprs == sorted(reprs)
        found = [c.vertices for c in result.components if len(c) > 1]
        assert found == [
            frozenset(t) for t in sorted(triangles, key=lambda t: repr(min(t, key=repr)))
        ]
        # "10" < "100" < "11" < "2" < "9": not the index order
        assert [min(t, key=repr) for t in found] == [10, 100, 11, 2, 9]

    def test_power_law_pieces_follow_smallest_repr(self):
        host = power_law_csr(400, exponent=2.0, seed=5)
        pieces = host.to_graph().connected_components()
        assert len(pieces) > 2
        ranked = sorted(pieces, key=lambda piece: min(map(repr, piece)))
        piece_of = {v: k for k, piece in enumerate(ranked) for v in piece}
        result = expander_decomposition(host, 0.2, 0.01, seed=3, max_depth=4)
        sequence = [piece_of[next(iter(c.vertices))] for c in result.components]
        assert sequence == sorted(sequence)
        assert sorted(set(sequence)) == list(range(len(ranked)))


class TestEqualReprs:
    def test_csr_host_ties_keep_smallest_index_order(self):
        t1, t2 = Tied("t1", "t"), Tied("t2", "t")
        z1, z2 = Tied("z1", "z1"), Tied("z2", "z2")
        # {t1, z1} holds index 0 (z1); {t2, z2} holds index 1 (t2); both
        # pieces have smallest repr "t".
        host = csr_host([z1, t2, t1, z2], [(t1, z1), (t2, z2)])
        result = expander_decomposition(host, 0.1, 0.1, seed=3)
        assert [c.vertices for c in result.components] == [
            frozenset({t1, z1}),
            frozenset({t2, z2}),
        ]
        assert all(c.certified for c in result.components)

    def test_dict_host_ties_follow_insertion_order(self):
        t1, t2 = Tied("t1", "t"), Tied("t2", "t")
        z1, z2 = Tied("z1", "z1"), Tied("z2", "z2")
        for first, second in ((t1, t2), (t2, t1)):
            graph = Graph()
            for v in (first, second, z1, z2):
                graph.add_vertex(v)
            graph.add_edge(t1, z1)
            graph.add_edge(t2, z2)
            result = expander_decomposition(graph, 0.1, 0.1, seed=3)
            partner = {t1: z1, t2: z2}
            assert [c.vertices for c in result.components] == [
                frozenset({first, partner[first]}),
                frozenset({second, partner[second]}),
            ]
