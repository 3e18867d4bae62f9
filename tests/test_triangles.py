"""The Theorem 2 triangle workload: oriented enumerator, decomposition
pipeline, CPZ baseline.

Four layers of pinning:

* the oriented enumerator is exact (vs the brute-force oracle on every
  random graph small enough for it, and vs the forward-set reference
  enumerator above that size) and order independent;
* the decomposition-based enumeration returns the *exact* triangle set on
  every benchmark family — including the closed-form ring-of-cliques count —
  with the cluster/recursion split behaving as the partition argument of
  ``docs/TRIANGLES.md`` predicts (2+1 triangles at the cluster stage,
  1+1+1 triangles from the removed-edge recursion);
* the degeneracy-ordered baseline agrees with the decomposition route and
  carries the Õ-comparison round accounting;
* the brute force is retired to a size-guarded oracle.
"""

from __future__ import annotations

import math

import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    complete_graph,
    disjoint_cliques,
    erdos_renyi_graph,
    path_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
    triangle_rich_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.metrics import (
    EXACT_ENUMERATION_LIMIT,
    brute_force_triangles,
    degeneracy,
    degeneracy_order,
    triangle_count,
)
from repro.triangles import (
    BASE_CASE_EDGE_LIMIT,
    cpz_baseline_enumeration,
    decomposition_triangle_enumeration,
    forward_wedge_count,
    oriented_triangle_count,
    oriented_triangles,
)


def forward_set_triangles(graph: Graph, order=None) -> set[frozenset]:
    """Reference enumeration: forward adjacency sets + membership lookups.

    The pure-Python orientation argument the vectorized enumerator
    implements, for graphs above :func:`brute_force_triangles`' size
    limit.  ``order`` defaults to the ``repr``-sorted order (the
    orientation only affects cost, never the output).
    """
    if order is None:
        order = sorted(graph.vertices(), key=repr)
    rank = {v: r for r, v in enumerate(order)}
    forward: dict = {}
    forward_sets: dict = {}
    for v in graph.vertices():
        fwd = sorted(
            (u for u in graph.neighbors(v) if rank[u] > rank[v]),
            key=rank.__getitem__,
        )
        forward[v] = fwd
        forward_sets[v] = set(fwd)
    triangles: set[frozenset] = set()
    for apex, fwd in forward.items():
        for i, v in enumerate(fwd):
            closes = forward_sets[v]
            for w in fwd[i + 1:]:
                if w in closes:
                    triangles.add(frozenset((apex, v, w)))
    return triangles


def bench_families():
    """The four ground-truth families the benchmark harness also runs."""
    return [
        ("ring_of_cliques(6,8)", ring_of_cliques(6, 8), 0.10, 0.10),
        ("barbell_expanders(32)", barbell_expanders(32, seed=7), 0.10, 0.10),
        (
            "planted_partition(4,12)",
            planted_partition_graph(4, 12, 0.7, 0.02, seed=7),
            0.20,
            0.10,
        ),
        ("power_law(80)", power_law_graph(80, seed=7), 0.30, 0.05),
    ]


class TestOrientedEnumerator:
    def test_matches_brute_force_on_small_random_graphs(self):
        for seed in range(12):
            g = erdos_renyi_graph(10 + seed % 7, 0.25 + 0.02 * seed, seed=seed)
            expected = brute_force_triangles(g)
            assert oriented_triangles(g) == expected
            assert forward_set_triangles(g) == expected

    def test_matches_the_reference_on_bench_families(self):
        for name, g, _, _ in bench_families():
            expected = forward_set_triangles(g)
            assert oriented_triangles(g) == expected, name
            assert oriented_triangle_count(g) == len(expected), name

    def test_order_only_affects_cost_never_output(self):
        g = triangle_rich_graph(60, seed=3)
        expected = forward_set_triangles(g)
        repr_order = sorted(g.vertices(), key=repr)
        assert oriented_triangles(g) == expected
        assert oriented_triangles(g, order=repr_order) == expected

    @pytest.mark.parametrize(
        "order", [[0, 1, 5], [0, 1, 2, 2], [0, 1]], ids=["foreign", "repeat", "short"]
    )
    def test_order_must_be_a_permutation_of_the_vertices(self, order):
        triangle = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="exactly once"):
            oriented_triangles(triangle, order=order)
        with pytest.raises(ValueError, match="exactly once"):
            oriented_triangle_count(triangle, order=order)

    def test_ring_of_cliques_closed_form(self):
        # Ring edges join distinct cliques through distinct endpoints, so
        # every triangle lives inside one clique: k·C(s,3) exactly.
        for k, s in [(6, 8), (40, 16)]:
            expected = k * math.comb(s, 3)
            g = ring_of_cliques(k, s)
            assert oriented_triangle_count(g) == expected
            assert len(forward_set_triangles(g)) == expected

    def test_degenerate_inputs(self):
        assert oriented_triangles(Graph()) == set()
        assert oriented_triangles(path_graph(6)) == set()
        loops = Graph(vertices=[0, 1])
        loops.add_self_loops(0, 3)
        assert oriented_triangles(loops) == set()

    def test_triangle_count_delegates_above_the_oracle_limit(self):
        g = complete_graph(EXACT_ENUMERATION_LIMIT + 4)
        assert triangle_count(g) == math.comb(EXACT_ENUMERATION_LIMIT + 4, 3)

    def test_forward_wedge_count_bounds_the_work(self):
        g = ring_of_cliques(6, 8)
        order, degen = degeneracy_order(g)
        wedges = forward_wedge_count(g, order=order)
        assert wedges >= oriented_triangle_count(g)
        assert wedges <= g.num_edges * degen


class TestBruteForceOracle:
    def test_guarded_above_the_enumeration_limit(self):
        g = erdos_renyi_graph(EXACT_ENUMERATION_LIMIT + 1, 0.5, seed=0)
        with pytest.raises(ValueError):
            brute_force_triangles(g)

    def test_still_serves_at_the_limit(self):
        g = complete_graph(EXACT_ENUMERATION_LIMIT)
        assert len(brute_force_triangles(g)) == math.comb(EXACT_ENUMERATION_LIMIT, 3)


class TestDegeneracyOrder:
    def test_order_is_a_canonical_permutation(self):
        g = ring_of_cliques(6, 8)
        order, degen = degeneracy_order(g)
        assert sorted(order, key=repr) == sorted(g.vertices(), key=repr)
        assert len(set(order)) == g.num_vertices
        assert degeneracy(g) == degen

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete_graph(8), 7),
            (path_graph(10), 1),
            (ring_of_cliques(6, 8), 7),
        ],
        ids=["K8", "path10", "ring6x8"],
    )
    def test_known_degeneracies(self, graph, expected):
        assert degeneracy_order(graph)[1] == expected

    def test_every_vertex_has_bounded_forward_degree(self):
        g = triangle_rich_graph(60, seed=3)
        order, degen = degeneracy_order(g)
        rank = {v: r for r, v in enumerate(order)}
        for v in g.vertices():
            fwd = sum(1 for u in g.neighbors(v) if rank[u] > rank[v])
            assert fwd <= degen


class TestDecompositionWorkload:
    def test_exact_on_every_bench_family(self):
        for name, g, epsilon, phi in bench_families():
            result = decomposition_triangle_enumeration(
                g, epsilon=epsilon, phi=phi, seed=7, verify=True
            )
            assert result.verified, name
            assert result.triangles == oriented_triangles(g), name
            # The stages partition the triangle set (docs/TRIANGLES.md).
            assert result.count == sum(rec.triangles_found for rec in result.levels)

    def test_ring_of_cliques_all_triangles_are_cluster_triangles(self):
        g = ring_of_cliques(6, 8)
        result = decomposition_triangle_enumeration(g, 0.10, 0.10, seed=7)
        assert result.count == 6 * math.comb(8, 3)
        assert result.cluster_triangle_count == result.count
        assert result.cross_triangle_count == 0
        assert result.levels[0].num_clusters == 6

    def test_cross_cut_triangle_comes_from_the_recursion(self):
        # Three cliques plus one triangle whose corners sit in distinct
        # clusters: all three of its edges are removed at level 0, so only
        # the removed-edge recursion can find it (the 1+1+1 case).
        g = disjoint_cliques(3, 8)  # 87 edges: above the direct base case
        g.add_edge((0, 0), (1, 0))
        g.add_edge((1, 0), (2, 0))
        g.add_edge((0, 0), (2, 0))
        result = decomposition_triangle_enumeration(g, 0.15, 0.10, seed=7)
        assert result.count == 3 * math.comb(8, 3) + 1
        assert result.cross_triangle_count == 1
        assert frozenset({(0, 0), (1, 0), (2, 0)}) in result.triangles

    def test_straddling_triangle_found_at_the_cluster_stage(self):
        # Two corners in one cluster, one outside (the 2+1 case): the single
        # intra-cluster edge makes it the owning cluster's responsibility,
        # even though its other two edges are removed.
        g = disjoint_cliques(2, 9)  # 74 edges: above the direct base case
        g.add_edge((0, 0), (1, 0))
        g.add_edge((0, 1), (1, 0))
        result = decomposition_triangle_enumeration(g, 0.15, 0.10, seed=7)
        straddler = frozenset({(0, 0), (0, 1), (1, 0)})
        assert straddler in result.triangles
        assert result.count == 2 * math.comb(9, 3) + 1
        assert not result.levels[0].direct
        assert result.cluster_triangle_count == result.count
        assert result.cross_triangle_count == 0

    def test_matches_the_reference_and_verify_flag(self):
        g = ring_of_cliques(6, 8)
        verified = decomposition_triangle_enumeration(g, 0.10, 0.10, seed=7)
        unverified = decomposition_triangle_enumeration(
            g, 0.10, 0.10, seed=7, verify=False
        )
        assert verified.triangles == unverified.triangles == forward_set_triangles(g)
        assert verified.verified and not unverified.verified

    def test_small_level_matches_brute_force(self):
        # Every level, however small, runs its cluster stage on a
        # snapshot.  Two K8s joined by a perfect matching plus one chord:
        # 16 vertices (the brute force's limit) and 65 edges (one above
        # the direct base case), so level 0 decomposes.
        g = disjoint_cliques(2, 8)
        for i in range(8):
            g.add_edge((0, i), (1, i))
        g.add_edge((0, 0), (1, 1))
        assert g.num_vertices == EXACT_ENUMERATION_LIMIT
        result = decomposition_triangle_enumeration(g, 0.15, 0.10, seed=7)
        assert not result.levels[0].direct
        assert result.triangles == brute_force_triangles(g)

    def test_round_accounting_splits_cleanly(self):
        g = ring_of_cliques(6, 8)
        result = decomposition_triangle_enumeration(g, 0.10, 0.10, seed=7)
        assert result.enumeration_rounds > 0
        assert result.decomposition_rounds > 0
        assert result.report.total_rounds == pytest.approx(
            result.enumeration_rounds + result.decomposition_rounds
        )

    def test_base_case_handles_tiny_graphs_directly(self):
        g = complete_graph(8)  # 28 edges <= BASE_CASE_EDGE_LIMIT
        result = decomposition_triangle_enumeration(g, 0.10, 0.10, seed=7)
        assert result.count == math.comb(8, 3)
        assert result.levels[0].direct

    def test_one_snapshot_per_decomposed_level(self, monkeypatch):
        # The decomposition runs on the level's snapshot and the cluster
        # stage reads the same one, so each working graph is snapshotted
        # once; the base-case level's oriented pass and the verification
        # pass take one each.  The spy keeps every argument alive, so the
        # identity check cannot be fooled by a recycled id.
        seen = []
        build = CSRGraph.from_graph.__func__

        def spy(cls, graph):
            seen.append(graph)
            return build(cls, graph)

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(spy))
        g = random_regular_graph(60, 5, seed=3)
        result = decomposition_triangle_enumeration(g, 0.5, 0.3, seed=7)
        assert sum(not rec.direct for rec in result.levels) >= 2
        pipeline, verification = seen[:-1], seen[-1]
        assert verification is g and pipeline[0] is g
        assert len({id(h) for h in pipeline}) == len(pipeline)
        assert [h.num_edges for h in pipeline] == [
            rec.num_edges for rec in result.levels
        ]

    def test_degenerate_level_keeps_its_decomposition_time(self):
        # At ε = 2, φ = 1 the decomposition of the circulant C(100; 1, 2)
        # cuts every edge, so the level falls back to direct enumeration
        # after a decomposition ran: its record carries that run's time.
        g = Graph(
            edges=[(i, (i + 1) % 100) for i in range(100)]
            + [(i, (i + 2) % 100) for i in range(100)]
        )
        result = decomposition_triangle_enumeration(g, 2.0, 1.0, seed=1)
        (record,) = result.levels
        assert record.direct and record.num_edges > BASE_CASE_EDGE_LIMIT
        assert result.count == 100
        assert record.decompose_seconds > 0
        assert result.stage_seconds["decompose_s"] > 0


class TestBaseline:
    def test_agrees_with_the_decomposition_route(self):
        for name, g, epsilon, phi in bench_families()[:2]:
            workload = decomposition_triangle_enumeration(
                g, epsilon=epsilon, phi=phi, seed=7
            )
            baseline = cpz_baseline_enumeration(g)
            assert baseline.triangles == workload.triangles, name

    def test_carries_the_comparison_accounting(self):
        g = ring_of_cliques(6, 8)
        baseline = cpz_baseline_enumeration(g)
        assert baseline.degeneracy == degeneracy(g)
        assert baseline.wedges_examined == forward_wedge_count(g)
        assert baseline.report.total_rounds >= math.sqrt(g.num_vertices)
        assert baseline.report.find("oriented_enumeration") is not None
        assert baseline.report.find("degeneracy_peeling") is not None

    def test_matches_the_reference(self):
        g = triangle_rich_graph(60, seed=3)
        assert cpz_baseline_enumeration(g).triangles == forward_set_triangles(g)
