"""Property tests pinning every generator in ``repro.graphs.generators``.

Three properties hold for every family, across a small parameter grid:

* **declared counts** — the vertex count (and, for deterministic families,
  the edge count) matches the closed form the family's docstring promises;
* **degree-sum identity** — ``sum(deg) == 2m + loops == total_volume``,
  the handshake lemma the conductance accounting stands on;
* **seed determinism** — the same ``SeedLike`` (int, or a fresh Generator
  with the same seed) yields the *identical* graph: same vertices, same
  edge set, same self-loop multiplicities.

Plus regression tests for the discrepancies this harness surfaced (and
this PR fixed): duplicate bridge edges silently collapsing in the barbell
families, ``triangle_rich_graph`` crashing below n=3, negative-size
validation holes, and the power-law parity bump piercing an explicit
``max_degree`` cap.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph


def graph_signature(g: Graph) -> tuple:
    """A canonical, comparison-friendly encoding of a graph."""
    return (
        tuple(sorted(map(repr, g.vertices()))),
        tuple(sorted(tuple(sorted((repr(u), repr(v)))) for u, v in g.edges())),
        tuple(sorted((repr(v), g.self_loops(v)) for v in g.vertices())),
    )


def assert_degree_sum_identity(g: Graph) -> None:
    """The handshake lemma with the paper's self-loop convention."""
    degree_sum = sum(g.degree(v) for v in g.vertices())
    assert degree_sum == 2 * g.num_edges + g.num_self_loops
    assert degree_sum == g.total_volume()


#: (name, builder) for every deterministic family, with its closed-form
#: (num_vertices, num_edges).
DETERMINISTIC_FAMILIES = [
    ("path_graph(7)", lambda: gen.path_graph(7), 7, 6),
    ("path_graph(0)", lambda: gen.path_graph(0), 0, 0),
    ("cycle_graph(5)", lambda: gen.cycle_graph(5), 5, 5),
    ("complete_graph(6)", lambda: gen.complete_graph(6), 6, 15),
    ("star_graph(9)", lambda: gen.star_graph(9), 9, 8),
    ("grid_graph(3,4)", lambda: gen.grid_graph(3, 4), 12, 3 * 3 + 4 * 2),
    ("hypercube_graph(4)", lambda: gen.hypercube_graph(4), 16, 32),
    ("complete_bipartite(3,5)", lambda: gen.complete_bipartite_graph(3, 5), 8, 15),
    ("binary_tree_graph(3)", lambda: gen.binary_tree_graph(3), 15, 14),
    (
        "ring_of_cliques(5,4)",
        lambda: gen.ring_of_cliques(5, 4),
        20,
        5 * 6 + 5,
    ),
    (
        "dumbbell_cliques(5,3)",
        lambda: gen.dumbbell_cliques(5, 3),
        13,
        2 * 10 + 4,
    ),
    (
        "disjoint_cliques(4,3)",
        lambda: gen.disjoint_cliques(4, 3),
        12,
        4 * 3,
    ),
]

#: (name, builder-from-seed) for every random family; vertex counts are
#: asserted per family below, edge counts only via bounds.
RANDOM_FAMILIES = [
    ("erdos_renyi", lambda seed: gen.erdos_renyi_graph(24, 0.3, seed=seed)),
    ("random_regular", lambda seed: gen.random_regular_graph(16, 4, seed=seed)),
    ("barbell", lambda seed: gen.barbell_expanders(12, degree=4, seed=seed)),
    (
        "unbalanced_bridged",
        lambda seed: gen.unbalanced_bridged_expanders(8, 20, degree=4, seed=seed),
    ),
    (
        "planted_partition",
        lambda seed: gen.planted_partition_graph(3, 8, 0.8, 0.05, seed=seed),
    ),
    ("power_law", lambda seed: gen.power_law_graph(50, seed=seed)),
    ("triangle_rich", lambda seed: gen.triangle_rich_graph(30, 0.2, seed=seed)),
    (
        "union_of_graphs",
        lambda seed: gen.union_of_graphs(
            [gen.complete_graph(5), gen.cycle_graph(6)], bridge_edges=2, seed=seed
        ),
    ),
]


class TestDeterministicFamilies:
    @pytest.mark.parametrize(
        "name,builder,n,m", DETERMINISTIC_FAMILIES, ids=[f[0] for f in DETERMINISTIC_FAMILIES]
    )
    def test_declared_counts_and_degree_sum(self, name, builder, n, m):
        g = builder()
        assert g.num_vertices == n
        assert g.num_edges == m
        assert g.num_self_loops == 0  # no generator plants loops
        assert_degree_sum_identity(g)

    @pytest.mark.parametrize(
        "name,builder,n,m", DETERMINISTIC_FAMILIES, ids=[f[0] for f in DETERMINISTIC_FAMILIES]
    )
    def test_rebuild_is_identical(self, name, builder, n, m):
        assert graph_signature(builder()) == graph_signature(builder())


class TestRandomFamilies:
    @pytest.mark.parametrize(
        "name,builder", RANDOM_FAMILIES, ids=[f[0] for f in RANDOM_FAMILIES]
    )
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_degree_sum_identity(self, name, builder, seed):
        assert_degree_sum_identity(builder(seed))

    @pytest.mark.parametrize(
        "name,builder", RANDOM_FAMILIES, ids=[f[0] for f in RANDOM_FAMILIES]
    )
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_same_int_seed_is_identical(self, name, builder, seed):
        assert graph_signature(builder(seed)) == graph_signature(builder(seed))

    @pytest.mark.parametrize(
        "name,builder", RANDOM_FAMILIES, ids=[f[0] for f in RANDOM_FAMILIES]
    )
    def test_generator_seed_matches_int_seed(self, name, builder):
        """Passing default_rng(s) draws the same graph as passing s."""
        from_int = builder(11)
        from_generator = builder(np.random.default_rng(11))
        assert graph_signature(from_int) == graph_signature(from_generator)

    def test_declared_vertex_counts(self):
        assert gen.erdos_renyi_graph(24, 0.3, seed=1).num_vertices == 24
        assert gen.random_regular_graph(16, 4, seed=1).num_vertices == 16
        assert gen.barbell_expanders(12, degree=4, seed=1).num_vertices == 24
        assert gen.unbalanced_bridged_expanders(8, 20, degree=4, seed=1).num_vertices == 28
        assert gen.planted_partition_graph(3, 8, 0.8, 0.05, seed=1).num_vertices == 24
        assert gen.power_law_graph(50, seed=1).num_vertices == 50
        assert gen.triangle_rich_graph(30, 0.2, seed=1).num_vertices == 30

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_random_regular_really_is_regular(self, seed):
        g = gen.random_regular_graph(16, 4, seed=seed)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.num_edges == 16 * 4 // 2


class TestRegressionFixes:
    """Discrepancies the property harness surfaced, pinned fixed."""

    @pytest.mark.parametrize("bridge_edges", [1, 4, 12, 20, 30])
    def test_barbell_bridge_count_is_exact(self, bridge_edges):
        """Bridges beyond n_per_side used to collapse onto duplicate pairs:
        barbell_expanders(8, bridge_edges=20) silently produced an 8-edge
        planted cut.  Every declared bridge is now a distinct edge."""
        n_side = 8
        g = gen.barbell_expanders(n_side, degree=4, bridge_edges=bridge_edges, seed=3)
        left = {("L", v) for v in range(n_side)}
        assert g.cut_size(left) == bridge_edges

    def test_barbell_small_bridge_counts_unchanged(self):
        """The dedup fix must not move the bridges existing baselines use:
        for bridge_edges <= n_per_side the pairs are (i, i) as before."""
        g = gen.barbell_expanders(8, degree=4, bridge_edges=3, seed=3)
        for i in range(3):
            assert g.has_edge(("L", i), ("R", i))

    @pytest.mark.parametrize("bridge_edges", [1, 3, 24])
    def test_unbalanced_bridge_count_is_exact(self, bridge_edges):
        g = gen.unbalanced_bridged_expanders(
            4, 6, degree=3, bridge_edges=bridge_edges, seed=3
        )
        small = {("S", v) for v in range(4)}
        assert g.cut_size(small) == bridge_edges

    def test_bridge_counts_beyond_pairs_raise(self):
        with pytest.raises(ValueError):
            gen.barbell_expanders(3, degree=2, bridge_edges=10, seed=1)
        with pytest.raises(ValueError):
            gen.unbalanced_bridged_expanders(2, 3, degree=1, bridge_edges=7, seed=1)

    def test_triangle_rich_below_three_vertices_raises(self):
        """Used to crash inside rng.choice with an inscrutable error."""
        with pytest.raises(ValueError, match="at least 3"):
            gen.triangle_rich_graph(2, 0.5, seed=1)

    def test_negative_sizes_raise(self):
        with pytest.raises(ValueError):
            gen.binary_tree_graph(-1)
        with pytest.raises(ValueError):
            gen.grid_graph(-1, 5)

    @pytest.mark.parametrize("seed", range(12))
    def test_power_law_explicit_cap_is_respected(self, seed):
        """With max_degree given, the odd-sum parity bump must not pierce
        the cap (the legacy implicit-cap path bumps the max-degree vertex
        and may exceed max(2, n//4) by one — preserved for baseline
        compatibility, documented in the docstring)."""
        cap = 5
        g = gen.power_law_graph(40, 2.0, seed=seed, max_degree=cap)
        assert max(g.degree(v) for v in g.vertices()) <= cap

    def test_power_law_default_matches_legacy_draws(self):
        """max_degree=None must reproduce the pre-cap generator exactly
        (the committed bench baselines depend on these draws)."""
        legacy = gen.power_law_graph(80, seed=7)
        assert graph_signature(legacy) == graph_signature(
            gen.power_law_graph(80, 2.5, seed=7, max_degree=None)
        )

    def test_power_law_invalid_cap_raises(self):
        with pytest.raises(ValueError):
            gen.power_law_graph(10, seed=1, max_degree=0)

    @pytest.mark.parametrize("exponent", [float("nan"), 1.0, 0.5, -2.0])
    @pytest.mark.parametrize("generator", [gen.power_law_graph, gen.power_law_csr])
    def test_power_law_refuses_an_exponent_not_above_one(self, generator, exponent):
        """A NaN exponent used to draw a 25-edge matching with only a numpy
        cast warning, and one <= 1 raised numpy's bare ``a <= 0``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"exponent .*{exponent}"):
                generator(50, exponent=exponent, seed=1)


class TestMetadataVariants:
    """The metadata-returning variants: identical graphs, honest truth."""

    def test_planted_partition_graph_is_identical(self):
        plain = gen.planted_partition_graph(3, 8, 0.8, 0.05, seed=5)
        with_meta, meta = gen.planted_partition_with_metadata(3, 8, 0.8, 0.05, seed=5)
        assert graph_signature(plain) == graph_signature(with_meta)
        assert meta.num_communities == 3
        assert all(len(c) == 8 for c in meta.communities)
        assert set().union(*meta.communities) == set(with_meta.vertices())

    def test_ring_of_cliques_is_identical(self):
        plain = gen.ring_of_cliques(5, 4)
        with_meta, meta = gen.ring_of_cliques_with_metadata(5, 4)
        assert graph_signature(plain) == graph_signature(with_meta)
        assert meta.num_communities == 5
        # Each clique's cut is exactly the 2 ring edges it touches.
        for community in meta.communities:
            assert with_meta.cut_size(community) == 2

    def test_barbell_is_identical(self):
        plain = gen.barbell_expanders(10, degree=4, bridge_edges=2, seed=9)
        with_meta, meta = gen.barbell_expanders_with_metadata(
            10, degree=4, bridge_edges=2, seed=9
        )
        assert graph_signature(plain) == graph_signature(with_meta)
        assert meta.num_communities == 2
        assert meta.planted_cut_conductance == pytest.approx(
            plain.conductance_of_cut({("L", v) for v in range(10)})
        )

    def test_power_law_has_no_fabricated_truth(self):
        g, meta = gen.power_law_with_metadata(40, seed=3)
        assert meta.communities is None
        assert meta.planted_cut_conductance is None
        assert meta.num_communities == 0
        assert graph_signature(g) == graph_signature(gen.power_law_graph(40, seed=3))

    def test_union_of_expanders_disconnected_truth(self):
        g, meta = gen.union_of_expanders_with_metadata(3, 8, degree=4, seed=2)
        assert meta.num_communities == 3
        assert meta.planted_cut_conductance == 0.0
        assert len(g.connected_components()) == 3
        assert_degree_sum_identity(g)

    def test_union_of_expanders_is_seed_deterministic(self):
        a = gen.union_of_expanders_with_metadata(3, 8, degree=4, bridge_edges=2, seed=2)
        b = gen.union_of_expanders_with_metadata(3, 8, degree=4, bridge_edges=2, seed=2)
        assert graph_signature(a[0]) == graph_signature(b[0])
        assert a[1] == b[1]

    def test_planted_conductance_matches_worst_community(self):
        g, meta = gen.planted_partition_with_metadata(2, 8, 0.9, 0.05, seed=4)
        worst = max(g.conductance_of_cut(c) for c in meta.communities)
        assert meta.planted_cut_conductance == pytest.approx(worst)
