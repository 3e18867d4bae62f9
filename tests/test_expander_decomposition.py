"""End-to-end acceptance: the expander decomposition pipeline and the
centralized/distributed Nibble agreement."""

import pytest

from repro.congest import distributed_nibble, distributed_random_nibble
from repro.decomposition import expander_decomposition, level_schedule
from repro.graphs.generators import (
    barbell_expanders,
    disjoint_cliques,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.spectral import is_expander
from repro.nibble import NibbleParameters, ParameterMode, approximate_nibble


class TestExpanderDecomposition:
    def test_ring_of_cliques_recovers_planted_structure(self):
        g = ring_of_cliques(6, 8)
        result = expander_decomposition(g, epsilon=0.1, phi=0.1, seed=7)
        assert result.num_components == 6
        assert result.certified_fraction == 1.0
        # exactly the 6 ring edges are removed
        assert len(result.cut_edges) == 6
        assert result.within_budget
        for component in result.components:
            assert len(component) == 8
            assert len({v[0] for v in component.vertices}) == 1  # one clique each
            sub = g.induced_with_loops(component.vertices)
            assert is_expander(sub, 0.1)

    def test_barbell_splits_at_the_bridge(self):
        g = barbell_expanders(32, seed=1)
        result = expander_decomposition(g, epsilon=0.1, phi=0.1, seed=7)
        assert result.num_components == 2
        assert result.certified_fraction == 1.0
        assert len(result.cut_edges) == 1
        sides = sorted({v[0] for c in result.components for v in c.vertices})
        assert sides == ["L", "R"]
        for component in result.components:
            assert len(component) == 32
            assert len({v[0] for v in component.vertices}) == 1

    def test_planted_partition_recovered(self):
        g = planted_partition_graph(4, 12, 0.7, 0.02, seed=5)
        result = expander_decomposition(g, epsilon=0.2, phi=0.1, seed=7)
        assert result.num_components == 4
        assert result.certified_fraction == 1.0
        for component in result.components:
            assert len({v[0] for v in component.vertices}) == 1

    def test_already_decomposed_input_is_free(self):
        g = disjoint_cliques(3, 6)
        result = expander_decomposition(g, epsilon=0.1, phi=0.2, seed=1)
        assert result.num_components == 3
        assert result.cut_edges == []
        assert result.inter_edge_fraction == 0.0

    def test_components_partition_the_vertex_set(self):
        g = ring_of_cliques(4, 6)
        result = expander_decomposition(g, epsilon=0.2, phi=0.1, seed=3)
        seen = set()
        for component in result.components:
            assert not (component.vertices & seen)
            seen |= component.vertices
        assert seen == set(g.vertices())

    def test_every_edge_within_a_component_or_cut(self):
        g = ring_of_cliques(4, 6)
        result = expander_decomposition(g, epsilon=0.2, phi=0.1, seed=3)
        cut_keys = {frozenset(e) for e in result.cut_edges}
        member = {v: i for i, c in enumerate(result.components) for v in c.vertices}
        for u, v in g.edges():
            if member[u] == member[v]:
                assert frozenset((u, v)) not in cut_keys
            else:
                assert frozenset((u, v)) in cut_keys

    def test_round_report_tree(self):
        g = ring_of_cliques(4, 6)
        result = expander_decomposition(g, epsilon=0.2, phi=0.1, seed=3)
        assert result.report.total_rounds > 0
        assert result.report.children  # per-level subreports

    def test_level_schedule_chains_h_inverse(self):
        schedule = level_schedule(0.1, 64, ParameterMode.PRACTICAL)
        assert schedule[0] == 0.1
        assert all(b < a for a, b in zip(schedule, schedule[1:]))
        paper = level_schedule(0.1, 64, ParameterMode.PAPER)
        assert paper[0] == 0.1 and len(paper) >= 2


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "phi",
        [float("nan"), float("inf"), -0.2, 0.0, 1.5, 2.0],
        ids=["nan", "inf", "negative", "zero", "above_one", "two"],
    )
    def test_bad_phi_raises_naming_phi(self, phi):
        with pytest.raises(ValueError, match="phi"):
            expander_decomposition(ring_of_cliques(3, 4), epsilon=0.1, phi=phi, seed=1)

    @pytest.mark.parametrize(
        "epsilon", [float("nan"), float("inf"), -0.1], ids=["nan", "inf", "negative"]
    )
    def test_bad_epsilon_raises_naming_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            expander_decomposition(ring_of_cliques(3, 4), epsilon=epsilon, phi=0.1, seed=1)

    def test_zero_epsilon_is_accepted(self):
        g = ring_of_cliques(3, 4)
        result = expander_decomposition(g, epsilon=0.0, phi=0.1, seed=1)
        assert sum(len(c) for c in result.components) == g.num_vertices


class TestDistributedAgainstCentralized:
    def test_distributed_cut_matches_centralized(self):
        """Acceptance: the distributed Nibble's cut equals the centralized one
        for the same start vertex and truncation scale."""
        g = ring_of_cliques(6, 8)
        params = NibbleParameters.practical(g, 0.1, max_t0=120)
        central = approximate_nibble(g, (0, 3), 1, params)
        dist = distributed_nibble(g, (0, 3), 1, params, seed=1)
        assert central is not None and dist is not None
        assert dist.cut.vertices == central.vertices
        assert dist.cut.conductance == pytest.approx(central.conductance)
        assert dist.verified  # in-network convergecast agrees with the sweep

    def test_distributed_cut_matches_on_barbell(self):
        g = barbell_expanders(16, degree=6, seed=2)
        params = NibbleParameters.practical(g, 0.1, max_t0=150)
        central = approximate_nibble(g, ("L", 3), 1, params)
        dist = distributed_nibble(g, ("L", 3), 1, params, seed=4)
        assert central is not None and dist is not None
        assert dist.cut.vertices == central.vertices
        assert dist.verified

    def test_distributed_random_nibble_pipeline(self):
        g = ring_of_cliques(4, 6)
        params = NibbleParameters.practical(g, 0.1, max_t0=100)
        best, report = distributed_random_nibble(g, params, num_instances=4, seed=2)
        assert best is not None
        assert best.cut.conductance <= params.phi
        assert best.verified
        labels = {child.label for child in report.children}
        assert {"leader_election", "bfs_tree", "token_sampling", "nibble_instances"} <= labels
