"""Nearly most balanced sparse cut (Theorem 3) against exact ground truth."""

import pytest

from diffharness import precheck_off
from repro.graphs.generators import (
    barbell_expanders,
    dumbbell_cliques,
    random_regular_graph,
    ring_of_cliques,
    unbalanced_bridged_expanders,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.metrics import most_balanced_sparse_cut_exact
from repro.decomposition.sparse_cut import sparse_cut_search
from repro.decomposition import (
    nearly_most_balanced_sparse_cut,
    parallel_nibble,
    parallel_nibble_cuts,
    random_nibble,
    sample_scale,
)
from repro.nibble import NibbleParameters
from repro.nibble.nibble import NibbleCut
from repro.utils.rng import ensure_rng


class TestRandomNibble:
    def test_sample_scale_distribution(self):
        rng = ensure_rng(0)
        samples = [sample_scale(rng, 6) for _ in range(2000)]
        assert min(samples) == 1 and max(samples) <= 6
        # P[b=1] ∝ 1/2 of the normalising constant: roughly half the samples
        assert 0.4 < samples.count(1) / len(samples) < 0.62

    def test_random_nibble_finds_cut_on_barbell(self):
        g = barbell_expanders(16, degree=6, seed=2)
        params = NibbleParameters.practical(g, 0.1)
        cut = parallel_nibble(g, params, num_instances=6, rng=1)
        assert cut is not None
        assert cut.conductance <= params.phi

    def test_random_nibble_none_on_expander(self):
        g = random_regular_graph(20, 6, seed=1)
        params = NibbleParameters.practical(g, 0.05, max_t0=120)
        assert random_nibble(g, params, rng=3) is None


class TestNearlyMostBalancedSparseCut:
    def test_matches_exact_on_dumbbell(self):
        g = dumbbell_cliques(6, 1)  # n = 13: exact enumeration feasible
        exact = most_balanced_sparse_cut_exact(g, 0.2)
        found = nearly_most_balanced_sparse_cut(g, 0.2, seed=5)
        assert not found.is_empty
        assert found.conductance <= 0.2
        # Theorem 3 balance guarantee: within a factor 2 of the optimum.
        assert found.balance >= exact.balance / 2.0

    def test_balanced_bridge_cut_on_barbell(self):
        g = barbell_expanders(32, seed=1)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=7)
        assert not found.is_empty
        assert found.conductance <= 0.1
        assert found.balance >= 0.4  # the bridge cut has balance 1/2

    def test_unbalanced_bridge_found(self):
        g = unbalanced_bridged_expanders(12, 36, degree=6, seed=4)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=9)
        assert not found.is_empty
        assert found.conductance <= 0.1
        # the planted cut isolates the small side
        small = {v for v in g.vertices() if v[0] == "S"}
        assert found.cut == frozenset(small)

    def test_certifies_no_cut_on_expander(self):
        g = random_regular_graph(24, 6, seed=3)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=5)
        assert found.is_empty
        assert found.certified_no_cut
        assert found.balance == 0.0

    def test_rounds_are_charged(self):
        g = barbell_expanders(16, degree=6, seed=2)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=3)
        assert found.report.total_rounds > 0

    def test_result_measured_in_input_graph(self):
        g = barbell_expanders(16, degree=6, seed=2)
        found = nearly_most_balanced_sparse_cut(g, 0.1, seed=3)
        assert found.conductance == pytest.approx(g.conductance_of_cut(found.cut))
        assert found.cut_size == g.cut_size(found.cut)
        assert found.balance == pytest.approx(g.balance_of_cut(found.cut))


class TestCSRGraphInput:
    """A plain ``CSRGraph`` is a graph every entry point accepts: the
    sparse cut and the batch entry points wrap it in its all-alive view
    and return exactly what the dict graph it snapshots gives."""

    @staticmethod
    def signature(found):
        return (
            found.cut,
            found.conductance,
            found.balance,
            found.cut_size,
            found.certified_no_cut,
            found.batches,
            found.report.total_rounds,
        )

    @pytest.mark.parametrize("k", [3, 6])
    def test_sparse_cut(self, k):
        graph = ring_of_cliques(k, 8)
        found = nearly_most_balanced_sparse_cut(CSRGraph.from_graph(graph), 0.1, seed=1)
        assert not found.is_empty
        expected = nearly_most_balanced_sparse_cut(graph, 0.1, seed=1)
        assert self.signature(found) == self.signature(expected)

    @pytest.mark.parametrize("k", [3, 6])
    def test_batch_entry_points(self, k):
        graph = ring_of_cliques(k, 8)
        snapshot = CSRGraph.from_graph(graph)
        params = NibbleParameters.practical(graph, 0.1)
        cuts = parallel_nibble_cuts(snapshot, params, 4, rng=1)
        assert cuts
        assert cuts == parallel_nibble_cuts(graph, params, 4, rng=1)
        assert random_nibble(snapshot, params, rng=1) == random_nibble(
            graph, params, rng=1
        )


class TestCutApplication:
    """Theorem 3's loop applying hand-made batch harvests.

    On dumbbell_cliques(5, 2) the left clique with the path has volume 25
    and the right clique 21, of 46.  The search is driven one batch at a
    time; each batch's request shows the working graph it would run on.
    """

    graph = dumbbell_cliques(5, 2)
    left = frozenset([("L", i) for i in range(5)] + [("P", 0), ("P", 1)])
    right = frozenset(("R", i) for i in range(5))

    def cut(self, vertices, conductance):
        return NibbleCut(
            vertices=frozenset(vertices),
            conductance=conductance,
            volume=self.graph.volume(vertices),
            cut_size=1,
            time_step=1,
            prefix_index=len(vertices),
            scale=1,
            start=next(iter(vertices)),
        )

    def drive(self, batches, **kwargs):
        """Answer each request with the next batch's cuts; returns the
        result and the alive labels of every requested working graph."""
        views = []
        with precheck_off():
            search = sparse_cut_search(
                self.graph, 0.1, seed=1, num_instances=2, **kwargs
            )
            request = next(search)
            for cuts in batches:
                view = request.view
                labels = view.vertices
                views.append({labels[i] for i in view.alive_indices().tolist()})
                try:
                    request = search.send(
                        [(i, 1, c) for i, c in enumerate(cuts)]
                    )
                except StopIteration as stop:
                    assert len(views) == len(batches), "the search stopped early"
                    return stop.value, views
        pytest.fail("the search asked for more batches")

    def test_big_side_cut_is_flipped_to_its_complement(self):
        result, views = self.drive(
            [[self.cut(self.left, 0.01)], [], []], balance_target=0.5
        )
        # S took the right clique, so the left side stays to be searched
        assert views[1] == self.left
        assert result.cut == self.right
        assert result.batches == 3

    def test_cut_swallowed_by_an_earlier_flip_is_skipped(self):
        inside_right = [("R", 1), ("R", 2)]
        result, views = self.drive(
            [
                [self.cut(self.left, 0.01), self.cut(inside_right, 0.02)],
                [],
                [],
            ],
            balance_target=0.5,
        )
        # Applying the swallowed cut too would count its volume twice and
        # reach the balance target after the first batch.
        assert views[1] == self.left
        assert result.cut == self.right
        assert result.batches == 3

    def test_cut_with_empty_complement_is_skipped_and_counts_a_failure(self):
        everything = self.left | self.right
        result, views = self.drive([[self.cut(everything, 0.01)], []])
        assert views == [everything, everything]
        assert result.certified_no_cut and result.is_empty
        assert result.batches == 2

    def test_flip_is_judged_against_the_volume_left_in_the_batch(self):
        left_clique = [("L", i) for i in range(5)]
        result, views = self.drive(
            [[self.cut(self.right, 0.01), self.cut(left_clique, 0.02)]],
            balance_target=0.5,
        )
        # Vol 21 of the 46 is at most half of the view, but more than half
        # of the 25 the right clique left: the left clique flips to the
        # path, S = right clique + path (25 of 46), reported as its small
        # side.
        assert result.cut == frozenset(left_clique)
        assert result.batches == 1


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "phi",
        [float("nan"), float("inf"), -0.2, 0.0, 1.5, 2.0],
        ids=["nan", "inf", "negative", "zero", "above_one", "two"],
    )
    def test_bad_phi_raises_naming_phi(self, phi):
        with pytest.raises(ValueError, match="phi"):
            nearly_most_balanced_sparse_cut(dumbbell_cliques(4, 3), phi, seed=1)

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("num_instances", -1),
            ("num_instances", 0),
            ("num_instances", 2.5),
            ("max_failures", 0),
            ("max_failures", -3),
            ("max_failures", None),
            ("balance_target", 0.0),
            ("balance_target", -0.5),
            ("balance_target", float("nan")),
            ("balance_target", float("inf")),
        ],
    )
    def test_vacuous_tuning_argument_raises_instead_of_certifying(
        self, argument, value
    ):
        """Each of these used to end the search before any instance ran and
        return the empty "no sparse cut" certificate — on a ring with six
        planted sparse cuts.  The check runs before the seed is touched."""
        rng = ensure_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=argument):
            nearly_most_balanced_sparse_cut(
                ring_of_cliques(6, 8), 0.1, seed=rng, **{argument: value}
            )
        assert rng.bit_generator.state == state

    def test_in_range_tuning_arguments_still_find_the_ring_cuts(self):
        found = nearly_most_balanced_sparse_cut(
            ring_of_cliques(6, 8),
            0.1,
            seed=1,
            num_instances=1,
            max_failures=1,
            balance_target=1e-9,
        )
        assert not found.is_empty

    @pytest.mark.parametrize("t0_override", [-3, 0, 2.7], ids=["negative", "zero", "float"])
    def test_bad_t0_override_raises_naming_it(self, t0_override):
        """A non-positive walk length used to certify "no sparse cut" on a
        ring with six planted cuts (or divide by zero); a float was
        silently truncated."""
        with pytest.raises(ValueError, match="t0_override"):
            NibbleParameters.practical(ring_of_cliques(6, 8), 0.1, t0_override=t0_override)
        with pytest.raises(ValueError, match="t0_override"), precheck_off():
            nearly_most_balanced_sparse_cut(
                ring_of_cliques(6, 8),
                0.1,
                seed=1,
                num_instances=6,
                params_overrides={"t0_override": t0_override},
            )

    def test_positive_t0_override_is_the_walk_length(self):
        params = NibbleParameters.practical(ring_of_cliques(6, 8), 0.1, t0_override=7)
        assert params.t0 == 7
