"""Randomized balance harness: Theorem 3 output vs exhaustive ground truth.

The ROADMAP's open item: property-test the nearly most balanced sparse cut
against ``most_balanced_sparse_cut_exact`` on every graph small enough to
enumerate (n ≤ 16).  Two kinds of pinning:

* *soundness* (deterministic, every run): whatever cut the algorithm
  returns really is a cut of the input graph with exactly the reported
  statistics, and its balance can never exceed the exhaustive optimum at
  its own conductance level — the exact enumerator dominates by
  construction;
* *recall* (seeded, structured instances): on instances whose sparsest
  cut is unambiguous — dumbbells, rings of cliques, and two-community
  planted partitions, all within the exhaustive n ≤ 16 window — the
  returned balance achieves Theorem 3's factor-two guarantee against the
  exact optimum.

Both batch kernels run the same harness: lockstep rows and one workspace
walk per draw must return identical cuts (cut-identity is the kernels'
contract), so the guarantees transfer.  The frozen dict-oracle cuts of
these random graphs live in ``tests/differential/oracle_signatures.json``
and are checked by ``tests/differential/test_pipeline.py``.
"""

from __future__ import annotations

import pytest

from repro.decomposition import nearly_most_balanced_sparse_cut
from repro.graphs.generators import (
    dumbbell_cliques,
    erdos_renyi_graph,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.metrics import most_balanced_sparse_cut_exact
from repro.graphs.peel import PeeledCSR


def small_random_graphs():
    """Random graphs with n ≤ 16, skipping edgeless draws."""
    graphs = []
    for seed in range(14):
        g = erdos_renyi_graph(10 + seed % 7, 0.3, seed=seed)
        if g.num_edges > 0:
            graphs.append((seed, g))
    return graphs


class TestSoundness:
    @pytest.mark.parametrize("phi", [0.15, 0.3])
    def test_reported_statistics_match_the_graph(self, phi):
        for seed, g in small_random_graphs():
            found = nearly_most_balanced_sparse_cut(g, phi, seed=seed)
            if found.is_empty:
                assert found.certified_no_cut
                assert found.balance == 0.0
                continue
            assert found.conductance == pytest.approx(
                g.conductance_of_cut(found.cut)
            )
            assert found.balance == pytest.approx(g.balance_of_cut(found.cut))
            assert found.cut_size == g.cut_size(found.cut)

    @pytest.mark.parametrize("phi", [0.15, 0.3])
    def test_never_beats_the_exact_optimum(self, phi):
        """Any returned cut has conductance Φ₀; the exhaustive most balanced
        cut among all cuts with conductance ≤ Φ₀ bounds its balance."""
        for seed, g in small_random_graphs():
            found = nearly_most_balanced_sparse_cut(g, phi, seed=seed)
            if found.is_empty:
                continue
            exact = most_balanced_sparse_cut_exact(g, found.conductance)
            assert not exact.is_empty  # found's own cut qualifies
            assert found.balance <= exact.balance + 1e-12

    def test_lockstep_and_workspace_kernels_agree_on_the_harness(self, kernel):
        for seed, g in small_random_graphs()[:6]:
            with kernel("lockstep"):
                lockstep_found = nearly_most_balanced_sparse_cut(g, 0.3, seed=seed)
            with kernel("workspace"):
                workspace_found = nearly_most_balanced_sparse_cut(
                    PeeledCSR.from_graph(g), 0.3, seed=seed
                )
            assert lockstep_found.cut == workspace_found.cut
            assert lockstep_found.batches == workspace_found.batches
            assert lockstep_found.conductance == workspace_found.conductance
            assert (
                lockstep_found.certified_no_cut == workspace_found.certified_no_cut
            )


class TestRecall:
    @pytest.mark.parametrize("clique_size,path_length", [(5, 1), (6, 1), (5, 3)])
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_factor_two_balance_on_dumbbells(self, clique_size, path_length, seed):
        """Theorem 3's guarantee on instances where the sparse cut is real:
        the returned balance is within a factor two of the exact optimum."""
        g = dumbbell_cliques(clique_size, path_length)
        exact = most_balanced_sparse_cut_exact(g, 0.2)
        assert exact.balance > 0  # the dumbbell waist is a 0.2-sparse cut
        found = nearly_most_balanced_sparse_cut(g, 0.2, seed=seed)
        assert not found.is_empty
        assert found.conductance <= 0.2
        assert found.balance >= exact.balance / 2.0

    @pytest.mark.parametrize("num_cliques,clique_size", [(3, 5), (4, 4)])
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_factor_two_balance_on_rings_of_cliques(
        self, num_cliques, clique_size, seed
    ):
        """Ring instances have many equally good sparse cuts (any arc of
        cliques); the harness must still land within a factor two of the
        most balanced one rather than stopping at a single clique."""
        g = ring_of_cliques(num_cliques, clique_size)
        exact = most_balanced_sparse_cut_exact(g, 0.2)
        assert exact.balance > 0  # cutting an arc of cliques is 0.2-sparse
        found = nearly_most_balanced_sparse_cut(g, 0.2, seed=seed)
        assert not found.is_empty
        assert found.conductance <= 0.2
        assert found.balance >= exact.balance / 2.0

    @pytest.mark.parametrize("graph_seed", [1, 3, 5, 9])
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_factor_two_balance_on_planted_partitions(self, graph_seed, seed):
        """Two dense communities with a sparse crossing: the planted cut is
        nearly perfectly balanced, so factor-two recall here rules out the
        failure mode of returning one tiny well-separated pocket."""
        g = planted_partition_graph(2, 8, 0.9, 0.05, seed=graph_seed)
        exact = most_balanced_sparse_cut_exact(g, 0.2)
        assert exact.balance > 0  # the planted bisection is 0.2-sparse
        found = nearly_most_balanced_sparse_cut(g, 0.2, seed=seed)
        assert not found.is_empty
        assert found.conductance <= 0.2
        assert found.balance >= exact.balance / 2.0
