"""Parity suite for the certification fast path.

The fast path — spectral pre-checks that skip provably-failing
ParallelNibble batches and batched sibling-component eigensolves — and
the triangle workload's decomposition cache are a pure performance
layer that is always on: each must be output-neutral, bit for bit.  The
pre-check has no switch, so these tests patch it off
(:func:`diffharness.precheck_off`) as the oracle (the decomposition- and
sparse-cut-level on/off parity lives in
``tests/differential/test_pipeline.py``, asserted across the full
backend matrix):

* sparse cuts and decompositions identical with the pre-check patched
  off, so every batch it skips runs — decompositions also at each small
  ``bench/decompose.py`` family's own ε and φ;
* triangle sets and level records identical with and without a
  :class:`~repro.triangles.workload.DecompositionCache`, cold and warm;
* the spectral pre-check itself: a sound lower bound (never above the
  exact conductance), certificates that reproduce ``certify_conductance``
  exactly, and batch-skipping observable where it must fire.
"""

import numpy as np
import pytest

from diffharness import precheck_off
from repro.decomposition import expander_decomposition, nearly_most_balanced_sparse_cut
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    complete_graph,
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.metrics import graph_conductance_exact
from repro.graphs.peel import PeeledCSR
from repro.graphs.spectral import (
    PRECHECK_MARGIN,
    batched_component_certificates,
    certify_conductance,
    conductance_lower_bound,
)
from repro.triangles import DecompositionCache, decomposition_triangle_enumeration
from repro.utils.rng import ensure_rng


def family_graphs():
    """The benchmark families the parity contract is pinned on."""
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted_partition", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
    ]


#: ``bench/decompose.py``'s (ε, φ) per family; with seed 7, the graphs of
#: :func:`family_graphs` are its ``families(7)``.
BENCH_SETTINGS = {
    "ring_of_cliques": (0.10, 0.10),
    "barbell": (0.10, 0.10),
    "planted_partition": (0.20, 0.10),
    "power_law": (0.30, 0.05),
}


# TestDecompositionParity and TestSparseCutParity moved to
# tests/differential/test_pipeline.py: the pre-check on/off parity they
# pinned is now asserted across the full backend matrix (both kernels /
# int32 / int64 / mmap / permuted scheduling) by assert_pipeline_identical,
# and the clique-specific pre-check cases live on there verbatim.


class TestPrecheckNeutrality:
    """The fast path is the spectral pre-check alone; patching the
    pre-check off (a bound that never clears φ, no sibling hints) runs every
    batch it would have skipped, and must return the same outputs."""

    def test_sparse_cut_identical_with_precheck_off(self):
        # Two expanders, whose every batch the pre-check skips.
        graphs = family_graphs() + [
            ("complete", complete_graph(10)),
            ("regular", random_regular_graph(40, 6, seed=3)),
        ]
        on = [nearly_most_balanced_sparse_cut(g, 0.1, seed=3) for _, g in graphs]
        with precheck_off():
            off = [nearly_most_balanced_sparse_cut(g, 0.1, seed=3) for _, g in graphs]
        assert sum(r.precheck_skips for r in on) > 0  # the pre-check fired
        assert all(r.precheck_skips == 0 for r in off)
        for (name, _), a, b in zip(graphs, on, off):
            assert (a.cut, a.certified_no_cut, a.batches, a.cut_size) == (
                b.cut, b.certified_no_cut, b.batches, b.cut_size
            ), name

    @pytest.mark.parametrize(
        "settings,seed",
        [(dict.fromkeys(BENCH_SETTINGS, (0.2, 0.1)), 11), (BENCH_SETTINGS, 7)],
        ids=["fixed", "bench"],
    )
    def test_decomposition_identical_with_precheck_off(self, settings, seed):
        def record(result):
            components = [
                (sorted(map(repr, c.vertices)), c.certified, c.conductance_estimate)
                for c in result.components
            ]
            return sorted(components), sorted(map(repr, result.cut_edges))

        on = [
            expander_decomposition(g, *settings[name], seed=seed)
            for name, g in family_graphs()
        ]
        assert sum(r.precheck_skips for r in on) > 0  # the pre-check fired
        for (name, g), a in zip(family_graphs(), on):
            with precheck_off():
                b = expander_decomposition(g, *settings[name], seed=seed)
            assert b.precheck_skips == 0, name
            assert record(a) == record(b), name


class TestSpectralPrecheck:
    def test_lower_bound_is_sound_on_random_graphs(self):
        """λ₂/2 must never exceed the exact conductance (Cheeger)."""
        rng = ensure_rng(0)
        for trial in range(20):
            g = erdos_renyi_graph(10, 0.4, seed=int(rng.integers(1 << 30)))
            if g.num_vertices < 2 or g.total_volume() == 0:
                continue
            bound, cert = conductance_lower_bound(g)
            exact = graph_conductance_exact(g).conductance
            assert bound <= exact + PRECHECK_MARGIN, trial
            if cert is not None:
                assert cert.exact
                assert cert.cheeger_lower_bound == bound

    def test_certificate_reproduces_certify_conductance(self):
        for name, g in family_graphs():
            for phi in (0.05, 0.1, 0.5):
                bound, cert = conductance_lower_bound(g, phi)
                assert cert is not None
                assert certify_conductance(g, phi, precomputed=cert) == (
                    certify_conductance(g, phi)
                ), (name, phi)

    def test_masked_certify_matches_dict_certify(self):
        """Certification off a peeled view equals certification of the
        materialised G{U}, bit for bit — estimate and witness included."""
        for name, g in family_graphs():
            vertices = sorted(g.vertices(), key=repr)
            subset = frozenset(vertices[: (2 * len(vertices)) // 3])
            base = CSRGraph.from_graph(g)
            view = PeeledCSR.for_subset(base, (base.index[v] for v in subset))
            guq = g.induced_with_loops(subset)
            for phi in (0.05, 0.1, 0.5):
                assert certify_conductance(view, phi) == certify_conductance(
                    guq, phi
                ), (name, phi)

    def test_batched_certificates_match_solo_solves(self):
        """The stacked-eigh sibling solves are bit-identical to solo ones."""
        g = ring_of_cliques(5, 8)
        for u, v in list(g.edges()):
            if u[0] != v[0]:
                g.remove_edge_with_loops(u, v)  # five isolated cliques
        view = PeeledCSR.from_graph(g)
        pieces = view.connected_components()
        hints = batched_component_certificates(view, pieces)
        assert all(h is not None and h.exact for h in hints)
        for piece, hint in zip(pieces, hints):
            solo_bound, solo_cert = conductance_lower_bound(g.induced_with_loops(piece))
            assert solo_cert is not None
            assert hint.lam2 == solo_cert.lam2
            assert hint.scores == solo_cert.scores

    def test_iterative_bound_fires_on_large_expander_only(self):
        g = barbell_expanders(640, degree=8, seed=7)
        base = CSRGraph.from_graph(g)
        half = [v for v in g.vertices() if v[0] == "L"]
        view = PeeledCSR.for_subset(base, (base.index[v] for v in half))
        bound, cert = conductance_lower_bound(view, 0.1)
        assert cert is None  # iterative path: estimate only, never reused
        assert bound > 0.1  # a genuine expander clears φ
        full_bound, _ = conductance_lower_bound(PeeledCSR.full(base), 0.1)
        assert full_bound <= 0.1  # the bridge cut keeps the bound down

    def test_iterative_bound_is_sound_above_dense_limit(self):
        """Regression: an unconverged power-iteration screen overestimates
        λ₂ on clustered graphs (observed 3–4×); a skip must stand on the
        converged solve, so the returned bound can never exceed the true
        λ₂/2 by more than solver tolerance — even for tiny φ targets."""
        g = Graph()
        clusters, size = 4, 150  # 600 vertices: above PRECHECK_DENSE_LIMIT
        for c in range(clusters):
            for i in range(size):
                for j in range(i + 1, i + 6):  # sparse ring-ish cluster
                    g.add_edge((c, i), (c, j % size))
        for c in range(clusters):  # one weak edge between adjacent clusters
            g.add_edge((c, 0), ((c + 1) % clusters, size // 2))
        # ground truth from the dense machine-precision path
        from repro.graphs.spectral import fiedler_scores

        _, lam2_exact = fiedler_scores(g)
        for phi in (lam2_exact, 2.0 * lam2_exact, 1e-4, 1e-3):
            bound, _ = conductance_lower_bound(g, phi)
            assert bound <= lam2_exact / 2.0 + 1e-9, (phi, bound, lam2_exact)


class TestDecompositionCache:
    def test_cached_and_uncached_queries_identical(self):
        for name, g in family_graphs():
            plain = decomposition_triangle_enumeration(g, 0.2, 0.1, seed=7)
            cache = DecompositionCache()
            cold = decomposition_triangle_enumeration(g, 0.2, 0.1, seed=7, cache=cache)
            warm = decomposition_triangle_enumeration(g, 0.2, 0.1, seed=7, cache=cache)
            assert plain.triangles == cold.triangles == warm.triangles, name
            level_record = lambda r: [
                (l.level, l.num_vertices, l.num_edges, l.num_clusters,
                 l.triangles_found, l.removed_edges, l.direct)
                for l in r.levels
            ]
            assert level_record(plain) == level_record(cold) == level_record(warm)
            assert cache.hits > 0

    def test_cache_misses_across_different_parameters(self):
        g = ring_of_cliques(4, 8)
        cache = DecompositionCache()
        decomposition_triangle_enumeration(g, 0.2, 0.1, seed=7, cache=cache)
        decomposition_triangle_enumeration(g, 0.2, 0.1, seed=8, cache=cache)
        # a different seed is a different RNG state: it must not hit
        assert cache.hits == 0
        warm = decomposition_triangle_enumeration(g, 0.2, 0.1, seed=7, cache=cache)
        assert cache.hits > 0
        assert warm.verified

    def test_cache_restores_rng_stream_on_hit(self):
        g = ring_of_cliques(4, 8)
        cache = DecompositionCache()
        states = []
        for _ in range(2):
            rng = ensure_rng(99)
            decomposition_triangle_enumeration(g, 0.2, 0.1, seed=rng, cache=cache)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    def test_cache_eviction_keeps_bound(self):
        cache = DecompositionCache(max_entries=2)
        for k in range(4):
            g = ring_of_cliques(2, 4 + k)
            cache.snapshot(g)
        assert len(cache._snapshots) <= 2

    def test_edge_keys_memoised_on_snapshot(self):
        g = ring_of_cliques(3, 8)
        csr = CSRGraph.from_graph(g)
        keys = csr.directed_edge_keys()
        assert csr.directed_edge_keys() is keys
        expected = (
            np.repeat(np.arange(csr.n, dtype=np.int64), csr.proper_degree)
            * np.int64(csr.n)
            + csr.indices
        )
        assert np.array_equal(keys, expected)
