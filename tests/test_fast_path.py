"""Parity suite for the certification fast path.

The fast path — spectral pre-checks that skip provably-failing
ParallelNibble batches and batched sibling-component eigensolves — is a
pure performance layer that is always on: it must be output-neutral, bit
for bit.  The pre-check has no switch, so these tests patch it off
(:func:`diffharness.precheck_off`) as the oracle (the decomposition- and
sparse-cut-level on/off parity lives in
``tests/differential/test_pipeline.py``, asserted across the full
backend matrix):

* sparse cuts and decompositions identical with the pre-check patched
  off, so every batch it skips runs — decompositions also at each small
  ``bench/decompose.py`` family's own ε and φ;
* the spectral pre-check itself: a sound lower bound (never above the
  exact conductance), certificates that reproduce ``certify_conductance``
  exactly, and batch-skipping observable where it must fire;
* the Lanczos route above ``DENSE_EIGH_LIMIT``: the pre-check's converged
  solve is the component's certificate, so a large component is compacted
  and solved once, with outputs identical to solving it again.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg
from scipy.sparse.linalg import ArpackNoConvergence

import repro.decomposition.expander as expander_module
from diffharness import generator_families, precheck_off
from oracle_fixture import EPSILON, PHI, SEED
from repro.decomposition import expander_decomposition, nearly_most_balanced_sparse_cut
from repro.graphs import spectral
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    complete_graph,
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_csr,
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


#: The ``powerlaw_mmap`` benchmark workload's decomposition settings: at
#: φ = 0.01 the pre-check certifies every component of its n = 5 000
#: power-law graphs, the ≈4 900-vertex giant through the Lanczos route.
POWERLAW_SETTINGS = {
    "epsilon": 0.2,
    "phi": 0.01,
    "seed": 7,
    "max_depth": 4,
    "sparse_cut_kwargs": {"num_instances": 4, "params_overrides": {"max_t0": 60}},
}


def powerlaw_5000():
    """One of the ``powerlaw_mmap`` workload's graphs."""
    return power_law_csr(5000, exponent=2.0, seed=7)


def spy_on(monkeypatch, owner, name, key):
    """Wrap ``owner.name`` so every call records ``key(first argument)``.

    Returns the list the keys are appended to, in call order.
    """
    calls = []
    real = getattr(owner, name)

    def spy(first, *args, **kwargs):
        calls.append(key(first))
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@contextmanager
def lanczos_reuse_off():
    """Scope in which the final check drops pre-check Lanczos certificates.

    Every large component is then compacted and solved a second time by
    :func:`~repro.graphs.spectral.certify_conductance` itself, so a run in
    this scope is the oracle for the reuse: with the pre-check still on,
    everything it returns — reports and ``precheck_skips`` included — must
    be identical.
    """
    real = expander_module.certify_conductance

    def solve_again(graph, phi, precomputed=None):
        if precomputed is not None and precomputed.solver == "lanczos":
            precomputed = None
        return real(graph, phi, precomputed)

    expander_module.certify_conductance = solve_again
    try:
        yield
    finally:
        expander_module.certify_conductance = real


def output_record(result):
    """Components (with estimates and levels) and cut edges of a decomposition."""
    components = sorted(
        (sorted(map(repr, c.vertices)), c.certified, c.conductance_estimate, c.level)
        for c in result.components
    )
    return components, sorted(map(repr, result.cut_edges))


def full_record(result):
    """:func:`output_record` plus the round report and the pre-check skips."""
    return output_record(result), result.report, result.precheck_skips


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

    @staticmethod
    def assert_lanczos_route_neutral(monkeypatch, name, graph, **settings):
        """One decomposition against both oracles: the pre-check patched off
        (same components, estimates and cut edges, every skipped batch run)
        and the Lanczos certificates dropped (identical in everything).
        Returns the number of Lanczos solves the reuse saved."""
        with monkeypatch.context() as patch:
            solves = spy_on(patch, spectral, "_lambda2_eigsh", lambda g: g.n)
            on = expander_decomposition(graph, **settings)
            reused = len(solves)
            with lanczos_reuse_off():
                again = expander_decomposition(graph, **settings)
            solved_again = len(solves) - reused
        with precheck_off():
            off = expander_decomposition(graph, **settings)
        assert full_record(on) == full_record(again), name
        assert output_record(on) == output_record(off), name
        assert off.precheck_skips == 0, name
        return solved_again - reused

    def test_lanczos_route_neutral_on_families_with_low_limits(self, monkeypatch):
        """The frozen families are too small for the Lanczos route; shrink
        both dense limits so their components take all three routes —
        dense certificates reused, pre-check Lanczos certificates ignored by
        a dense final check (9–16 vertices), and reused (17 and up)."""
        monkeypatch.setattr(spectral, "PRECHECK_DENSE_LIMIT", 8)
        monkeypatch.setattr(spectral, "DENSE_EIGH_LIMIT", 16)
        saved = 0
        for name, graph in generator_families():
            saved += self.assert_lanczos_route_neutral(
                monkeypatch, name, graph, epsilon=EPSILON, phi=PHI, seed=SEED
            )
        assert saved > 0  # some final check reused a Lanczos certificate

    def test_lanczos_route_neutral_on_benchmark_power_law(self, monkeypatch):
        saved = self.assert_lanczos_route_neutral(
            monkeypatch, "power_law_csr(5000)", powerlaw_5000(), **POWERLAW_SETTINGS
        )
        assert saved > 0  # the giant's final check reused the pre-check's solve


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
                assert cert.solver == "dense"
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
        assert all(h is not None and h.solver == "dense" for h in hints)
        for piece, hint in zip(pieces, hints):
            labels = [view.vertices[i] for i in piece]
            solo_bound, solo_cert = conductance_lower_bound(g.induced_with_loops(labels))
            assert solo_cert is not None
            assert hint.lam2 == solo_cert.lam2
            assert np.array_equal(hint.scores, solo_cert.scores)

    def test_iterative_bound_fires_on_large_expander_only(self, monkeypatch):
        g = barbell_expanders(640, degree=8, seed=7)
        base = CSRGraph.from_graph(g)
        half = [v for v in g.vertices() if v[0] == "L"]
        view = PeeledCSR.for_subset(base, (base.index[v] for v in half))
        bound, cert = conductance_lower_bound(view, 0.1)
        # The converged Lanczos solve that confirmed the bound comes back as
        # a certificate ...
        assert cert is not None and cert.solver == "lanczos"
        assert bound > 0.1  # a genuine expander clears φ
        # ... which certification ignores at 640 vertices: it solves this
        # size densely, so it runs its own eigh and no Lanczos solve.
        dense_solves = spy_on(monkeypatch, np.linalg, "eigh", lambda a: a.shape)
        lanczos_solves = spy_on(monkeypatch, spectral, "_lambda2_eigsh", lambda g: g.n)
        certified, _, witness = certify_conductance(view, 0.1, precomputed=cert)
        assert certified and witness is None
        assert dense_solves == [(640, 640)] and lanczos_solves == []
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


class TestLanczosCertificate:
    """The pre-check's converged Lanczos solve, reused by certification."""

    def test_one_solve_and_compaction_per_large_component(self, monkeypatch):
        """Regression guard: each component above DENSE_EIGH_LIMIT is
        compacted and Lanczos-solved once (the pre-check's solve is its
        certificate), not once more by the final check."""
        solves = spy_on(monkeypatch, spectral, "_lambda2_eigsh", lambda g: g.n)
        compactions = spy_on(
            monkeypatch, PeeledCSR, "compact", lambda view: view.num_vertices
        )
        result = expander_decomposition(powerlaw_5000(), **POWERLAW_SETTINGS)
        large = sorted(
            len(c) for c in result.components if len(c) > spectral.DENSE_EIGH_LIMIT
        )
        assert large  # the giant component takes the Lanczos route
        assert sorted(solves) == large
        assert sorted(n for n in compactions if n > spectral.DENSE_EIGH_LIMIT) == large

    def test_unconverged_lanczos_skips_nothing_and_certifies_nothing(
        self, monkeypatch
    ):
        """When ARPACK does not converge there is no solve to stand on: the
        pre-check does not skip and returns no certificate, certification
        returns ``(False, nan, None)``, the decomposition emits the component
        uncertified, and the plain spectral routines raise."""

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(sparse_linalg, "eigsh", no_convergence)
        g = random_regular_graph(spectral.DENSE_EIGH_LIMIT + 100, 8, seed=11)
        view = PeeledCSR.from_graph(g)
        bound, cert = conductance_lower_bound(view, 0.05)
        assert cert is None and bound <= 0.05
        certified, estimate, witness = certify_conductance(view, 0.05)
        assert not certified and math.isnan(estimate) and witness is None
        for routine in (spectral.spectral_gap, spectral.fiedler_scores):
            with pytest.raises(ArpackNoConvergence):
                routine(view)
        result = expander_decomposition(
            g,
            0.1,
            0.05,
            seed=3,
            sparse_cut_kwargs={"num_instances": 2, "params_overrides": {"max_t0": 20}},
        )
        assert [len(c) for c in result.components] == [g.num_vertices]
        assert not result.components[0].certified
        assert math.isnan(result.components[0].conductance_estimate)
        assert result.precheck_skips == 0

    @pytest.mark.parametrize("certifies", [True, False], ids=["expander", "barbell"])
    def test_reused_certificate_matches_own_solve(self, certifies):
        """Above DENSE_EIGH_LIMIT, certifying with the pre-check's Lanczos
        certificate returns exactly what certifying from scratch does —
        witness cut included when certification fails."""
        n = spectral.DENSE_EIGH_LIMIT + 100
        if certifies:
            graph = random_regular_graph(n, 8, seed=11)
        else:
            graph = barbell_expanders(n // 2, seed=7)
        for host in (graph, PeeledCSR.from_graph(graph)):
            _, cert = conductance_lower_bound(host)  # no φ: always confirms
            assert cert is not None and cert.solver == "lanczos"
            result = certify_conductance(host, 0.1, precomputed=cert)
            assert result == certify_conductance(host, 0.1)
            assert result[0] is certifies
            assert (result[2] is None) is certifies

