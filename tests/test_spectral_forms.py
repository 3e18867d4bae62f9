"""Every public spectral routine on every graph form, and closed-form spectra.

``repro.graphs.spectral`` turns its input — a dict ``Graph``, a
``CSRGraph`` snapshot or a ``PeeledCSR`` view — into a view once, at entry,
and runs one implementation on it.  The same working graph ``G{S}`` held
in each of the four forms (dict, CSR snapshot, full view of the snapshot,
subset view of a larger host) must therefore give identical results from
every public routine, bit for bit, on the dense and on the Lanczos route.
With no second implementation left to compare against, the spectrum itself
is pinned against closed forms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graphs import spectral
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    power_law_csr,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR

FORMS = ["dict", "csr", "full_view", "subset_view"]

#: (name, host graph, fraction of the ``repr``-sorted vertices kept as S).
#: ring_of_cliques(4, 5) keeps 13 vertices, inside the exact-enumeration
#: limit, so the enumeration fallback of certification is covered too.
HOSTS = [
    ("ring_of_cliques(4,5)", lambda: ring_of_cliques(4, 5), 2 / 3),
    ("barbell_expanders(40)", lambda: barbell_expanders(40, seed=5), 3 / 4),
]


def in_form(host, keep: float, form: str):
    """``G{S}`` of ``host`` for the first ``keep`` of its vertices, as ``form``."""
    vertices = sorted(host.vertices(), key=repr)
    subset = vertices[: int(len(vertices) * keep)]
    if form == "subset_view":
        base = CSRGraph.from_graph(host)
        return PeeledCSR.for_subset(base, (base.index[v] for v in subset))
    working = host.induced_with_loops(subset)
    if form == "dict":
        return working
    csr = CSRGraph.from_graph(working)
    return csr if form == "csr" else PeeledCSR.full(csr)


def results(graph) -> dict:
    """Every public spectral routine's output on ``graph``, comparably."""
    scores, lam2 = spectral.fiedler_scores(graph)
    bound, cert = spectral.conductance_lower_bound(graph, 0.1)
    out = {
        "spectral_gap": spectral.spectral_gap(graph),
        "cheeger_bounds": spectral.cheeger_bounds(graph),
        "fiedler_scores": (scores.tobytes(), lam2),
        "sweep_cut": spectral.sweep_cut(graph),
        "sweep_cut(scores)": spectral.sweep_cut(graph, scores),
        "sweep_cut_conductance": spectral.sweep_cut_conductance(graph),
        "conductance_lower_bound": (
            bound,
            None if cert is None else (cert.lam2, cert.solver, cert.scores.tobytes()),
        ),
        "is_expander": spectral.is_expander(graph, 0.1),
        "effective_conductance": spectral.effective_conductance(graph),
    }
    for phi in (0.05, 0.1, 0.5):
        out[f"certify_conductance({phi})"] = spectral.certify_conductance(graph, phi)
        out[f"certify_conductance({phi}, cert)"] = spectral.certify_conductance(
            graph, phi, precomputed=cert
        )
    return out


@pytest.fixture(params=["dense", "lanczos"])
def route(request, monkeypatch):
    """Run on the default limits, or with them shrunk so every solve above
    eight alive vertices takes the compacted Lanczos route."""
    if request.param == "lanczos":
        monkeypatch.setattr(spectral, "PRECHECK_DENSE_LIMIT", 8)
        monkeypatch.setattr(spectral, "DENSE_EIGH_LIMIT", 8)
    return request.param


@pytest.mark.parametrize("name, make_host, keep", HOSTS, ids=[h[0] for h in HOSTS])
@pytest.mark.parametrize("form", FORMS[1:])
def test_every_routine_agrees_across_graph_forms(route, name, make_host, keep, form):
    host = make_host()
    expected = results(in_form(host, keep, "dict"))
    got = results(in_form(host, keep, form))
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], (route, name, form, key)


@pytest.mark.parametrize("form", FORMS)
def test_scores_are_aligned_with_alive_vertices(form):
    """The score array has one float64 entry per alive vertex."""
    graph = in_form(ring_of_cliques(4, 5), 2 / 3, form)
    view = PeeledCSR.from_graph(graph)
    scores, _ = spectral.fiedler_scores(graph)
    assert scores.dtype == np.float64
    assert scores.shape == (view.num_vertices,)
    _, cert = spectral.conductance_lower_bound(graph)
    assert cert is not None and cert.scores.shape == scores.shape


def test_misaligned_scores_raise():
    """A certificate or score array of another graph's length is refused
    rather than read as zeros."""
    host = ring_of_cliques(4, 5)
    view = in_form(host, 2 / 3, "subset_view")
    _, other = spectral.conductance_lower_bound(in_form(host, 1.0, "dict"))
    assert other is not None and other.scores.size != view.num_vertices
    with pytest.raises(ValueError):
        spectral.sweep_cut(view, other.scores)
    for phi in (0.05, 0.5):  # certified by Cheeger, and by enumeration
        with pytest.raises(ValueError):
            spectral.certify_conductance(view, phi, precomputed=other)


def degenerate_inputs():
    """Working graphs with no cut: one vertex, two isolated vertices, and a
    one-vertex subset view of a larger host."""
    base = CSRGraph.from_graph(ring_of_cliques(3, 4))
    yield "complete_graph(1)", complete_graph(1)
    yield "two_isolated", Graph(vertices=["a", "b"])
    yield "one_vertex_subset", PeeledCSR.for_subset(base, [base.index[(1, 2)]])


DEGENERATE = list(degenerate_inputs())


@pytest.mark.parametrize("name, graph", DEGENERATE, ids=[d[0] for d in DEGENERATE])
def test_degenerate_inputs_report_no_cut(name, graph):
    """Every routine agrees there is nothing to cut: zero scores aligned
    with the alive vertices and λ₂ = 0, as ``spectral_gap`` reports."""
    alive = PeeledCSR.from_graph(graph).num_vertices
    scores, lam2 = spectral.fiedler_scores(graph)
    assert scores.dtype == np.float64
    assert np.array_equal(scores, np.zeros(alive))
    assert lam2 == spectral.spectral_gap(graph) == 0.0
    assert spectral.sweep_cut(graph) == spectral.SweepCut(frozenset(), math.inf, 0.0)
    assert spectral.sweep_cut(graph, scores) == spectral.sweep_cut(graph)
    for phi in (0.1, 0.5):
        assert spectral.certify_conductance(graph, phi) == (True, math.inf, None)
        assert spectral.conductance_lower_bound(graph, phi) == (math.inf, None)


def clique_piece(peeled: bool) -> PeeledCSR:
    """One clique-chain piece of a ring of cliques, optionally after a
    Remove-j peel that leaves its boundary vertices with self loops."""
    base = CSRGraph.from_graph(ring_of_cliques(8, 6))
    view = PeeledCSR.full(base)
    if peeled:
        view.peel([base.index[(c, 0)] for c in (0, 4)])
    return view


class TestCertifiedEstimate:
    """A certified component's estimate is its sweep cut's conductance."""

    @pytest.mark.parametrize("peeled", [False, True], ids=["whole", "remove_j"])
    def test_equals_sweep_cut_on_tied_scores(self, peeled):
        """Scores with few distinct values tie often; the estimate must
        break the ties as ``sweep_cut`` does (to the smaller index)."""
        view = clique_piece(peeled)
        rng = np.random.default_rng(4)
        for _ in range(8):
            scores = rng.integers(-1, 2, view.num_vertices).astype(float)
            certificate = spectral.SpectralCertificate(
                lam2=1.0, scores=scores, solver="dense"
            )
            certified, estimate, witness = spectral.certify_conductance(
                view, 0.1, precomputed=certificate
            )
            assert certified and witness is None
            assert estimate == spectral.sweep_cut(view, scores).conductance

    @pytest.mark.parametrize("peeled", [False, True], ids=["whole", "remove_j"])
    def test_equals_sweep_cut_on_fiedler_scores(self, peeled):
        view = clique_piece(peeled)
        scores, lam2 = spectral.fiedler_scores(view)
        certified, estimate, _ = spectral.certify_conductance(view, lam2 / 4)
        assert certified
        assert estimate == spectral.sweep_cut(view, scores).conductance
        assert estimate == spectral.sweep_cut_conductance(view)

    def test_equals_sweep_cut_on_the_lanczos_route(self):
        graph = power_law_csr(2000, exponent=2.0, seed=0)
        giant = max(PeeledCSR.full(graph).connected_components(), key=len)
        view = PeeledCSR.for_subset(graph, giant)
        assert view.num_vertices > spectral.DENSE_EIGH_LIMIT
        scores, _ = spectral.fiedler_scores(view)
        certified, estimate, _ = spectral.certify_conductance(view, 0.01)
        assert certified
        assert estimate == spectral.sweep_cut(view, scores).conductance

    def test_scores_of_another_length_raise(self):
        view = clique_piece(True)
        for size in (view.num_vertices - 1, view.num_vertices + 1):
            scores = np.zeros(size)
            with pytest.raises(ValueError):
                spectral.sweep_cut(view, scores)
            certificate = spectral.SpectralCertificate(
                lam2=1.0, scores=scores, solver="dense"
            )
            with pytest.raises(ValueError):
                spectral.certify_conductance(view, 0.1, precomputed=certificate)


class TestClosedFormSpectra:
    """λ₂ of the normalised Laplacian against its closed form, to 1e-12."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 40])
    def test_complete_graph(self, n):
        assert spectral.spectral_gap(complete_graph(n)) == pytest.approx(
            n / (n - 1), abs=1e-12
        )

    @pytest.mark.parametrize("n", [3, 4, 9, 25, 64])
    def test_cycle_graph(self, n):
        assert spectral.spectral_gap(cycle_graph(n)) == pytest.approx(
            1 - math.cos(2 * math.pi / n), abs=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_hypercube_graph(self, d):
        assert spectral.spectral_gap(hypercube_graph(d)) == pytest.approx(
            2 / d, abs=1e-12
        )
