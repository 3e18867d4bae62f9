"""Pieces settled at the split give the per-piece path's outputs.

When a subset splits into connected pieces, the decomposition solves the
pieces' spectra in stacked ``eigh`` calls.  A piece whose dense hint
clears its search's φ would skip every batch and then certify on that same
hint, so the recursion settles it on the spot
(``expander._settle_estimates``): no search, no per-piece view, no
``certify_conductance``, and its sweep estimate comes from one array pass
per size class (``spectral.batched_sweep_conductances``).  A single-vertex
piece — isolated, or left with self loops only — admits no cut and is
settled too, certified with an infinite estimate and no level report.

The oracle is the per-piece path itself, reached by patching the settle
helper to settle nothing: components, estimates, levels, cut edges, the
round-report tree, pre-check skips and journal records must not move — on
clique hosts, power-law snapshots, in PAPER mode, at ``max_depth=0``, with
a journal, under a deadline and on a two-worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.decomposition import expander as expander_module
from repro.decomposition import expander_decomposition
from repro.graphs import spectral
from repro.graphs.generators import (
    complete_graph,
    disjoint_cliques,
    erdos_renyi_graph,
    path_graph,
    power_law_csr,
    ring_of_cliques,
    union_of_graphs,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.peel import PeeledCSR
from repro.nibble.parameters import ParameterMode
from repro.resilience import Deadline, RunJournal

POWERLAW = {
    "epsilon": 0.2,
    "phi": 0.01,
    "seed": 7,
    "max_depth": 4,
    "sparse_cut_kwargs": {"num_instances": 4, "params_overrides": {"max_t0": 60}},
}
K4 = {"epsilon": 0.1, "phi": 0.1, "seed": 3}


def k4_host(count: int = 300):
    """``count`` disjoint K₄ and as many isolated vertices."""
    graph = disjoint_cliques(count, 4)
    for i in range(count):
        graph.add_vertex(("isolated", i))
    return graph


def singleton_host():
    """One K₄ beside isolated and loop-only vertices: mostly singletons."""
    graph = complete_graph(4)
    for i in range(40):
        graph.add_vertex(("isolated", i))
        graph.add_self_loops(("looped", i), 1 + i % 3)
    return graph


def k4_ring_host():
    """:func:`k4_host` plus a ring of cliques whose search runs between them.

    In ``repr`` order the isolated vertices come first, then the ring, then
    the K₄s, so a deadline that expires in the ring's search falls between
    settled siblings on either side.
    """
    graph = k4_host()
    ring = ring_of_cliques(4, 6)
    for v in ring.vertices():
        graph.add_vertex(("ring", v))
    for u, v in ring.edges():
        graph.add_edge(("ring", u), ("ring", v))
    return graph


HOSTS = {
    "k4": (k4_host, K4),
    "singletons": (singleton_host, K4),
    # Each settled piece is charged the max_failures batches it skips.
    "k4, max_failures=3": (k4_host, dict(K4, sparse_cut_kwargs={"max_failures": 3})),
    "power_law_csr(600)": (lambda: power_law_csr(600, exponent=2.0, seed=5), POWERLAW),
    "power_law_csr(5000)": (lambda: power_law_csr(5000, exponent=2.0, seed=7), POWERLAW),
}


def record(result):
    """Every output of a decomposition, the round-report tree included."""
    return (
        type(result).__name__,
        [
            (sorted(map(repr, c.vertices)), c.certified, c.conductance_estimate,
             c.level, c.unfinished)
            for c in result.components
        ],
        [tuple(map(repr, edge)) for edge in result.cut_edges],
        result.report,
        result.precheck_skips,
    )


@pytest.fixture
def settled(monkeypatch):
    """The number of pieces settled so far in the test."""
    count = [0]
    real = expander_module._settled_subtree

    def spy(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(expander_module, "_settled_subtree", spy)
    return count


def per_piece(monkeypatch, run):
    """``run()`` with the settle helper settling nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(expander_module, "_settle_estimates", lambda *args: {})
        return run()


def piece_view(view: PeeledCSR, piece: np.ndarray) -> PeeledCSR:
    """The view of one connected piece of ``view``, Remove-j loops kept."""
    own = view.clone()
    own.peel(np.setdiff1d(view.alive_indices(), piece))
    return own


class TestBatchedSweep:
    """The stacked sweep equals ``sweep_cut`` on each piece's own view."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sweep_cut_per_piece(self, seed):
        rng = np.random.default_rng(seed)
        graph = union_of_graphs(
            [erdos_renyi_graph(int(k), 0.6, seed=rng) for k in rng.integers(3, 8, 40)],
            bridge_edges=30,
            seed=rng,
        )
        view = PeeledCSR.full(CSRGraph.from_graph(graph))
        # Peeling leaves Remove-j loops, so degrees exceed proper degrees.
        view.peel(rng.choice(view.n, view.n // 5, replace=False))
        pieces = [p for p in view.connected_components() if p.size >= 2]
        by_size: dict[int, list] = {}
        for piece in pieces:
            by_size.setdefault(piece.size, []).append(piece)
        assert any(len(group) > 1 for group in by_size.values())
        for size, group in by_size.items():
            # Few distinct values, so ties are common and the smaller index
            # must win them.
            scores = [rng.integers(-2, 3, size).astype(float) for _ in group]
            got = spectral.batched_sweep_conductances(view, group, scores)
            expected = [
                spectral.sweep_cut(piece_view(view, piece), s).conductance
                for piece, s in zip(group, scores)
            ]
            assert got.tolist() == expected

    def test_hint_scores_on_clique_pieces(self):
        view = PeeledCSR.full(CSRGraph.from_graph(ring_of_cliques(5, 6)))
        view.peel(np.arange(0, view.n, 6))  # one vertex of each clique
        pieces = view.connected_components()
        hints = spectral.batched_component_certificates(view, pieces)
        got = spectral.batched_sweep_conductances(view, pieces, [h.scores for h in hints])
        for piece, hint, value in zip(pieces, hints, got.tolist()):
            assert value == spectral.sweep_cut(piece_view(view, piece), hint.scores).conductance


class TestSettleRule:
    def test_paper_mode_settles_only_what_certification_accepts(self):
        """Below depth 0 a PAPER search looks for θ far under φ, so a path
        clears the search's pre-check but not φ: it must keep the per-piece
        path (its check refutes it), while a K₄ settles."""
        graph = union_of_graphs([complete_graph(4), path_graph(10)])
        base = CSRGraph.from_graph(graph)
        view = PeeledCSR.full(base)
        pieces = view.connected_components()
        hints = spectral.batched_component_certificates(view, pieces)
        k4, path = sorted(range(2), key=lambda p: pieces[p].size)
        assert hints[path].cheeger_lower_bound < 0.1 < hints[k4].cheeger_lower_bound
        ctx = expander_module._SubtreeContext(
            base=base,
            phi=0.1,
            mode=ParameterMode.PAPER,
            schedule=[0.1, 1e-6],
            max_depth=5,
            cut_kwargs={},
            root=0,
            rank=expander_module._repr_rank(base.vertices),
        )
        assert expander_module._search_phi(ctx, 1) < hints[path].cheeger_lower_bound
        for depth in (0, 1):
            settled = expander_module._settle_estimates(ctx, view, pieces, hints, depth)
            assert sorted(settled) == [k4]
        assert expander_module._settle_estimates(ctx, view, pieces, hints, 5) == {}

    def test_singletons_settle_without_a_subtree(self, monkeypatch, settled):
        """Each isolated vertex of the K₄ host is emitted at the split: no
        subtree generator runs for it, and it files no level report."""
        subtrees: list[int] = []
        real = expander_module._recorded_subtree

        def spy(ctx, task):
            subtrees.append(task.subset.size)
            return real(ctx, task)

        monkeypatch.setattr(expander_module, "_recorded_subtree", spy)
        result = expander_decomposition(k4_host(), **K4)
        assert settled[0] == 600 and subtrees == []
        singles = [c for c in result.components if len(c) == 1]
        assert len(singles) == 300
        assert all(
            c.certified and c.conductance_estimate == float("inf") and c.level == 0
            for c in singles
        )
        assert len(result.report.children) == 300  # one per K₄


class TestSettleParity:
    @pytest.mark.parametrize("host", sorted(HOSTS))
    def test_identical_to_per_piece(self, monkeypatch, settled, host):
        make, settings = HOSTS[host]
        graph = make()
        result = expander_decomposition(graph, **settings)
        assert settled[0] > 0
        assert record(result) == record(
            per_piece(monkeypatch, lambda: expander_decomposition(graph, **settings))
        )

    def test_paper_mode(self, monkeypatch, settled):
        graph = k4_host()
        settings = dict(K4, mode=ParameterMode.PAPER, max_depth=3)
        result = expander_decomposition(graph, **settings)
        assert settled[0] > 0
        assert record(result) == record(
            per_piece(monkeypatch, lambda: expander_decomposition(graph, **settings))
        )

    @pytest.mark.parametrize("host", ["k4", "power_law_csr(600)"])
    def test_max_depth_zero_settles_nothing(self, monkeypatch, settled, host):
        make, settings = HOSTS[host]
        graph = make()
        settings = dict(settings, max_depth=0)
        result = expander_decomposition(graph, **settings)
        assert settled[0] == 0
        assert record(result) == record(
            per_piece(monkeypatch, lambda: expander_decomposition(graph, **settings))
        )

    @pytest.mark.parametrize("host", ["k4", "singletons", "power_law_csr(600)"])
    def test_journal_records_and_replays_each_piece(
        self, monkeypatch, settled, tmp_path, host
    ):
        make, settings = HOSTS[host]
        graph = make()
        progress: list[int] = []
        with RunJournal(tmp_path / "settled") as journal:
            result = expander_decomposition(
                graph, journal=journal, on_progress=progress.append, **settings
            )
            entries = {key: journal.get(key) for key in journal.keys()}
        assert settled[0] > 0
        oracle_progress: list[int] = []

        def oracle():
            with RunJournal(tmp_path / "per_piece") as journal:
                out = expander_decomposition(
                    graph, journal=journal, on_progress=oracle_progress.append, **settings
                )
                return out, {key: journal.get(key) for key in journal.keys()}

        expected, expected_entries = per_piece(monkeypatch, oracle)
        assert record(result) == record(expected)
        # One bump per emitted component on both paths.
        assert progress == oracle_progress == list(range(1, len(result.components) + 1))
        assert sorted(entries) == sorted(expected_entries)
        for key, outcome in entries.items():
            assert outcome == expected_entries[key], key
        # A journaled entry wins over settling: the resume settles nothing.
        before = settled[0]
        with RunJournal(tmp_path / "settled") as journal:
            resumed = expander_decomposition(graph, journal=journal, **settings)
        assert settled[0] == before
        assert record(resumed) == record(result)

    @pytest.mark.parametrize("host", ["k4", "singletons", "power_law_csr(600)"])
    def test_deadline_expired_at_the_split_settles_nothing(
        self, monkeypatch, settled, host
    ):
        make, settings = HOSTS[host]
        graph = make()

        def run():
            # The clock jumps past the budget as the pieces' hints are
            # solved, so the settle helper finds the deadline expired.
            now = [0.0]
            real = expander_module.batched_component_certificates

            def hints_then_expire(view, pieces):
                now[0] = 100.0
                return real(view, pieces)

            with monkeypatch.context() as patch:
                patch.setattr(
                    expander_module, "batched_component_certificates", hints_then_expire
                )
                return expander_decomposition(
                    graph, deadline=Deadline(10.0, clock=lambda: now[0]), **settings
                )

        result = run()
        assert result.partial and settled[0] == 0
        assert record(result) == record(per_piece(monkeypatch, run))

    def test_expiring_deadline_keeps_the_prefix(self, settled):
        # Every piece of k4_host settles at the split, so its run consults
        # the deadline too rarely for a tick clock to expire mid-run: the
        # ring's search supplies the ticks.
        graph = k4_ring_host()
        unbounded = expander_decomposition(graph, **K4)
        saw_partial = False
        for budget in (50, 500, 5_000):
            ticks = [0]

            def clock():
                ticks[0] += 1
                return float(ticks[0])

            bounded = expander_decomposition(
                graph, deadline=Deadline(budget, clock=clock), **K4
            )
            finished = [c for c in bounded.components if not c.unfinished]
            assert [
                (c.vertices, c.certified, c.conductance_estimate, c.level) for c in finished
            ] == [
                (c.vertices, c.certified, c.conductance_estimate, c.level)
                for c in unbounded.components[: len(finished)]
            ]
            covered = sorted(repr(v) for c in bounded.components for v in c.vertices)
            assert covered == sorted(map(repr, graph.vertices()))
            saw_partial = saw_partial or bounded.partial
        assert saw_partial and settled[0] > 0

    @pytest.mark.parametrize("host", ["k4", "singletons", "power_law_csr(5000)"])
    def test_two_workers(self, monkeypatch, settled, host):
        make, settings = HOSTS[host]
        graph = make()
        result = expander_decomposition(graph, workers=2, **settings)
        assert settled[0] > 0
        assert record(result) == record(
            per_piece(monkeypatch, lambda: expander_decomposition(graph, **settings))
        )
