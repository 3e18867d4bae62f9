"""Granular kernel parity: workspace walks and sweeps vs the dict oracle.

The pipeline matrix (test_pipeline.py) pins end-to-end identity; this
module pins the individual :class:`WalkWorkspace` kernels — truncated walk
sequences and sweep construction — step by step and field by field
against the dict walk (:mod:`repro.walks.lazy_walk`) and the dict sweep
(:mod:`repro.nibble.sweep`), so a divergence is localised to the exact
step and vector that drifted.
"""

import numpy as np
import pytest

from diffharness import dict_reference_cut, generator_families
from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSRGraph, WalkWorkspace, get_workspace
from repro.graphs.generators import barbell_expanders, erdos_renyi_graph
from repro.graphs.peel import PeeledCSR
from repro.nibble.nibble import approximate_nibble
from repro.nibble.parameters import NibbleParameters
from repro.nibble.sweep import build_sweep as dict_build_sweep
from repro.walks.lazy_walk import truncated_walk_iter as dict_walk_iter


def walk_graphs():
    """Family instances plus loop-bearing random graphs (via G{S})."""
    graphs = [g for _, g in generator_families()]
    for seed in (0, 1):
        g = erdos_renyi_graph(26, 0.2, seed=seed)
        graphs.append(g)
        rng = np.random.default_rng(seed)
        half = [v for v in g.vertices() if rng.random() < 0.5]
        if len(half) >= 2:
            graphs.append(g.induced_with_loops(half))
    return graphs


def assert_same_mass(csr, sparse, dense_dict):
    converted = csr_backend.mass_to_dict(csr, sparse)
    assert set(converted) == set(dense_dict)
    for v, mass in dense_dict.items():
        assert converted[v] == mass  # bit-identical, not approx


class TestWorkspaceWalkParity:
    def test_walk_iter_matches_dict_sequences(self):
        for g in walk_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            params = NibbleParameters.practical(g, 0.15)
            start = csr.vertices[len(csr.vertices) // 2]
            for scale in (1, params.ell):
                eps = params.epsilon_b(scale)
                dict_seq = list(dict_walk_iter(g, start, params.t0, eps))
                ws_seq = list(ws.walk_iter(csr.index[start], params.t0, eps))
                assert len(ws_seq) == len(dict_seq)
                for ws_mass, dict_mass in zip(ws_seq, dict_seq):
                    assert_same_mass(csr, ws_mass, dict_mass)

    def test_workspace_reuse_across_walks_stays_identical(self):
        """One workspace serving many walks (the production pattern) must
        give the same vectors as a fresh workspace per walk."""
        g = walk_graphs()[0]
        csr = CSRGraph.from_graph(g)
        shared = WalkWorkspace(csr)
        params = NibbleParameters.practical(g, 0.1)
        eps = params.epsilon_b(1)
        for start in range(0, csr.n, 5):
            fresh = WalkWorkspace(csr)
            for a, b in zip(
                shared.walk_iter(start, params.t0, eps),
                fresh.walk_iter(start, params.t0, eps),
            ):
                assert np.array_equal(a[0], b[0])
                assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("offset", [3, 0, -1], ids=["n+3", "n", "minus-1"])
    def test_peeled_start_raises_keyerror(self, offset):
        """Any start outside the index space is a KeyError on a snapshot
        and on a peeled view alike (``-1`` must not wrap to the last row)."""
        csr = CSRGraph.from_graph(walk_graphs()[0])
        start = -1 if offset < 0 else csr.n + offset
        for graph in (csr, PeeledCSR.full(csr)):
            with pytest.raises(KeyError):
                next(WalkWorkspace(graph).walk_iter(start, 5, 0.01))


class TestWorkspaceSweepParity:
    def masses(self, csr, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            dense = np.where(rng.random(csr.n) < 0.6, rng.random(csr.n), 0.0)
            idx = np.flatnonzero(dense)
            if idx.size:
                yield idx, dense[idx]

    def test_sweep_fields_match_dict(self):
        for seed, g in enumerate(walk_graphs()):
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            for sparse in self.masses(csr, seed):
                ws_state = ws.build_sweep(sparse)
                mass = csr_backend.mass_to_dict(csr, sparse)
                dict_state = dict_build_sweep(g, mass)
                order = [csr.vertices[int(i)] for i in ws_state.order]
                assert order == dict_state.order
                assert [dict_state.rho[v] for v in order] == list(ws_state.rho)
                assert list(ws_state.prefix_volume) == dict_state.prefix_volume
                assert list(ws_state.prefix_cut) == dict_state.prefix_cut
                assert ws_state.total_volume == dict_state.total_volume


class TestLongSweeps:
    def test_approximate_nibble_matches_dict_reference_on_long_sweeps(
        self, monkeypatch
    ):
        """The per-draw scan's candidate chain on sweeps of a thousand-plus
        entries: the barbell's walks spread over both sides, and every cut
        must still equal the dict reference's."""
        g = barbell_expanders(600, degree=8, seed=3)
        params = NibbleParameters.practical(g, 0.1, max_t0=40)
        view = PeeledCSR.from_graph(g)
        longest = 0
        build_sweep = WalkWorkspace.build_sweep

        def measured_build_sweep(workspace, mass):
            nonlocal longest
            state = build_sweep(workspace, mass)
            longest = max(longest, state.jmax)
            return state

        monkeypatch.setattr(WalkWorkspace, "build_sweep", measured_build_sweep)
        for start in (view.vertices[0], view.vertices[700]):
            for scale in (1, 5, params.ell):
                assert approximate_nibble(
                    view, start, scale, params
                ) == dict_reference_cut(g, start, scale, params)
        # the case must keep reaching sweeps this long
        assert longest > 512


class TestWorkspaceCache:
    def test_get_workspace_memoises_per_snapshot(self):
        csr = CSRGraph.from_graph(walk_graphs()[0])
        ws = get_workspace(csr)
        assert isinstance(ws, WalkWorkspace)
        assert get_workspace(csr) is ws

    def test_peel_drops_the_view_workspace(self):
        view = PeeledCSR.from_graph(walk_graphs()[0])
        ws = get_workspace(view)
        view.peel([0])
        assert get_workspace(view) is not ws
