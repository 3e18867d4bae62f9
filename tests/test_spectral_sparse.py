"""The large-graph sparse spectral path, pinned against dense ``eigh``.

``repro.graphs.spectral`` switches from dense eigendecomposition to a
Lanczos solve above ``DENSE_EIGH_LIMIT``.  These tests run both solvers on
the same (small) graphs so the sparse Laplacian assembly, the Lanczos
solve and the threshold dispatch are all exercised in CI rather than only
in manual bench sessions.  A last test checks that scipy stays unloaded
while no working graph needs a sparse solve.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.graphs import spectral
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    random_regular_graph,
    ring_of_cliques,
)


def graphs_with_loops():
    """Test graphs including one with self loops (via G{S})."""
    g = random_regular_graph(120, 6, seed=3)
    sub = g.induced_with_loops(list(g.vertices())[:70])
    return [
        ("regular", g),
        ("ring_of_cliques", ring_of_cliques(8, 10)),
        ("barbell", barbell_expanders(48, seed=5)),
        ("G{S} with loops", sub),
    ]


class TestSparseLambda2:
    def test_lanczos_matches_dense_eigh(self):
        # _lambda2_eigsh does not itself check DENSE_EIGH_LIMIT, so the
        # Lanczos solve (including the hand-assembled sparse Laplacian with
        # its self-loop diagonal) can be pinned on dense-solvable graphs.
        for name, g in graphs_with_loops():
            dense = spectral.spectral_gap(g)
            sparse_val = spectral._lambda2_eigsh(CSRGraph.from_graph(g))[0]
            assert sparse_val == pytest.approx(dense, abs=1e-8), name

    def test_dispatch_above_threshold(self, monkeypatch):
        # Shrink the threshold so the public entry points take the sparse
        # branch on a dense-verifiable graph.
        g = barbell_expanders(48, seed=5)
        dense_gap = spectral.spectral_gap(g)
        dense_scores, dense_lam2 = spectral.fiedler_scores(g)
        monkeypatch.setattr(spectral, "DENSE_EIGH_LIMIT", 10)
        assert spectral.spectral_gap(g) == pytest.approx(dense_gap, abs=1e-8)
        scores, lam2 = spectral.fiedler_scores(g)
        assert lam2 == pytest.approx(dense_lam2, abs=1e-8)
        assert scores.shape == dense_scores.shape == (g.num_vertices,)
        # the barbell's bridge is a sparse cut, so certification at
        # phi=0.05 must fail and hand back a witness — on this path too
        certified, _, witness = spectral.certify_conductance(g, 0.05)
        assert not certified and witness
        # while a genuine expander still certifies through the sparse path
        expander = random_regular_graph(120, 6, seed=3)
        certified, _, witness = spectral.certify_conductance(expander, 0.05)
        assert certified and witness is None

    def test_certify_uses_sparse_path_on_large_graph(self):
        # One genuinely above-threshold run: a 1600-vertex expander would
        # need a 1600x1600 dense eigh otherwise.
        g = random_regular_graph(spectral.DENSE_EIGH_LIMIT + 100, 8, seed=11)
        certified, estimate, witness = spectral.certify_conductance(g, 0.05)
        assert certified and witness is None
        assert estimate > 0.05


def test_small_working_graphs_never_import_scipy():
    """scipy is imported only inside the sparse solves, so a decomposition
    whose working graphs all stay within PRECHECK_DENSE_LIMIT vertices —
    the benchmark's ring workload — never loads it (a top-level import
    would add its modules to every run's memory)."""
    script = textwrap.dedent(
        """
        import sys
        from repro.decomposition import expander_decomposition
        from repro.graphs.generators import ring_of_cliques

        result = expander_decomposition(
            ring_of_cliques(6, 8), 0.1, 0.1, seed=1, deadline=60.0,
            sparse_cut_kwargs={"num_instances": 6, "params_overrides": {"max_t0": 150}},
        )
        assert len(result.components) == 6, result.components
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
