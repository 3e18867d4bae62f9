"""The pre-check's screen keeps its bytes, and scipy's CSR kernel keeps its sums.

Above ``PRECHECK_DENSE_LIMIT`` the pre-check first runs a deflated power
iteration (``spectral._iterative_cheeger_bound``) whose value decides
whether the converged Lanczos solve runs at all; a screen value that moves
can move a batch skip.  ``tests/data/lanczos/screen_digests.json`` pins the
screen's return value, as float hex, at φ ∈ {None, 0.01, 0.3} on the
compacted forms of the 30 power-law views of ``tests/test_lanczos_digests.py``.
The digests were written by the screen that multiplied through the
``scipy.sparse`` ``@`` operator and allocated every temporary afresh
(``python tests/test_screen_digests.py <file>`` run against that code);
writing them again with the current code would only re-pin the current
build, so they are never rewritten.

The Lanczos solve and the screen call scipy's ``csr_matvec`` kernel
directly, without the operator's dispatch.  The second half of this file
checks, on the same views, that the direct call into a zeroed output is
byte-equal to ``shifted @ x`` and to ``adjacency @ y``, so a scipy release
that changes its ``_sparsetools`` kernel or the operator's summation fails
here rather than moving a digest silently.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from test_lanczos_digests import GRAPHS, VIEWS, case_key, cases, float_hex, make_view

from repro.graphs import spectral

FIXTURE = Path(__file__).resolve().parent / "data" / "lanczos" / "screen_digests.json"

#: The φ values the screen is pinned at (``None`` runs every block).
SCREEN_PHIS = (None, 0.01, 0.3)


def screen_record(view) -> dict:
    compact = view.compact().base
    return {
        str(phi): float_hex(spectral._iterative_cheeger_bound(compact, phi))
        for phi in SCREEN_PHIS
    }


def write_fixture(target: Path) -> None:
    digests = {case_key(*case): screen_record(make_view(*case)) for case in cases()}
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(case_key(*case) for case in cases())


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g[0]}-e{g[1]}-s{g[2]}")
def test_screen_keeps_its_bytes(expected, graph):
    mismatched = {}
    for kind in VIEWS:
        key = case_key(*graph, kind)
        got = screen_record(make_view(*graph, kind))
        if got != expected[key]:
            mismatched[key] = (got, expected[key])
    assert mismatched == {}


def kernel_product(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` through scipy's ``csr_matvec`` into a zeroed output."""
    from scipy.sparse._sparsetools import csr_matvec

    rows, cols = matrix.shape
    out = np.zeros(rows)
    csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


@pytest.mark.parametrize("kind", VIEWS)
def test_direct_csr_matvec_matches_the_operator(kind):
    rng = np.random.default_rng(11)
    for n, exponent, seed in GRAPHS:
        compact = make_view(n, exponent, seed, kind).compact().base
        shifted = spectral._shifted_laplacian(compact)
        adjacency = spectral._unit_adjacency(compact)
        x = rng.standard_normal(compact.n)
        for matrix in (shifted, adjacency):
            want = matrix @ x
            assert kernel_product(matrix, x).tobytes() == want.tobytes(), (n, seed, kind)
            out = np.full(compact.n, np.nan)
            spectral._csr_product(matrix)(x, out)
            assert out.tobytes() == want.tobytes(), (n, seed, kind)
        # The screen's norms: np.linalg.norm of a 1-d float array is
        # sqrt(x.dot(x)), which math.sqrt(x @ x) reproduces bit for bit.
        assert math.sqrt(x @ x) == np.linalg.norm(x)


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
