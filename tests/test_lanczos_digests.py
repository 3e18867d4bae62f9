"""Large-component certification keeps its bytes: Lanczos, compaction, estimate.

Above ``DENSE_EIGH_LIMIT`` a component's certificate is one Lanczos solve of
``2I − L`` over its compacted CSR graph, and the certified estimate is the
sweep conductance over that solve's Fiedler embedding.  The assembly of
``2I − L``, the re-indexing in ``PeeledCSR.compact`` and the sweep may be
rewritten for speed, but none of them may move a bit: every matvec ARPACK
runs, and so λ₂, the Fiedler vector and every report built on them, depends
on the exact bytes.

``tests/data/lanczos/digests.json`` pins, on power-law graphs, per view:
the compacted arrays (``indptr``, ``indices``, ``loops``, dtypes, labels),
the λ₂ and Fiedler-vector bytes of ``_lambda2_eigsh`` on that compact
graph, the ``fiedler_scores`` bytes and ``certify_conductance``'s verdict,
estimate bytes and witness at two φ.  The views are the largest component
(what the decomposition certifies), the whole snapshot with isolated and
loop-only vertices appended (many components) and the largest component after a Remove-j peel
(vertices left with loops only).  The digests were written by the
three-step scipy assembly and the ``searchsorted`` compaction
(``python tests/test_lanczos_digests.py <file>`` run against that code);
writing them again with the current code would only re-pin the current
build, so they are never rewritten.

The old assembly also lives on here as an oracle: ``csr_matrix`` plus
``diags`` subtracted from ``2·identity``, compared array for array with the
one-pass build the solver uses.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import spectral
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import power_law_csr
from repro.graphs.peel import PeeledCSR

FIXTURE = Path(__file__).resolve().parent / "data" / "lanczos" / "digests.json"

#: ``(n, exponent, seed)`` of every pinned power-law graph.
GRAPHS = (
    (2000, 2.0, 0),
    (2000, 2.0, 1),
    (3000, 2.0, 2),
    (3000, 2.5, 3),
    (4000, 2.2, 4),
    (4000, 2.2, 5),
    (5000, 2.0, 6),
    (5000, 2.0, 7),
    (5000, 2.5, 8),
    (5000, 2.5, 9),
)
VIEWS = ("giant", "whole", "peeled")
PHIS = (0.01, 0.3)
#: Isolated and loop-only vertices appended to the "whole" view's snapshot.
PADDING = 25


def array_digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def labels_digest(labels) -> str:
    return hashlib.sha256(repr(sorted(labels)).encode()).hexdigest()


def float_hex(value: float) -> str:
    return float(value).hex()


def padded(graph: CSRGraph) -> CSRGraph:
    """``graph`` plus isolated and loop-only vertices, appended as new labels."""
    extra = 2 * PADDING
    return CSRGraph(
        indptr=np.concatenate(
            (graph.indptr, np.full(extra, graph.indptr[-1], dtype=graph.indptr.dtype))
        ),
        indices=graph.indices,
        loops=np.concatenate(
            (graph.loops, np.zeros(PADDING, dtype=np.int64), np.full(PADDING, 2, dtype=np.int64))
        ),
        vertices=list(graph.vertices) + list(range(graph.n, graph.n + extra)),
    )


def make_view(n: int, exponent: float, seed: int, kind: str) -> PeeledCSR:
    """The ``kind`` view of ``power_law_csr(n, exponent, seed)``.

    ``"whole"`` is the full snapshot, padded with isolated and loop-only
    vertices; ``"giant"`` its largest component, as the decomposition
    holds it; ``"peeled"`` that component after a Remove-j peel.
    """
    graph = power_law_csr(n, exponent=exponent, seed=seed)
    if kind == "whole":
        return PeeledCSR.full(padded(graph))
    giant = max(PeeledCSR.full(graph).connected_components(), key=len)
    view = PeeledCSR.for_subset(graph, giant)
    if kind == "peeled":
        # A Remove-j peel of every twentieth vertex of the giant component:
        # the survivors keep their degrees as compensating self loops, and
        # some are left with loops only.
        view.peel(giant[::20])
    return view


def case_key(n, exponent, seed, kind) -> str:
    return f"n={n} exponent={exponent} seed={seed} view={kind}"


def cases():
    for n, exponent, seed in GRAPHS:
        for kind in VIEWS:
            yield n, exponent, seed, kind


def record(view: PeeledCSR) -> dict:
    """Everything the fixture pins about one view."""
    from scipy.sparse.linalg import ArpackError

    compact = view.compact().base
    out = {
        "alive": int(view.num_vertices),
        "compact": array_digest(compact.indptr, compact.indices, compact.loops),
        "labels": hashlib.sha256(repr(list(compact.vertices)).encode()).hexdigest(),
    }
    try:
        lam2, fiedler = spectral._lambda2_eigsh(compact)
        out["lam2"] = float_hex(lam2)
        out["fiedler"] = array_digest(fiedler)
    except ArpackError as exc:
        out["lam2"] = type(exc).__name__
    try:
        scores, lam2 = spectral.fiedler_scores(view)
        out["scores"] = array_digest(scores)
        out["scores_lam2"] = float_hex(lam2)
    except ArpackError as exc:
        out["scores"] = type(exc).__name__
    for phi in PHIS:
        certified, estimate, witness = spectral.certify_conductance(view, phi)
        out[f"certify {phi}"] = [
            bool(certified),
            float_hex(estimate),
            None if witness is None else labels_digest(witness),
        ]
    return out


def write_fixture(target: Path) -> None:
    digests = {case_key(*case): record(make_view(*case)) for case in cases()}
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(case_key(*case) for case in cases())


def test_cases_reach_lanczos_and_loop_only_vertices():
    """The pinned views exercise what the digests are meant to guard."""
    for n, exponent, seed in GRAPHS[:2]:
        for kind in VIEWS:
            view = make_view(n, exponent, seed, kind)
            assert view.num_vertices > spectral.DENSE_EIGH_LIMIT
        whole = make_view(n, exponent, seed, "whole").compact().base
        assert (whole.degree == 0).any()
        peeled = make_view(n, exponent, seed, "peeled").compact().base
        assert ((peeled.proper_degree == 0) & (peeled.loops > 0)).any()


def three_step_shifted_laplacian(graph: CSRGraph):
    """``2I − L`` as scipy sums it: ``csr_matrix`` + ``diags``, from ``2·identity``."""
    import scipy.sparse as sp

    n = graph.n
    deg = graph.degree.astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    row = np.repeat(np.arange(n), graph.proper_degree)
    data = -inv_sqrt[row] * inv_sqrt[graph.indices]
    diagonal = np.ones(n)
    positive = deg > 0
    diagonal[positive] -= graph.loops[positive] * inv_sqrt[positive] ** 2
    lap = sp.csr_matrix((data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n))
    lap = lap + sp.diags(diagonal)
    return sp.identity(n, format="csr") * 2.0 - lap


@pytest.mark.parametrize("kind", VIEWS)
def test_one_pass_assembly_matches_three_step_oracle(kind):
    for n, exponent, seed in GRAPHS:
        compact = make_view(n, exponent, seed, kind).compact().base
        expected = three_step_shifted_laplacian(compact)
        got = spectral._shifted_laplacian(compact)
        assert got.shape == expected.shape
        for field in ("data", "indices", "indptr"):
            a, b = getattr(got, field), getattr(expected, field)
            assert a.dtype == b.dtype and a.shape == b.shape, (n, seed, kind, field)
            assert a.tobytes() == b.tobytes(), (n, seed, kind, field)


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g[0]}-e{g[1]}-s{g[2]}")
def test_views_keep_their_bytes(expected, graph):
    mismatched = {}
    for kind in VIEWS:
        key = case_key(*graph, kind)
        got = record(make_view(*graph, kind))
        if got != expected[key]:
            mismatched[key] = {
                field: (got.get(field), expected[key].get(field))
                for field in expected[key]
                if got.get(field) != expected[key].get(field)
            }
    assert mismatched == {}


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
