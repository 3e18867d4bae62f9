"""Spectral tooling: Cheeger bounds, Fiedler sweep cuts, conductance certificates.

The expander decomposition certifies component conductance; at the sizes used
in benchmarks an exact (exponential) conductance computation is impossible, so
we verify via the Cheeger sandwich

    lambda_2 / 2  <=  Phi(G)  <=  sqrt(2 * lambda_2)

and via sweep cuts over the Fiedler vector, which give an explicit cut whose
conductance upper-bounds Phi(G).

Every public routine accepts a dict :class:`~repro.graphs.graph.Graph`, a
:class:`~repro.graphs.csr.CSRGraph` or a masked
:class:`~repro.graphs.peel.PeeledCSR` working view, and turns it into a view
once, at entry, with :meth:`PeeledCSR.from_graph` (a view is used as it
is).  There is one implementation of each routine, and it runs on the
view's masked surface: a dict graph is simply snapshotted first.  The
normalised Laplacian ``L = I - D^{-1/2} A D^{-1/2}`` counts self loops in
the degrees but not in the off-diagonal coupling, which is exactly how
``G{S}`` weakens conductance relative to ``G[S]``.

Up to :data:`DENSE_EIGH_LIMIT` alive vertices the eigenproblem is solved
densely (``numpy.linalg.eigh``, exact to machine precision).  Beyond it a
dense n x n Laplacian is infeasible, so the view is compacted and λ₂ and the
Fiedler vector come from a converged ``scipy.sparse.linalg.eigsh`` (Lanczos)
solve of ``2I − L``, assembled in one pass from the compact CSR adjacency
(:func:`_shifted_laplacian`; its bytes are those of the ``csr_matrix`` +
``diags`` sum it replaces, so ARPACK runs the same matvecs).  Every sparse
product — ARPACK's and the pre-check screen's — calls scipy's
``csr_matvec`` kernel directly (:func:`_csr_product`): the loop
``matrix @ x`` ends in, without the operator's per-call dispatch.  Its values
are accurate to solver tolerance rather than machine precision, so
large-component certification is best-effort in the same sense as
PRACTICAL-mode parameters (see EXPERIMENTS.md).  When ARPACK does not
converge there is no value to stand on: :func:`spectral_gap` and
:func:`fiedler_scores` raise, certification reports the graph uncertified
and the pre-check does not skip.  scipy is imported inside the routines
that solve sparsely, so a run whose working graphs all stay within
:data:`PRECHECK_DENSE_LIMIT` vertices never loads it.

The Fiedler embedding ``x / sqrt(deg)`` is one float64 array aligned with
the view's alive vertices in ascending base-index order — the order
compaction preserves, and for a snapshotted dict graph the ``repr`` order.
Each solve is a :class:`SpectralCertificate` carrying that array and tagged
with the solver that produced it.  :func:`certify_conductance` reuses a
certificate handed down from the sparse cut's pre-check
(:func:`conductance_lower_bound`) or from the decomposition's batched
sibling solves (:func:`batched_component_certificates`) exactly when it
names the solver certification would run itself on that graph — dense
``eigh`` up to :data:`DENSE_EIGH_LIMIT` vertices, the converged Lanczos
solve above.  The reused certificate is then the bytes certification would
have computed, so the substitution saves a solve (and, above the limit, a
compaction) without moving any output.  Between :data:`PRECHECK_DENSE_LIMIT`
and :data:`DENSE_EIGH_LIMIT` vertices the pre-check's Lanczos certificate
is ignored and certification solves densely.  A certificate whose length
differs from the alive count of the view it is applied to raises.

Every sweep runs through one helper (:func:`_best_sweep`), which stops at
the numbers: the order, the best prefix's length and its conductance.
Only :func:`sweep_cut` turns that prefix into a label set and a balance;
a certified component's estimate, :func:`sweep_cut_conductance` and
:func:`effective_conductance` need the value alone and never build the
cut.  A view with every vertex alive is swept on its base's adjacency,
without the mask, and a certified large component is swept on the compact
graph its Lanczos solve ran on (:attr:`SpectralCertificate.graph`), so a
giant component is gathered by one compaction, not again through its mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .csr import CSRGraph
from .csr import prefix_cut_profile as csr_prefix_cut_profile
from .graph import Graph
from .peel import PeeledCSR

#: Largest vertex count solved with dense ``numpy.linalg.eigh``; larger
#: graphs are compacted and solved by Lanczos (:func:`_lambda2_eigsh`).
DENSE_EIGH_LIMIT = 1500

#: Absolute safety margin of the certification fast path's pre-check: the
#: Cheeger lower bound must clear φ by at least this much before a
#: ParallelNibble batch is skipped.  Dense eigensolves are exact to machine
#: precision, so the margin only needs to absorb O(n·ε_machine) rounding;
#: the iterative bound applies its own (much larger) residual-based slack
#: on top (:func:`_iterative_cheeger_bound`).
PRECHECK_MARGIN = 1e-9

#: Largest vertex count the *pre-check* solves densely.  Smaller than
#: :data:`DENSE_EIGH_LIMIT` because the pre-check re-runs on every change
#: of the working graph.  At 1 000–1 500 vertices, with one BLAS thread,
#: a dense solve takes 0.19–0.66 s, while the screen bails in 2–3 ms on a
#: graph with a sparse cut and screen plus Lanczos take 14–23 ms on an
#: expander (EXPERIMENTS.md, "One certificate path").  Raising the limit
#: would spare a 513–1 500-vertex component's second solve, but would make
#: each of its pre-checks 10 to 300 times slower.
PRECHECK_DENSE_LIMIT = 512


def _unit_adjacency(graph: CSRGraph):
    """A snapshot's proper adjacency as a ``scipy.sparse`` CSR matrix of ones.

    ``adjacency @ y`` sums each row's terms from 0.0 in ascending column
    order — the order in which a ``flat_adjacency`` gather plus
    ``np.bincount`` adds them — and multiplying by 1.0 is exact, so the
    product is bit-identical to that gather-and-count form.
    """
    import scipy.sparse as sparse

    return sparse.csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr),
        shape=(graph.n, graph.n),
    )


def _shifted_laplacian(graph: CSRGraph):
    """``2I − L`` of a CSR snapshot as one ``scipy.sparse`` CSR matrix.

    Built in one pass: each row holds its off-diagonal entries
    ``d_i^{-1/2} d_j^{-1/2}`` in ascending column order, with the diagonal
    ``2.0 − (1 − loops_i/deg_i)`` merged in at its own column.  These are
    the values, columns and row offsets — bytes and index dtypes included
    — that summing ``csr_matrix`` and ``diags`` into ``L`` and subtracting
    it from ``2·identity`` produces: ``0.0 − (−a·b)`` is ``a·b`` exactly,
    and no entry is zero, so that sum drops none.  Every matvec on it is
    therefore the same.  ``tests/test_lanczos_digests.py`` keeps the
    three-step build as the oracle.
    """
    import scipy.sparse as sp

    n = graph.n
    deg = graph.degree.astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    row = np.repeat(np.arange(n), graph.proper_degree)
    columns = graph.indices
    diagonal = np.ones(n)
    positive = deg > 0
    diagonal[positive] -= graph.loops[positive] * inv_sqrt[positive] ** 2
    # Row i's entries move i places on to make room for the diagonals of
    # the rows above it, and those right of its own diagonal one more.
    after = columns > row
    off = np.arange(columns.size) + row + after
    on = graph.indptr[:-1] + np.arange(n) + np.bincount(row[~after], minlength=n)
    data = np.empty(columns.size + n)
    data[off] = inv_sqrt[row] * inv_sqrt[columns]
    data[on] = 2.0 - diagonal
    indices = np.empty(columns.size + n, dtype=np.int64)
    indices[off] = columns
    indices[on] = np.arange(n)
    indptr = graph.indptr + np.arange(n + 1)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _csr_product(matrix):
    """``x ↦ matrix @ x`` for a square ``scipy.sparse`` CSR ``matrix``.

    The returned ``product(x, out)`` zeroes ``out`` and calls the
    ``csr_matvec`` kernel that ``matrix @ x`` ends in on the matrix's own
    arrays, which adds each row's terms to it in stored column order — the
    zeroed vector the operator allocates, summed by the same C loop — so
    the product is byte-equal to ``matrix @ x`` without the operator's
    dispatch and checks on every call (``tests/test_screen_digests.py``
    compares the two).
    """
    from scipy.sparse._sparsetools import csr_matvec

    n = matrix.shape[0]
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data

    def product(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, x, out)
        return out

    return product


def _lambda2_eigsh(graph: CSRGraph) -> tuple[float, np.ndarray]:
    """(λ₂, Fiedler vector) of a CSR snapshot by a *converged* Lanczos solve.

    Uses ``scipy.sparse.linalg.eigsh`` on ``2I - L``
    (:func:`_shifted_laplacian`; its two largest eigenvalues are 2 - λ₁ and
    2 - λ₂, well-separated extremes that Lanczos handles robustly).  ARPACK
    is handed an operator whose matvec is scipy's ``csr_matvec`` kernel on
    the matrix's arrays, into a fresh vector (:func:`_csr_product`) — the
    product ``shifted @ x`` computes, without the ``LinearOperator``
    wrapper's per-call checks or the sparse operator's dispatch; ARPACK
    copies each result into its own work array at once.  When ARPACK does
    not converge its ``ArpackNoConvergence`` propagates: no caller may
    stand on an unconverged iterate, and each decides what no answer
    means — the pre-check refuses to skip, certification reports the
    graph uncertified.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n = graph.n
    shifted = _shifted_laplacian(graph)
    product = _csr_product(shifted)

    class Shifted(LinearOperator):
        def _matvec(self, x):
            return product(x, np.empty(n))

        matvec = _matvec

    # A fixed ARPACK start vector keeps this a pure function of the graph;
    # without v0 ARPACK seeds from global RNG state and two calls on the
    # same graph return slightly different (even sign-flipped) eigenpairs.
    v0 = np.random.default_rng(0).standard_normal(n)
    values, vectors = eigsh(
        Shifted(shifted.dtype, shifted.shape), k=2, which="LM", v0=v0
    )
    lam = 2.0 - values
    order = np.argsort(lam)
    lam2 = float(max(0.0, lam[order[1]]))
    return lam2, vectors[:, order[1]]


def spectral_gap(graph: "Graph | CSRGraph | PeeledCSR") -> float:
    """Second-smallest eigenvalue of the normalised Laplacian (λ₂).

    Returns 0.0 for graphs with fewer than two vertices or no edges.  Exact
    (dense ``eigvalsh`` of :func:`_masked_dense_laplacians`) up to
    :data:`DENSE_EIGH_LIMIT` vertices, a converged Lanczos solve of the
    compacted view beyond; when ARPACK does not converge there, scipy's
    ``ArpackNoConvergence`` is raised.
    """
    view = PeeledCSR.from_graph(graph)
    idx = view.alive_indices()
    if idx.size < 2 or view.total_volume == 0:
        return 0.0
    if idx.size > DENSE_EIGH_LIMIT:
        return _lambda2_eigsh(view.compact().base)[0]
    laps, _ = _masked_dense_laplacians(view, [idx])
    eigenvalues = np.linalg.eigvalsh(laps[0])
    eigenvalues.sort()
    return float(max(0.0, eigenvalues[1]))


def cheeger_bounds(graph: "Graph | CSRGraph | PeeledCSR") -> tuple[float, float]:
    """(lower, upper) bounds on Φ(G) from the Cheeger inequality."""
    gap = spectral_gap(graph)
    return gap / 2.0, math.sqrt(max(0.0, 2.0 * gap))


@dataclass(frozen=True)
class SweepCut:
    """The best prefix cut of a vertex ordering."""

    subset: frozenset
    conductance: float
    balance: float


@dataclass(frozen=True)
class SpectralCertificate:
    """One reusable spectral solve: λ₂ and the Fiedler embedding of a graph.

    ``scores`` is the embedding x/sqrt(deg) as a float64 array aligned with
    the solved view's alive vertices in ascending base-index order (see
    the module docstring); it applies to any view of the same working
    graph, compacted or not, and to no other.

    The certification fast path computes each working graph's eigenproblem
    at most once and threads the result between its consumers — the
    sparse-cut pre-check that skips ParallelNibble batches, the expander
    decomposition's batched sibling-component solves, and the authoritative
    :func:`certify_conductance` of the emitted component.  ``solver`` names
    the solve that produced it: ``"dense"`` (machine-precision ``eigh``) or
    ``"lanczos"`` (a converged ``eigsh`` on the compacted graph).  A
    certificate substitutes for certification's own eigensolve only when it
    names the solver certification would run on that graph (dense up to
    :data:`DENSE_EIGH_LIMIT` vertices, Lanczos above), so the substitution
    never changes a bit of the result.  The pre-check's power-iteration
    screen never yields a certificate.

    A Lanczos certificate also carries ``graph``, the compacted snapshot
    its solve ran on (``None`` on a dense one).  Its prefix volumes and
    cuts are the integers of every view of the same working graph, so a
    certified component's estimate is swept there
    (:func:`certify_conductance`) rather than gathered again through the
    uncompacted view's alive mask.
    """

    lam2: float
    scores: np.ndarray
    solver: Literal["dense", "lanczos"]
    graph: Optional[CSRGraph] = field(default=None, repr=False, compare=False)

    @property
    def cheeger_lower_bound(self) -> float:
        """λ₂/2, the Cheeger lower bound on Φ the pre-check compares to φ."""
        return self.lam2 / 2.0


def _masked_dense_laplacians(
    view: PeeledCSR, pieces: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(dense normalised Laplacians, degree vectors) of equal-size index sets.

    Each piece must be closed under the view's alive adjacency — the whole
    alive set, or one connected component of it — so that ``view.loops``
    already carries every Remove-j compensation the set sees.  Slice ``s``
    of the ``(len(pieces), k, k)`` stack is the Laplacian of ``pieces[s]``,
    rows in ascending base index, the order of the score arrays; all the
    pieces are assembled with one adjacency gather, and every entry is the
    same expression whether a piece is assembled alone or stacked.  Self
    loops add degree mass but no off-diagonal coupling, so the diagonal
    subtracts their share ``loops / deg``.
    """
    count, k = len(pieces), len(pieces[0])
    rows = np.concatenate(pieces)
    degrees = view.degree[rows].astype(float)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    laps = np.zeros((count, k, k))
    diag = np.arange(k)
    laps[:, diag, diag] = 1.0
    row_id, flat = view.flat_adjacency(rows)
    if flat.size:
        # A neighbour lies in its row's piece, and each piece is sorted,
        # so (piece, index) keys ascend along ``rows``: a binary search
        # gives the neighbour's stacked position.
        slot = row_id // k
        keys = np.repeat(np.arange(count, dtype=np.int64), k) * view.n + rows
        column = np.searchsorted(keys, slot * view.n + flat)
        laps[slot, row_id % k, column % k] -= inv_sqrt[row_id] * inv_sqrt[column]
    loops = view.loops[rows]
    positive = np.flatnonzero(degrees > 0)
    laps[positive // k, positive % k, positive % k] -= (
        loops[positive] * inv_sqrt[positive]
    ) * inv_sqrt[positive]
    return laps, degrees.reshape(count, k)


def _embedding_scores(fiedler: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The Fiedler embedding x/sqrt(deg), index-aligned with ``fiedler``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            degrees > 0, fiedler / np.sqrt(np.maximum(degrees, 1e-12)), 0.0
        )


def fiedler_scores(graph: "Graph | CSRGraph | PeeledCSR") -> tuple[np.ndarray, float]:
    """Fiedler embedding x/sqrt(deg) and λ₂ from one eigendecomposition.

    The spectral sweep cut and the Cheeger certificate both derive from the
    same eigenproblem; this helper computes it once for both consumers.
    The scores are aligned with the view's alive vertices in ascending
    index order.  Up to :data:`DENSE_EIGH_LIMIT` alive vertices the
    Laplacian is assembled off the masked surface
    (:func:`_masked_dense_laplacians`) and solved exactly with ``eigh``;
    beyond, the view is compacted and solved by Lanczos
    (:func:`_lambda2_eigsh`) — see the module docstring for the accuracy
    caveat — and scipy's ``ArpackNoConvergence`` is raised when ARPACK
    does not converge.  With fewer than two alive vertices or no
    volume there is no eigenvector to embed: the scores are all zero and
    λ₂ is 0.0, as :func:`spectral_gap` reports.
    """
    view = PeeledCSR.from_graph(graph)
    idx = view.alive_indices()
    if idx.size < 2 or view.total_volume == 0:
        return np.zeros(idx.size), 0.0
    if idx.size > DENSE_EIGH_LIMIT:
        certificate = _lanczos_certificate(view.compact().base)
        return certificate.scores, certificate.lam2
    laps, degrees = _masked_dense_laplacians(view, [idx])
    eigenvalues, eigenvectors = np.linalg.eigh(laps[0])
    lam2 = float(max(0.0, eigenvalues[1]))
    return _embedding_scores(eigenvectors[:, 1], degrees[0]), lam2


def _lanczos_certificate(compact: CSRGraph) -> SpectralCertificate:
    """The converged Lanczos certificate of a compacted snapshot.

    Raises scipy's ``ArpackNoConvergence`` when ARPACK does not converge.
    """
    lam2, fiedler = _lambda2_eigsh(compact)
    scores = _embedding_scores(fiedler, compact.degree.astype(float))
    return SpectralCertificate(lam2=lam2, scores=scores, solver="lanczos", graph=compact)


def _best_sweep(
    view: PeeledCSR, scores: Optional[np.ndarray]
) -> tuple[np.ndarray, int, float]:
    """``(order, prefix, conductance)`` of the best prefix of a sweep.

    ``order`` is the view's alive vertices sorted by descending score, ties
    to the smaller index; ``prefix`` is the length of its first prefix of
    least conductance (0 when no prefix has a finite one), and
    ``conductance`` that value.  This is the whole sweep in numbers: a
    caller that needs the cut itself (:func:`sweep_cut`) turns the prefix
    into labels, one that needs only the value stops here.
    """
    idx = view.alive_indices()
    n = idx.size
    if n < 2 or view.total_volume == 0:
        return idx, 0, float("inf")
    if scores is None:
        scores, _ = fiedler_scores(view)
    elif len(scores) != n:
        raise ValueError(f"{len(scores)} scores for a view with {n} alive vertices")
    perm = np.lexsort((np.arange(n), -np.asarray(scores, dtype=float)))
    order = idx[perm]
    # A view with every vertex alive has peeled nothing, so its base holds
    # exactly its adjacency: the prefix integers are gathered there,
    # without the mask.
    surface = view.base if n == view.n else view
    prefix_volume, prefix_cut = csr_prefix_cut_profile(surface, order)
    total_volume = view.total_volume
    vol = prefix_volume[1:n]
    denom = np.minimum(vol, total_volume - vol)
    conds = np.full(n - 1, np.inf)
    ok = denom > 0
    conds[ok] = prefix_cut[1:n][ok] / denom[ok]
    pick = int(np.argmin(conds))
    best_phi = float(conds[pick])
    return order, pick + 1 if best_phi < float("inf") else 0, best_phi


def sweep_cut(
    graph: "Graph | CSRGraph | PeeledCSR", scores: Optional[np.ndarray] = None
) -> SweepCut:
    """Best prefix cut when vertices are sorted by ``scores``.

    ``scores`` is aligned with the view's alive vertices in ascending index
    order (as :func:`fiedler_scores` returns it); an array of any other
    length raises :class:`ValueError`.  With ``scores=None`` the Fiedler
    embedding is used, i.e. the classical spectral sweep — the
    constructive side of Cheeger's inequality.  Vertices are ordered by
    descending score with ties to the smaller index (for a snapshotted
    dict graph, the smaller ``repr``), and the prefix integers come from
    the masked :func:`repro.graphs.csr.prefix_cut_profile`, so every
    conductance is an exact integer ratio of the alive working graph.
    """
    view = PeeledCSR.from_graph(graph)
    order, prefix, conductance = _best_sweep(view, scores)
    if prefix == 0:
        return SweepCut(frozenset(), conductance, 0.0)
    labels = view.vertices
    subset = frozenset(labels[int(i)] for i in order[:prefix])
    return SweepCut(subset, conductance, view.balance_of_cut(order[:prefix]))


def sweep_cut_conductance(graph: "Graph | CSRGraph | PeeledCSR") -> float:
    """Conductance of the spectral sweep cut (an upper bound on Φ(G))."""
    return _best_sweep(PeeledCSR.from_graph(graph), None)[2]


def certify_conductance(
    graph: "Graph | CSRGraph | PeeledCSR",
    phi: float,
    precomputed: Optional[SpectralCertificate] = None,
) -> tuple[bool, float, Optional[frozenset]]:
    """Certify Φ(G) >= phi; return ``(certified, estimate, witness)``.

    The cheap Cheeger lower bound λ₂/2 is tried first — it settles most
    genuine expanders in one eigensolve.  When it cannot certify, small
    graphs are settled exactly by enumeration and larger ones report the
    sweep cut from the same eigensolve as both estimate and witness.  (A
    sweep-cut certification disjunct would be redundant: Cheeger's
    sweep <= sqrt(2 λ₂) forces sweep²/4 <= λ₂/2, so no sweep value can
    certify where λ₂/2 cannot.)

    ``estimate`` is exact when enumeration ran and a sweep-cut upper bound
    on Φ otherwise.  ``witness`` is the lowest-conductance cut the check
    discovered — ``None`` when certified — so a failed certificate hands the
    caller a deterministic splitter without recomputing the spectra.  Above
    :data:`DENSE_EIGH_LIMIT` vertices, when ARPACK does not converge, there
    is no solve to stand on and the check returns ``(False, nan, None)``.

    The check runs straight off the view's masked surface — no dict
    ``G{U}`` is materialised, except for the ≤ :data:`~repro.graphs.metrics
    .EXACT_ENUMERATION_LIMIT`-vertex enumeration fallback, where the tiny
    dict graph is rebuilt for the exact oracle.  A ``precomputed``
    certificate replaces the eigensolve when its ``solver`` is the one this
    check would run on ``graph`` — dense ``eigh`` up to
    :data:`DENSE_EIGH_LIMIT` vertices, the converged Lanczos solve above —
    so it carries the very bytes the check would compute; it is typically
    handed down from the fast path's pre-check so each component is solved
    once.  Any other certificate (a pre-check Lanczos solve on a graph this
    check solves densely) is ignored and the solve is run here; a reused
    certificate whose score array does not match the view's alive count
    raises :class:`ValueError`.  A certified Lanczos estimate is swept on
    the compacted graph the solve ran on (:attr:`SpectralCertificate
    .graph`): compaction keeps the order and the integer prefix volumes
    and cuts, so the value is the one the view itself would give.
    """
    from .metrics import EXACT_ENUMERATION_LIMIT, graph_conductance_exact

    view = PeeledCSR.from_graph(graph)
    num_vertices = view.num_vertices
    if num_vertices < 2 or view.total_volume == 0:
        return True, float("inf"), None  # no cut exists at all
    solver = "dense" if num_vertices <= DENSE_EIGH_LIMIT else "lanczos"
    if precomputed is not None and precomputed.solver == solver:
        certificate = precomputed
        if len(certificate.scores) != num_vertices:
            raise ValueError(
                f"a certificate of {len(certificate.scores)} vertices applied "
                f"to a view with {num_vertices} alive vertices"
            )
    elif solver == "dense":
        scores, lam2 = fiedler_scores(view)
        certificate = SpectralCertificate(lam2=lam2, scores=scores, solver="dense")
    else:
        from scipy.sparse.linalg import ArpackError

        try:
            certificate = _lanczos_certificate(view.compact().base)
        except ArpackError:
            return False, math.nan, None
    scores, lam2 = certificate.scores, certificate.lam2
    if lam2 / 2.0 >= phi:
        # The value alone: swept on the compact graph a Lanczos solve ran
        # on, whose prefix integers are this view's.
        swept = view if certificate.graph is None else PeeledCSR.full(certificate.graph)
        return True, _best_sweep(swept, scores)[2], None
    if num_vertices <= EXACT_ENUMERATION_LIMIT:
        exact = graph_conductance_exact(view.to_graph())
        certified = exact.conductance >= phi
        return certified, exact.conductance, None if certified else exact.subset
    cut = sweep_cut(view, scores)
    return False, cut.conductance, cut.subset


def conductance_lower_bound(
    graph: "Graph | CSRGraph | PeeledCSR", phi: Optional[float] = None
) -> tuple[float, Optional[SpectralCertificate]]:
    """A cheap Cheeger lower bound λ₂/2 on Φ(G), with a reusable solve.

    The pre-check primitive of the certification fast path: when the
    returned bound clears the target φ (strictly, with
    :data:`PRECHECK_MARGIN` slack), no φ-sparse cut exists, so a
    ParallelNibble batch launched against the graph is guaranteed wasted
    work and :func:`repro.decomposition.sparse_cut
    .nearly_most_balanced_sparse_cut` skips it.

    Graphs of at most :data:`PRECHECK_DENSE_LIMIT` alive vertices are
    solved densely (exact; the returned ``"dense"``
    :class:`SpectralCertificate` is reusable by :func:`certify_conductance`,
    so the pre-check and the authoritative final check share one
    eigensolve).  Larger graphs go in two stages,
    both on the *compacted* graph's CSR matrices through ``scipy.sparse``
    — no dict materialisation, no dense eigh:

    1. a few deflated power-iteration blocks
       (:func:`_iterative_cheeger_bound`) *screen* the graph — on
       cut-bearing working graphs (the common mid-loop case) the Rayleigh
       quotient collapses below 2φ within a block or two and the
       pre-check bails for the price of a handful of sparse matvecs, with
       no certificate;
    2. only when the screen believes φ is cleared does the *converged*
       Lanczos solve (:func:`_lambda2_eigsh`) run, and its λ₂ — accurate
       to solver tolerance, not a truncated iterate — is what the
       returned bound reports.  A screen estimate alone is never allowed
       to skip work: an unconverged iterate mixed with higher eigenpairs
       can overestimate λ₂ severely, and a skip must stand on the same
       quality of solve certification itself uses.  The solve comes back
       as a ``"lanczos"`` certificate, built exactly as
       :func:`fiedler_scores` builds its sparse result, so above
       :data:`DENSE_EIGH_LIMIT` certification reuses it instead of
       compacting and solving the graph again.  When ARPACK does not
       converge the confirmation is unavailable: the bound is clamped
       below φ (no skip) and no certificate is returned.

    The iterative path always runs on a *compacted* view, so the bound,
    the skip decision and the certificate are pure functions of the
    working graph's structure, whatever view or dict graph it is held in.
    Edgeless or single-vertex graphs admit no cut at all and report an
    infinite bound.
    """
    view = PeeledCSR.from_graph(graph)
    num_vertices = view.num_vertices
    if num_vertices < 2 or view.total_volume == 0:
        return float("inf"), None
    if num_vertices <= min(PRECHECK_DENSE_LIMIT, DENSE_EIGH_LIMIT):
        scores, lam2 = fiedler_scores(view)
        return lam2 / 2.0, SpectralCertificate(lam2=lam2, scores=scores, solver="dense")
    view = view.compact()
    screen = _iterative_cheeger_bound(view.base, phi)
    if phi is not None and screen <= phi + PRECHECK_MARGIN:
        return min(screen, phi), None  # the screen already rules the skip out
    from scipy.sparse.linalg import ArpackError

    try:
        certificate = _lanczos_certificate(view.base)
    except ArpackError:
        # No converged solve available: report a bound that cannot fire.
        return 0.0 if phi is None else min(screen, phi), None
    return certificate.cheeger_lower_bound, certificate


def batched_component_certificates(
    view: PeeledCSR, pieces: list
) -> list[Optional[SpectralCertificate]]:
    """Exact spectral certificates for sibling components, eigh-batched.

    ``pieces`` are connected components of ``view`` as sorted arrays of
    the view's base indices, as
    :meth:`~repro.graphs.peel.PeeledCSR.connected_components` returns
    them.  All components of the same size up to
    :data:`PRECHECK_DENSE_LIMIT` vertices are solved in stacked
    ``numpy.linalg.eigh`` calls — one LAPACK dispatch per size class
    instead of one per component, which is where a many-component
    decomposition (e.g. ring-of-cliques) spends its per-leaf solve
    overhead.  The batched gufunc applies the identical kernel per slice,
    so each certificate is bit-for-bit the one a solo
    :func:`conductance_lower_bound` dense solve would produce; oversized
    or singleton pieces get ``None`` and fall back to their own pre-check.
    """
    hints: list[Optional[SpectralCertificate]] = [None] * len(pieces)
    groups: dict[int, list[int]] = {}
    for position, piece in enumerate(pieces):
        size = len(piece)
        if 2 <= size <= PRECHECK_DENSE_LIMIT:
            groups.setdefault(size, []).append(position)
    for size, members in groups.items():
        # Chunk so one stack stays comfortably in memory even for many
        # mid-sized components (k · size² doubles per chunk).
        chunk = max(1, 4_000_000 // (size * size))
        for begin in range(0, len(members), chunk):
            part = members[begin : begin + chunk]
            laps, piece_degrees = _masked_dense_laplacians(
                view, [pieces[position] for position in part]
            )
            eigenvalues, eigenvectors = np.linalg.eigh(laps)
            for slot, position in enumerate(part):
                lam2 = float(max(0.0, eigenvalues[slot, 1]))
                scores = _embedding_scores(eigenvectors[slot][:, 1], piece_degrees[slot])
                hints[position] = SpectralCertificate(
                    lam2=lam2, scores=scores, solver="dense"
                )
    return hints


def batched_sweep_conductances(
    view: PeeledCSR, pieces: list, scores: list
) -> np.ndarray:
    """Sweep-cut conductances of equal-size sibling components, in one pass.

    ``pieces`` are connected components of ``view`` of one size, as sorted
    arrays of the view's base indices, and ``scores[s]`` is aligned with
    ``pieces[s]`` as a certificate's scores are.  Entry ``s`` is
    ``sweep_cut(G{pieces[s]}, scores[s]).conductance``, bit for bit: the
    same descending-score order with ties to the smaller index, the same
    integer prefix volumes and cuts, the same division and the same first
    minimum — computed for the whole stack at once, with one adjacency
    gather and no per-piece view.  A neighbour always lies in its row's
    piece, so the gather needs no masking beyond the view's own.
    """
    count, k = len(pieces), len(pieces[0])
    rows = np.stack(pieces)
    perm = np.lexsort(
        (np.broadcast_to(np.arange(k), (count, k)), -np.asarray(scores, dtype=float)),
        axis=-1,
    )
    rank = np.empty((count, k), dtype=np.int64)
    np.put_along_axis(rank, perm, np.arange(k), axis=1)
    rank = rank.ravel()
    row_id, flat = view.flat_adjacency(rows.ravel())
    # Stacked (piece, index) keys ascend, so a binary search finds each
    # neighbour's stacked position, as in _masked_dense_laplacians.
    keys = np.repeat(np.arange(count, dtype=np.int64), k) * view.n + rows.ravel()
    column = np.searchsorted(keys, (row_id // k) * view.n + flat)
    earlier = rank[column] < rank[row_id]
    delta = np.bincount(row_id, minlength=count * k) - 2 * np.bincount(
        row_id[earlier], minlength=count * k
    )
    prefix_cut = np.cumsum(np.take_along_axis(delta.reshape(count, k), perm, axis=1), axis=1)
    volumes = np.take_along_axis(view.degree[rows].astype(np.int64), perm, axis=1)
    prefix_volume = np.cumsum(volumes, axis=1)
    vol = prefix_volume[:, :-1]
    denom = np.minimum(vol, prefix_volume[:, -1:] - vol)
    conds = np.full((count, k - 1), np.inf)
    ok = denom > 0
    conds[ok] = prefix_cut[:, :-1][ok] / denom[ok]
    return conds[np.arange(count), np.argmin(conds, axis=1)]


#: Iteration schedule of the pre-check's masked power iteration: up to
#: ``PRECHECK_MAX_BLOCKS`` blocks of ``PRECHECK_BLOCK_ITERATIONS`` matvecs,
#: with a convergence check (and the two early exits) after each block.
PRECHECK_BLOCK_ITERATIONS = 32
PRECHECK_MAX_BLOCKS = 16


def _iterative_cheeger_bound(graph: CSRGraph, phi: Optional[float]) -> float:
    """Cheap λ₂/2 *screen* by deflated power iteration on a compact graph.

    Iterates ``x ← (2I − L)x`` against the normalised Laplacian of the
    compacted working graph, while re-orthogonalising against the known
    kernel D^{1/2}·1.  After each block the Rayleigh quotient θ and
    residual r = ‖Lx − θx‖ are measured and ``max(0, θ − 2r)/2`` is the
    candidate screen value.  Each step's adjacency product is scipy's
    ``csr_matvec`` kernel called directly (:func:`_csr_product` of
    :func:`_unit_adjacency`), and every temporary of the iteration is
    written into a buffer allocated once per call: the same ufuncs on the
    same operands in the same order as the expression form
    ``x - inv_sqrt * (adjacency @ (inv_sqrt * x)) - loops_share * x``, and
    each norm is ``math.sqrt(x @ x)``, the ``sqrt(x.dot(x))`` that
    ``np.linalg.norm`` computes for a 1-d float array — so every iterate
    and the returned value keep their bits
    (``tests/data/lanczos/screen_digests.json``).

    This is a screen, **not** a sound lower bound: the residual only
    localises *some* eigenvalue near θ — an unconverged iterate still
    mixed with higher eigenpairs can sit with small residual near λ₃ and
    overestimate λ₂ severely.  Its one-sided guarantee runs the other way:
    θ ≥ λ₂ for any deflated vector, so once θ/2 ≤ φ the graph *provably*
    cannot clear φ and the caller bails for a handful of matvecs — the
    common cut-bearing case.  A screen value that clears φ only earns the
    graph a converged :func:`_lambda2_eigsh` solve
    (:func:`conductance_lower_bound`), whose λ₂ is what any batch skip
    actually stands on.
    """
    n = graph.n
    deg = graph.degree.astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-12)), 0.0)
    loops_share = np.where(deg > 0, graph.loops / np.maximum(deg, 1e-12), 0.0)
    adjacency = _csr_product(_unit_adjacency(graph))
    scaled, product, share, lx = (np.empty(n) for _ in range(4))

    def laplacian_matvec(x: np.ndarray) -> np.ndarray:
        """``L x`` into ``lx``; ``x`` is left as it is."""
        np.multiply(inv_sqrt, x, out=scaled)
        adjacency(scaled, product)
        np.multiply(inv_sqrt, product, out=product)
        np.subtract(x, product, out=lx)
        np.multiply(loops_share, x, out=share)
        return np.subtract(lx, share, out=lx)

    def deflate(x: np.ndarray) -> None:
        np.multiply(kernel, kernel @ x, out=share)
        np.subtract(x, share, out=x)

    kernel = np.sqrt(np.maximum(deg, 0.0))
    norm = np.linalg.norm(kernel)
    if norm > 0:
        kernel /= norm
    x = np.random.default_rng(0).standard_normal(n)
    best = 0.0
    for _ in range(PRECHECK_MAX_BLOCKS):
        for _ in range(PRECHECK_BLOCK_ITERATIONS):
            deflate(x)
            laplacian_matvec(x)
            np.multiply(2.0, x, out=x)
            np.subtract(x, lx, out=x)
            norm = math.sqrt(x @ x)
            if norm == 0:
                return best
            x /= norm
        deflate(x)
        norm = math.sqrt(x @ x)
        if norm == 0:
            return best
        x /= norm
        laplacian_matvec(x)
        theta = float(x @ lx)
        np.multiply(theta, x, out=share)
        np.subtract(lx, share, out=share)
        residual = math.sqrt(share @ share)
        best = max(best, max(0.0, theta - 2.0 * residual) / 2.0)
        if phi is not None:
            if theta / 2.0 <= phi:
                return best  # λ₂/2 ≤ θ/2 ≤ φ: the bound can never clear φ
            if best > phi + PRECHECK_MARGIN:
                return best  # screen fired: hand over to the converged solve
    return best


def is_expander(graph: "Graph | CSRGraph | PeeledCSR", phi: float) -> bool:
    """Certify Φ(G) >= phi (see :func:`certify_conductance`)."""
    return certify_conductance(graph, phi)[0]


def effective_conductance(graph: "Graph | CSRGraph | PeeledCSR") -> float:
    """Best available estimate of Φ(G): exact when tiny, sweep cut otherwise."""
    from .metrics import EXACT_ENUMERATION_LIMIT, graph_conductance_exact

    view = PeeledCSR.from_graph(graph)
    if view.num_vertices <= EXACT_ENUMERATION_LIMIT:
        return graph_conductance_exact(view.to_graph()).conductance
    return _best_sweep(view, None)[2]
