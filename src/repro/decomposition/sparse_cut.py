"""RandomNibble, ParallelNibble, and the nearly most balanced sparse cut.

Theorem 3 of the paper: given G and a conductance parameter φ, with high
probability either output a cut S with Φ(S) ≤ h(φ) whose balance is within a
factor two of the most balanced φ-sparse cut, or output S = ∅, certifying
that no φ-sparse cut of substantial balance exists.

The algorithm is the paper's Phase-1 loop:

* ``random_nibble`` — one Nibble instance with a degree-proportional random
  start vertex and a random truncation scale b (P[b] ∝ 2^{-b});
* ``parallel_nibble`` — a batch of independent RandomNibble instances; in
  CONGEST they run simultaneously, so the batch costs max (not sum) rounds.
  ``parallel_nibble_cuts`` additionally *harvests* every pairwise-disjoint
  certified cut of the batch (greedy by conductance,
  :func:`harvest_disjoint_cuts`), so peeling many small components needs
  far fewer batches than one-cut-per-batch;
* ``nearly_most_balanced_sparse_cut`` — repeatedly run ParallelNibble on the
  working graph G{U}; every harvested cut C is moved into S, every boundary
  edge of C is removed with the degree-preserving ``Remove-j`` operation,
  and C's vertices leave the working graph.  The loop stops once S is
  balanced enough or ``max_failures`` consecutive batches certify no
  further cut.

The working graph is a :class:`~repro.graphs.peel.PeeledCSR` view of one
CSR snapshot: :meth:`~repro.graphs.peel.PeeledCSR.peel` performs Remove-j
(boundary edges become compensating self loops, the cut's vertices leave)
as a masked array update.  Every entry point takes a dict ``Graph``, a
:class:`~repro.graphs.csr.CSRGraph` or a view, and turns it into a view
once, at entry; a batch never runs on anything else.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph, Vertex
from ..graphs.peel import PeeledCSR, maybe_compact
from ..graphs.spectral import (
    PRECHECK_MARGIN,
    SpectralCertificate,
    conductance_lower_bound,
)
from ..nibble.nibble import NibbleCut
from ..nibble.parameters import NibbleParameters, ParameterMode, sample_scale
from ..parallel.executor import SEQUENTIAL, Executor, resolve_executor
from ..parallel.frontier import BatchRequest, one_per_round, run_rounds
from ..parallel.worker import run_nibble_instance
from ..resilience.deadline import (
    Deadline,
    DeadlineExpired,
    deadline_scope,
    resolve_deadline,
)
from ..utils.rng import SeedLike, ensure_rng, stream_root
from ..utils.rounds import RoundReport, parallel_rounds

#: What the entry points accept; each turns it into a :class:`PeeledCSR`
#: view once (a dict ``Graph`` or a ``CSRGraph`` becomes its all-alive view).
WorkGraph = Union[Graph, CSRGraph, PeeledCSR]

# Re-exported for callers that address them through this module (the
# distributed Nibble program, the public ``repro.decomposition`` surface);
# the definition lives with the parameter schedule it indexes into.
__all__ = [
    "sample_scale",
    "random_nibble",
    "harvest_disjoint_cuts",
    "parallel_nibble_cuts",
    "parallel_nibble",
    "SparseCutResult",
    "default_num_instances",
    "nearly_most_balanced_sparse_cut",
    "sparse_cut_search",
]


def random_nibble(
    graph: WorkGraph,
    params: NibbleParameters,
    rng: SeedLike = None,
    report: Optional[RoundReport] = None,
) -> Optional[NibbleCut]:
    """One RandomNibble instance: random degree-proportional start, random b.

    The start vertex is drawn over the positive-degree vertices in
    ascending index order (on a snapshot of a dict graph, its ``repr``
    order), so a shared seed picks the same start whichever form the
    graph is handed in.  The sampling-then-walk body is
    :func:`repro.parallel.worker.run_nibble_instance`; every executor's
    batch makes the same draws and gets the same cut per distinct draw,
    so "one instance" means the same thing alone, inline and on a worker.
    """
    view = PeeledCSR.from_graph(graph)
    _, cut = run_nibble_instance(view, params, ensure_rng(rng), report=report)
    return cut


def harvest_disjoint_cuts(cuts: list[NibbleCut]) -> list[NibbleCut]:
    """Greedy multi-cut harvest: keep pairwise-disjoint cuts, best first.

    Cuts are ordered by (conductance, −volume) with arrival order breaking
    ties (the stable sort), then each is kept iff it shares no vertex with
    the cuts already kept.  The first harvested cut is therefore exactly
    the single best cut the pre-harvest ParallelNibble returned, and every
    later one is a certified cut of the *same* working graph that can be
    peeled in the same batch — disjointness means peeling one never touches
    another's vertices (their shared boundary edges just become self loops).
    """
    ordered = sorted(
        (c for c in cuts if c is not None and not c.is_empty),
        key=lambda c: (c.conductance, -c.volume),
    )
    chosen: list[NibbleCut] = []
    taken: set = set()
    for cut in ordered:
        if taken.isdisjoint(cut.vertices):
            chosen.append(cut)
            taken |= cut.vertices
    return chosen


def parallel_nibble_cuts(
    graph: WorkGraph,
    params: NibbleParameters,
    num_instances: int,
    rng: SeedLike = None,
    report: Optional[RoundReport] = None,
    executor: Optional[Executor] = None,
    stream: Optional[tuple[int, int]] = None,
) -> list[NibbleCut]:
    """A ParallelNibble batch, harvesting every disjoint certified cut.

    In CONGEST the instances run simultaneously (Lemma 10 bounds their joint
    congestion), so the batch is charged max-of-instances rounds, which
    :func:`repro.utils.rounds.parallel_rounds` models — and since each
    instance certifies its cut independently, *all* of their pairwise
    disjoint cuts are available at once; returning only the best would
    throw the others away and pay a whole extra batch to rediscover them.

    How the instances run is the ``executor``'s business
    (:mod:`repro.parallel`; default the sequential oracle).  Their
    randomness is addressed, not streamed: ``stream=(root, batch_index)``
    names the batch, and instance ``i`` draws from the counter-derived
    stream keyed by ``(root, batch_index, i)`` — identical on every
    executor.  When ``stream`` is omitted (direct callers), a root is drawn
    from ``rng`` — one draw, however many instances run.  Round accounting
    is rebuilt driver-side from the scales the executor reports, so the
    :class:`~repro.utils.rounds.RoundReport` is executor-independent too.

    The batch runs on ``graph`` as a :class:`PeeledCSR` view (a dict
    ``Graph`` or a ``CSRGraph`` is wrapped whole first); which kernel runs
    its rows is :func:`repro.parallel.worker.run_chunks`'s choice and never
    changes a cut.  This is the batch alone, one round of one request;
    the sparse-cut search runs the same body, :func:`_nibble_batch`, as
    one step of its own generator.
    """
    view = PeeledCSR.from_graph(graph)
    if stream is None:
        stream = (stream_root(rng), 0)
    root, batch_index = stream
    batch = _nibble_batch(view, params, num_instances, root, batch_index, report)
    return run_rounds(one_per_round(batch), executor or SEQUENTIAL)


def _nibble_batch(view, params, num_instances, root, batch_index, report):
    """One ParallelNibble batch as a generator step: request, then harvest.

    Yields the batch's :class:`~repro.parallel.frontier.BatchRequest`,
    receives its ``(instance_index, scale, cut)`` triples, charges the
    batch's rounds to ``report`` and returns the disjoint-cut harvest.
    """
    triples = yield BatchRequest(view, params, root, batch_index, num_instances)
    instance_reports: list[RoundReport] = []
    found: list[NibbleCut] = []
    for i, scale, cut in triples:
        instance_report = RoundReport(f"instance {i}")
        if scale is not None:
            # Lemma 9 accounting for one ApproximateNibble instance, charged
            # exactly as the instance itself would have (see
            # repro.nibble.nibble._charge_rounds).
            instance_report.subreport(f"approximate_nibble(b={scale})").charge(
                params.t0 + 2 * params.ell
            )
        instance_reports.append(instance_report)
        if cut is not None and not cut.is_empty:
            found.append(cut)
    if report is not None:
        report.add_child(parallel_rounds(instance_reports, label="parallel_nibble"))
    return harvest_disjoint_cuts(found)


def parallel_nibble(
    graph: WorkGraph,
    params: NibbleParameters,
    num_instances: int,
    rng: SeedLike = None,
    report: Optional[RoundReport] = None,
    executor: Optional[Executor] = None,
) -> Optional[NibbleCut]:
    """A batch of RandomNibble instances; returns the best cut found, if any.

    The best cut is the head of the :func:`parallel_nibble_cuts` harvest
    (lowest conductance, ties to larger volume then earlier instance) —
    callers that can absorb several disjoint cuts per batch should use the
    harvest directly.
    """
    cuts = parallel_nibble_cuts(
        graph, params, num_instances, rng, report=report, executor=executor
    )
    return cuts[0] if cuts else None


@dataclass(frozen=True)
class SparseCutResult:
    """Output of the nearly most balanced sparse cut (Theorem 3).

    ``spectral`` carries the spectral certificate of the *input* graph
    when the pre-check computed (or was handed) one before any cut was
    applied — a dense ``eigh`` solve, or the converged Lanczos solve that
    confirmed a large graph's bound — so the expander decomposition's
    authoritative :func:`repro.graphs.spectral.certify_conductance` can
    reuse the solve instead of repeating it (it does so when the
    certificate names the solver it would run itself).
    ``precheck_skips`` counts the ParallelNibble batches the spectral
    pre-check proved pointless and skipped (batch randomness is addressed
    by counter-derived streams, so a skipped batch's draws are simply
    never made — nothing downstream can notice).

    ``interrupted`` marks a search cut short by its deadline: the result
    then carries no cut and — crucially — is *not* a no-cut certificate
    (``certified_no_cut`` stays False; the evidence is simply incomplete).
    The decomposition driver turns an interrupted search into a flagged
    unfinished component.
    """

    cut: frozenset
    conductance: float
    balance: float
    cut_size: int
    certified_no_cut: bool
    batches: int
    report: RoundReport
    spectral: Optional[SpectralCertificate] = None
    precheck_skips: int = 0
    interrupted: bool = False

    @property
    def is_empty(self) -> bool:
        """Whether the result is the empty "no sparse cut exists" certificate."""
        return len(self.cut) == 0


def default_num_instances(graph: WorkGraph) -> int:
    """Batch size for ParallelNibble: Θ(log m) independent instances."""
    return max(4, math.ceil(math.log2(max(graph.num_edges, 2))))


class _PeelWork:
    """Work-state adapter over the working :class:`PeeledCSR` view.

    The input view is cloned (callers keep theirs) and removals are masked
    :meth:`~repro.graphs.peel.PeeledCSR.peel` calls; final measurements run
    against a pristine clone of the initial view, whose integer statistics
    equal the input graph's.

    A batch's harvested-cut removals are deferred and applied as one union
    peel at the end of the application loop (:meth:`flush_batch`), instead
    of one peel — an O(n) masked-array pass — per cut.  Exact, not
    approximate: harvested cuts are pairwise disjoint, Remove-j preserves
    the degrees of the surviving vertices, and ``peel`` is path-independent
    (``tests/test_peel.py`` pins this), so every per-cut decision —
    containment, the small-side flip, the balance check — is simulatable
    from a pending-dead set plus a running volume, and the union peel
    produces bit-for-bit the mask per-cut peels would.  The differential
    matrix checks this against signatures frozen from a dict oracle that
    removed each cut immediately.
    """

    def __init__(self, peel: PeeledCSR) -> None:
        self.peel = peel.clone()
        self.initial = peel.clone()
        #: Deferred-removal state (see the class docstring): base
        #: index arrays awaiting the union peel, the labels they cover, and
        #: their volume — the three facts that keep every adapter query
        #: answering exactly what the sequential per-cut peels would.
        self._pending_indices: list = []
        self._pending_dead: set = set()
        self._pending_volume = 0

    @property
    def search_graph(self) -> PeeledCSR:
        """What the ParallelNibble batch should run on."""
        return self.peel

    @property
    def num_edges(self) -> int:
        """Residual proper edge count of the working view."""
        return self.peel.num_edges

    def total_volume(self) -> int:
        """Vol of the current working view (pending removals excluded).

        Remove-j preserves surviving degrees, so a peel shrinks the total
        volume by exactly the peeled set's volume — which is what makes
        the pending adjustment exact before the union peel lands.
        """
        return self.peel.total_volume - self._pending_volume

    def contains_all(self, cut_vertices: set) -> bool:
        """Whether every cut vertex is still alive (and not pending removal)."""
        if self._pending_dead and not self._pending_dead.isdisjoint(cut_vertices):
            return False
        idx = self.peel.indices_of(cut_vertices)
        return bool(self.peel.alive[idx].all())

    def volume_of(self, cut_vertices: set) -> int:
        """Vol of a vertex set in the current working view.

        Degree-preservation makes an alive set's volume invariant under
        peeling *other* vertices, so pending removals need no adjustment
        here (callers only measure sets that passed :meth:`contains_all`).
        """
        return self.peel.volume(self.peel.indices_of(cut_vertices))

    def complement(self, cut_vertices: set) -> set:
        """The other side of the cut among the currently alive vertices."""
        labels = self.peel.vertices
        alive = {labels[int(i)] for i in self.peel.alive_indices()}
        return alive - self._pending_dead - cut_vertices

    def remove(self, cut_vertices: set) -> None:
        """Peel the cut: the masked Remove-j + vertex drop, deferred.

        The cut joins the batch's pending set and the whole batch lands as
        one union :meth:`~repro.graphs.peel.PeeledCSR.peel` in
        :meth:`flush_batch` (path-independence makes the union bit-equal
        to per-cut peels, at one O(n) pass per batch instead of per cut).
        """
        idx = self.peel.indices_of(cut_vertices)
        self._pending_indices.append(idx)
        self._pending_dead |= set(cut_vertices)
        self._pending_volume += self.peel.volume(idx)

    def flush_batch(self) -> None:
        """Apply every deferred removal as one union peel; idempotent."""
        if self._pending_indices:
            self.peel.peel(np.concatenate(self._pending_indices))
        self._pending_indices = []
        self._pending_dead = set()
        self._pending_volume = 0

    def refresh(self) -> None:
        """Between batches: re-compact the view once it has halved.

        Output-neutral (compaction is bit-identical) but keeps the masked
        kernels' dense-vector cost proportional to what is still alive.
        Flushes first as a guard — compaction renumbers base indices, so
        pending index arrays must never survive it (the application loop
        always flushes before the next batch anyway).
        """
        self.flush_batch()
        self.peel = maybe_compact(self.peel)

    def initial_volume(self, vertices: set) -> int:
        """Vol of a vertex set measured in the initial view (= input graph)."""
        return self.initial.volume(self.initial.indices_of(vertices))

    def initial_vertices(self) -> set:
        """Alive vertex set of the initial view."""
        labels = self.initial.vertices
        return {labels[int(i)] for i in self.initial.alive_indices()}

    def measure(self, vertices: set) -> tuple[float, float, int]:
        """(Φ, balance, |∂|) of a set, measured in the initial view."""
        idx = self.initial.indices_of(vertices)
        return (
            self.initial.conductance_of_cut(idx),
            self.initial.balance_of_cut(idx),
            self.initial.cut_size(idx),
        )


def validate_phi(phi: float) -> None:
    """Reject a conductance target that is not a finite number > 0.

    ``nan`` would otherwise fail deep in the parameter formulas and a
    non-positive target would *certify* components no walk can cut.
    """
    if not (math.isfinite(phi) and phi > 0):
        raise ValueError(f"phi must be a finite number > 0, got {phi!r}")


def _is_count(value) -> bool:
    """Whether ``value`` is an int ≥ 1 (a bool is not a count)."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 1
    )


def _validate_search_arguments(
    num_instances: Optional[int], max_failures: int, balance_target: float
) -> None:
    """Reject sparse-cut tuning arguments that would make the search vacuous.

    A batch of no instances, a stop after no failures, or a balance target
    already met by the empty set would each end the search before any walk
    runs — and an empty result reads as the "no φ-sparse cut" certificate.
    """
    if num_instances is not None and not _is_count(num_instances):
        raise ValueError(
            f"num_instances must be None or an int >= 1, got {num_instances!r}"
        )
    if not _is_count(max_failures):
        raise ValueError(f"max_failures must be an int >= 1, got {max_failures!r}")
    if not (math.isfinite(balance_target) and balance_target > 0):
        raise ValueError(
            f"balance_target must be a finite number > 0, got {balance_target!r}"
        )


def nearly_most_balanced_sparse_cut(
    graph: WorkGraph,
    phi: float,
    mode: ParameterMode = ParameterMode.PRACTICAL,
    seed: SeedLike = None,
    balance_target: float = 1.0 / 3.0,
    max_failures: int = 2,
    num_instances: Optional[int] = None,
    report: Optional[RoundReport] = None,
    params_overrides: Optional[dict] = None,
    spectral_hint: Optional[SpectralCertificate] = None,
    executor: Optional[Executor] = None,
    workers: Optional[int] = None,
    deadline: Optional[Deadline] = None,
) -> SparseCutResult:
    """Theorem 3: accumulate Nibble cuts into a nearly most balanced sparse cut.

    The working graph starts as (a copy of) ``graph`` — callers hand in
    ``G{U}`` directly, as a :class:`PeeledCSR` view of a shared snapshot,
    or a dict ``Graph`` or ``CSRGraph`` that is snapshotted into its
    all-alive view once, here — and is shrunk after
    every harvested cut C by the degree-preserving Remove-j operation
    (boundary edges become compensating self loops at both endpoints, so
    conductance accounting at deeper levels stays honest), after which C's
    vertices leave the working graph.  One ParallelNibble batch may
    contribute *several* pairwise-disjoint cuts (see
    :func:`parallel_nibble_cuts`); they are applied best-first, each
    re-checked against the current working graph (still fully present,
    flipped to the small side, stopped at the balance target).

    Stops when the accumulated S reaches ``balance_target`` of the total
    volume or when ``max_failures`` consecutive ParallelNibble batches
    apply nothing.  An empty result with ``certified_no_cut=True`` is the
    "no φ-sparse cut exists" certificate the expander decomposition
    consumes.

    Before a batch is launched against a working graph whose state has
    not been pre-checked yet, the cheap Cheeger lower bound
    (:func:`repro.graphs.spectral.conductance_lower_bound`) is consulted —
    when it strictly clears ``phi``, every remaining batch is guaranteed to
    fail, so the batches are skipped and the empty certificate is issued
    directly.  The pre-check is output-neutral by construction: batch
    randomness is *addressed* by counter-derived streams (a skipped
    batch's draws are simply never made, leaving the caller's generator
    untouched), the decomposition retains the full spectral certification
    as the authoritative final check, and the parity suite pins
    cut-identity with the pre-check patched off.  ``spectral_hint`` may
    carry a precomputed certificate of the *input* graph (the
    decomposition batches sibling components' solves) so the first
    pre-check costs nothing.

    ``executor``/``workers`` select the execution engine for the
    ParallelNibble batches (:mod:`repro.parallel`): an explicit
    ``executor`` is used as-is (and left open — its owner may be amortising
    one pool over many calls); ``workers`` > 1 creates a
    :class:`~repro.parallel.executor.ShardedExecutor` for the duration of
    this call (falling back to sequential, with one warning, when shared
    memory is unavailable).  The call draws exactly one 64-bit *stream
    root* from ``seed`` up front and addresses every batch as ``(root,
    batch_index)``, so the engine choice changes neither the cuts nor the
    caller's RNG stream — sequential, 1-worker, and N-worker runs are
    cut- and stream-identical.

    ``deadline`` (a :class:`~repro.resilience.deadline.Deadline`, a number
    of seconds, or None) bounds the wall-clock spent in this search.  The
    deadline is checked between batches and — through the ambient deadline
    scope — inside every diffusion-walk step, so expiry stops the search
    within one walk step rather than one batch.  An expired search returns
    an *interrupted* result: empty, not certified — the caller must treat
    the component as unfinished, never as a certified expander.

    The search itself is :func:`sparse_cut_search`, a generator that yields
    each batch's request; this function runs it one request per round.
    The decomposition runs the same generator beside every other live
    search of its recursion, so sibling searches share lockstep calls.

    A ``phi`` that is not a finite number > 0 raises :class:`ValueError`, as
    do a ``num_instances`` or ``max_failures`` that is not an int ≥ 1 and a
    ``balance_target`` that is not a finite number > 0 — each would issue
    the no-cut certificate without running a single instance.
    """
    deadline = resolve_deadline(deadline)
    search = sparse_cut_search(
        graph,
        phi,
        mode=mode,
        seed=seed,
        balance_target=balance_target,
        max_failures=max_failures,
        num_instances=num_instances,
        report=report,
        params_overrides=params_overrides,
        spectral_hint=spectral_hint,
        deadline=deadline,
    )
    engine, owned = resolve_executor(executor, workers)
    try:
        with deadline_scope(deadline):
            return run_rounds(one_per_round(search), engine)
    finally:
        if owned:
            engine.close()


def sparse_cut_search(
    graph: WorkGraph,
    phi: float,
    mode: ParameterMode = ParameterMode.PRACTICAL,
    seed: SeedLike = None,
    balance_target: float = 1.0 / 3.0,
    max_failures: int = 2,
    num_instances: Optional[int] = None,
    report: Optional[RoundReport] = None,
    params_overrides: Optional[dict] = None,
    spectral_hint: Optional[SpectralCertificate] = None,
    deadline: Optional[Deadline] = None,
):
    """Theorem 3's loop as a generator of batch requests.

    Yields each ParallelNibble batch as a
    :class:`~repro.parallel.frontier.BatchRequest` and expects that
    batch's ``(instance_index, scale, cut)`` triples sent back; returns
    the :class:`SparseCutResult`.  Round charging, the harvest, the peels
    and the pre-check all stay in here, so whoever runs the requests — one
    at a time (:func:`nearly_most_balanced_sparse_cut`) or beside other
    searches' requests — gets the same result.  A
    :class:`~repro.resilience.deadline.DeadlineExpired` thrown in at a
    yield ends the search as interrupted, as does ``deadline`` found
    expired between batches; the ambient deadline scope is the runner's.
    The arguments are :func:`nearly_most_balanced_sparse_cut`'s, except
    that ``deadline`` is a :class:`~repro.resilience.deadline.Deadline` or
    None, never seconds.
    """
    validate_phi(phi)
    _validate_search_arguments(num_instances, max_failures, balance_target)
    rng = ensure_rng(seed)
    root = stream_root(rng)
    own_report = report if report is not None else RoundReport("sparse_cut")
    work = _PeelWork(PeeledCSR.from_graph(graph))
    total_volume = work.total_volume()
    accumulated: set[Vertex] = set()
    accumulated_volume = 0
    failures = 0
    batches = 0
    precheck_skips = 0
    spectral_cert: Optional[SpectralCertificate] = None
    checked = False  # whether the current working-graph state was pre-checked
    interrupted = False

    try:
        while (
            work.num_edges > 0
            and failures < max_failures
            and accumulated_volume < balance_target * total_volume
        ):
            if deadline is not None and deadline.expired():
                interrupted = True
                break
            work.refresh()
            params = NibbleParameters.for_mode(
                work.search_graph, phi, mode, **(params_overrides or {})
            )
            batch_size = num_instances or default_num_instances(
                work.search_graph
            )
            if not checked:
                checked = True
                if spectral_hint is not None and not accumulated:
                    bound, cert = (
                        spectral_hint.cheeger_lower_bound,
                        spectral_hint,
                    )
                else:
                    bound, cert = conductance_lower_bound(
                        work.search_graph, phi=phi
                    )
                if cert is not None and not accumulated:
                    # Valid for the *input* graph: nothing has been
                    # removed yet.  Dense or Lanczos alike — the
                    # final check decides whether it can reuse it.
                    spectral_cert = cert
                if bound > phi + PRECHECK_MARGIN:
                    # Φ(working graph) ≥ λ₂/2 > φ: no prefix can ever
                    # satisfy (C.1), so every remaining batch until
                    # max_failures would apply nothing.  Skip them —
                    # their counter-addressed streams are simply never
                    # opened, so no downstream draw can tell — and
                    # charge the pre-check's matvec rounds in their
                    # place.
                    skipped = max_failures - failures
                    own_report.subreport("spectral_precheck").charge(
                        2
                        * math.ceil(
                            math.log2(
                                max(work.search_graph.num_vertices, 2)
                            )
                        )
                    )
                    batches += skipped
                    precheck_skips += skipped
                    failures = max_failures
                    break
            batch_index = batches
            batches += 1
            cuts = yield from _nibble_batch(
                work.search_graph, params, batch_size, root, batch_index, own_report
            )
            applied = 0
            for found in cuts:
                if accumulated_volume >= balance_target * total_volume:
                    break
                cut_vertices = set(found.vertices)
                # An earlier cut of this batch may have been flipped to
                # the big side and swallowed this one's vertices; skip
                # it then.
                if not work.contains_all(cut_vertices):
                    continue
                # Keep S the small side of the working graph so its
                # accumulation tracks the balance target rather than
                # overshooting it.
                if work.volume_of(cut_vertices) > work.total_volume() / 2.0:
                    cut_vertices = work.complement(cut_vertices)
                    if not cut_vertices:
                        continue
                work.remove(cut_vertices)
                accumulated |= cut_vertices
                accumulated_volume = work.initial_volume(accumulated)
                applied += 1
            # One union peel for the whole batch's cuts (see
            # _PeelWork).
            work.flush_batch()
            if applied == 0:
                failures += 1
            else:
                failures = 0
                checked = False  # the working graph changed: re-check
                # before the next batch (an unchanged graph keeps its
                # verdict)
    except DeadlineExpired:
        # A diffusion-walk step (or the pooled executor) noticed the
        # expiry mid-batch, and the round's runner threw it in here:
        # unwind cleanly.  The partially-applied state is discarded
        # below — an interrupted search never reports a cut.
        interrupted = True

    if interrupted:
        return SparseCutResult(
            cut=frozenset(),
            conductance=float("inf"),
            balance=0.0,
            cut_size=0,
            certified_no_cut=False,
            batches=batches,
            report=own_report,
            spectral=spectral_cert,
            precheck_skips=precheck_skips,
            interrupted=True,
        )
    if not accumulated:
        return SparseCutResult(
            cut=frozenset(),
            conductance=float("inf"),
            balance=0.0,
            cut_size=0,
            certified_no_cut=True,
            batches=batches,
            report=own_report,
            spectral=spectral_cert,
            precheck_skips=precheck_skips,
        )
    # Report the small side of the final cut, measured in the input graph.
    if work.initial_volume(accumulated) > total_volume / 2.0:
        accumulated = work.initial_vertices() - accumulated
    conductance, balance, cut_size = work.measure(accumulated)
    return SparseCutResult(
        cut=frozenset(accumulated),
        conductance=conductance,
        balance=balance,
        cut_size=cut_size,
        certified_no_cut=False,
        batches=batches,
        report=own_report,
        precheck_skips=precheck_skips,
    )
