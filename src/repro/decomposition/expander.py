"""Recursive (ε, φ) expander decomposition (paper Section 2, Theorem 1).

Remove at most ε·m inter-component edges so that every remaining connected
component certifies conductance at least φ.  The recursion:

1. Work on ``W = G{U}`` — the induced subgraph with degree-preserving self
   loops, always relative to the *original* graph, exactly as the paper's
   recursion does.  Disconnected working graphs split into their connected
   components for free (zero cut edges).
2. Run the nearly most balanced sparse cut on W.  A non-empty cut S splits U
   into S and U∖S; the crossing edges are charged to the removed-edge budget
   and both sides recurse one level deeper.
3. An empty cut is Theorem 3's certificate; the component is double-checked
   with :func:`repro.graphs.spectral.certify_conductance`.  If the spectral
   check disagrees (the probabilistic Nibble missed a sparse cut) its witness
   cut — the exact minimum cut for small components, the Fiedler sweep cut
   otherwise — is used as a deterministic fallback splitter so the output
   guarantee never silently degrades.

Levels are chained through the paper's h / h⁻¹ re-parameterisation: level i
searches for cuts at θ_i where θ_0 = φ and θ_{i+1} = h⁻¹(θ_i) (Section 2's
parameter schedule).  In PAPER mode the schedule is used verbatim; in
PRACTICAL mode the search parameter is floored at φ (the schedule collapses
to impractically small values within two levels — EXPERIMENTS.md discusses
the trade-off), while the theoretical schedule is still reported.  The
schedule length also bounds the recursion depth.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

from ..graphs.csr import CSRGraph
from ..graphs.graph import Edge, Graph
from ..graphs.peel import PeeledCSR, maybe_compact
from ..graphs.spectral import (
    SpectralCertificate,
    batched_component_certificates,
    certify_conductance,
)
from ..nibble.parameters import ParameterMode, h_inverse
from ..parallel.executor import (
    SEQUENTIAL,
    Executor,
    SubtreeSpec,
    SubtreeTask,
    resolve_executor,
)
from ..parallel.frontier import Rounds, one_per_round, run_rounds, run_together
from ..resilience.deadline import Deadline, deadline_scope, resolve_deadline
from ..utils.rng import (
    SeedLike,
    component_stream_key,
    ensure_rng,
    split_stream,
    stream_root,
    subtree_journal_key,
)
from ..utils.rounds import RoundReport
from .sparse_cut import sparse_cut_search, validate_phi

# Each component's search runs as the generator ``sparse_cut_search``; the
# one-search wrapper stays importable here because benchmark/tracing.py
# wraps the ``sparse_cut`` layer's boundary at this module.
from .sparse_cut import nearly_most_balanced_sparse_cut  # noqa: F401


@dataclass(frozen=True)
class ExpanderComponent:
    """One output component of the decomposition.

    ``unfinished`` marks a component the run did not get to process: its
    deadline expired before the subtree was searched, so the vertices are
    emitted as one explicitly-uncertified block (never silently wrong,
    never raised through).  Unfinished components only appear on
    :class:`PartialDecomposition` results.
    """

    vertices: frozenset
    certified: bool
    conductance_estimate: float
    level: int
    unfinished: bool = False

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass
class DecompositionResult:
    """An (ε, φ) expander decomposition together with its cost accounting."""

    components: list[ExpanderComponent]
    cut_edges: list[Edge]
    epsilon: float
    phi: float
    num_edges: int
    level_schedule: list[float]
    report: RoundReport = field(default_factory=lambda: RoundReport("expander_decomposition"))
    #: ParallelNibble batches skipped by the spectral pre-check, summed over
    #: every level's sparse-cut call.  Determined by the decomposition, not
    #: the engine, so it is safe to diff across machines in the bench smoke
    #: gates.
    precheck_skips: int = 0

    @property
    def num_components(self) -> int:
        """Number of output components."""
        return len(self.components)

    @property
    def inter_edge_fraction(self) -> float:
        """Removed edges as a fraction of |E| (the ε·m budget check)."""
        if self.num_edges == 0:
            return 0.0
        return len(self.cut_edges) / self.num_edges

    @property
    def within_budget(self) -> bool:
        """Whether the removed edges respect the ε·m budget."""
        return len(self.cut_edges) <= self.epsilon * self.num_edges

    @property
    def certified_fraction(self) -> float:
        """Fraction of components whose conductance certificate succeeded."""
        if not self.components:
            return 1.0
        return sum(1 for c in self.components if c.certified) / len(self.components)

    @property
    def partial(self) -> bool:
        """Whether a deadline cut the run short (True on :class:`PartialDecomposition`)."""
        return False

    def component_sets(self) -> list[frozenset]:
        """The vertex sets alone, largest first."""
        return sorted((c.vertices for c in self.components), key=len, reverse=True)


class PartialDecomposition(DecompositionResult):
    """A deadline-bounded decomposition: finished prefix + flagged remainder.

    Returned by :func:`expander_decomposition` instead of a plain
    :class:`DecompositionResult` whenever its deadline expired mid-run.
    Every vertex is still covered — subtrees the run never reached are
    emitted as single ``unfinished=True`` uncertified components — so the
    result is never silently wrong, and the *finished* components are a
    bitwise prefix of the unbounded run's components (the merge is in
    canonical DFS order, and every sibling after the first unfinished one
    is flagged whole; docs/RESILIENCE.md carries the argument,
    ``tests/test_resilience.py`` pins it).
    """

    @property
    def partial(self) -> bool:
        """Always True: the run was cut short by its deadline."""
        return True

    @property
    def unfinished_components(self) -> list[ExpanderComponent]:
        """The components the deadline prevented from being processed."""
        return [c for c in self.components if c.unfinished]

    @property
    def finished_components(self) -> list[ExpanderComponent]:
        """The certified-or-refuted prefix the run completed before expiry."""
        return [c for c in self.components if not c.unfinished]


def recursion_depth_bound(num_vertices: int) -> int:
    """The paper's recursion-depth bound 2⌈log₂ n⌉ + 2: every level splits
    off at least a constant fraction of the volume or terminates."""
    return 2 * math.ceil(math.log2(max(num_vertices, 2))) + 2


def level_schedule(
    phi: float,
    num_vertices: int,
    mode: ParameterMode = ParameterMode.PRACTICAL,
    max_levels: Optional[int] = None,
    floor: float = 1e-9,
) -> list[float]:
    """The per-level cut parameters θ_0 = φ, θ_{i+1} = h⁻¹(θ_i).

    Stops once the parameter hits ``floor`` or after ``max_levels`` entries
    (default :func:`recursion_depth_bound`).
    """
    if max_levels is None:
        max_levels = recursion_depth_bound(num_vertices)
    schedule = [phi]
    while len(schedule) < max_levels:
        nxt = h_inverse(schedule[-1], num_vertices, mode)
        if nxt < floor:
            break
        schedule.append(nxt)
    return schedule


def search_kwargs_key(sparse_cut_kwargs: Optional[dict]) -> str:
    """The canonical string of the sparse-cut kwargs that shape a search.

    ``executor`` and ``workers`` are dropped: they select *how* batches
    and sibling subtrees run, never *what* they produce (the
    :mod:`repro.parallel` identity contract), and an executor's ``repr``
    carries a process-local address.  Everything else — batch sizes,
    parameter overrides — is serialised with sorted keys at every depth,
    so equal searches give equal strings.  The run journal pins it and the
    triangle workload's decomposition cache keys on it.
    """
    searched = {
        key: value
        for key, value in (sparse_cut_kwargs or {}).items()
        if key not in ("executor", "workers")
    }
    return json.dumps(searched, sort_keys=True, default=repr)


@dataclass
class _SubtreeOutcome:
    """Everything one recursion subtree produces.

    Pool workers pickle this back to the driver (every field is plain
    data); the driver's merge is a canonical-order concatenation, so the
    outcome of a subtree group is independent of which engine ran it.
    """

    components: list[ExpanderComponent] = field(default_factory=list)
    cut_edges: list[Edge] = field(default_factory=list)
    #: Flat list of per-level :class:`RoundReport`\ s in canonical DFS
    #: order; the driver re-attaches them to the run's top report.
    reports: list[RoundReport] = field(default_factory=list)
    precheck_skips: int = 0

    def absorb(self, child: "_SubtreeOutcome") -> None:
        """Append a child subtree's outcome (children arrive in canonical order)."""
        self.components.extend(child.components)
        self.cut_edges.extend(child.cut_edges)
        self.reports.extend(child.reports)
        self.precheck_skips += child.precheck_skips


@dataclass
class _SubtreeContext:
    """The run-wide recursion state shared by every subtree of one run.

    ``root`` is the single stream root drawn from the caller's generator;
    ``engine`` decides where sibling subtrees execute (the batches of every
    live search run through the driver's one loop, :func:`run_rounds`);
    ``cut_kwargs`` are the searches' tuning arguments; ``base`` is the
    host's CSR snapshot, which every working graph restricts as a
    :class:`~repro.graphs.peel.PeeledCSR` view.  The resilience fields:
    ``journal`` replays and records completed subtrees
    (:class:`~repro.resilience.journal.RunJournal`), ``deadline`` bounds
    the run (:class:`~repro.resilience.deadline.Deadline`), and
    ``on_progress`` receives the running emitted-component count — the
    bench heartbeat's data feed.
    """

    base: CSRGraph
    phi: float
    mode: ParameterMode
    schedule: list[float]
    max_depth: int
    cut_kwargs: dict
    root: int
    engine: Executor
    journal: Optional[object] = None
    deadline: Optional[Deadline] = None
    on_progress: Optional[object] = None
    progress: int = 0

    def spec(self) -> SubtreeSpec:
        """The dispatch spec for pooled sibling groups.

        Worker-side batches run on the sequential engine — workers never
        nest pools — and the stream discipline makes that invisible to
        every output.  ``deadline`` rides along driver-side only (the
        engine bounds its waits with it; it is never pickled).
        """
        return SubtreeSpec(
            base=self.base,
            phi=self.phi,
            mode=self.mode,
            schedule=tuple(self.schedule),
            max_depth=self.max_depth,
            cut_kwargs=dict(self.cut_kwargs),
            root=self.root,
            deadline=self.deadline,
        )


def _bump(ctx: _SubtreeContext, count: int) -> None:
    """Advance the emitted-component counter; feed the progress callback."""
    if count <= 0:
        return
    ctx.progress += count
    if ctx.on_progress is not None:
        ctx.on_progress(ctx.progress)


def _emit(
    ctx: _SubtreeContext, outcome: _SubtreeOutcome, component: ExpanderComponent
) -> None:
    """Emit one component from driver-side recursion (progress included)."""
    outcome.components.append(component)
    _bump(ctx, 1)


def _expired(ctx: _SubtreeContext) -> bool:
    """Whether the run's deadline (if any) has expired."""
    return ctx.deadline is not None and ctx.deadline.expired()


def _unfinished_marker(subset: frozenset, depth: int) -> ExpanderComponent:
    """The flagged placeholder for a subtree the deadline cut off."""
    return ExpanderComponent(frozenset(subset), False, 0.0, depth, unfinished=True)


def _finished(outcome: _SubtreeOutcome) -> bool:
    """Whether a subtree outcome contains no deadline-cut placeholder."""
    return not any(component.unfinished for component in outcome.components)


def _run_children(
    ctx: _SubtreeContext, outcome: _SubtreeOutcome, tasks: list[SubtreeTask]
) -> Rounds:
    """Run sibling subtrees through the engine; merge in task order.

    ``tasks`` arrive in canonical (ascending smallest-``repr``) order and
    the engine returns outcomes positionally, so the merged component,
    cut-edge, and report order is the same whether the siblings ran
    together, permuted, or on pool workers.  The siblings the engine keeps
    run as one group (:func:`_run_group`): their searches' batch requests
    leave through this generator's rounds, beside every other live
    search's.

    The journal seam lives here: subtrees already journaled are replayed
    without dispatching (their recorded outcome is bit-identical to a
    re-run, per the stream discipline), a subtree the group ran is
    recorded as soon as it finishes, and a finished pool-returned one when
    it arrives — so a killed run resumes at sibling-subtree granularity.
    Progress accounting: group members bump the shared context as they
    emit; journal replays and pool-returned outcomes arrive whole and are
    bumped here.

    The deadline's prefix rule: the siblings ran side by side, so a later
    one may have finished while an earlier one was cut off.  Every sibling
    after the first unfinished one becomes its subset's unfinished marker,
    and its cut edges go with it, so the finished components stay a
    prefix of the unbounded run's.
    """
    results: list = [None] * len(tasks)
    replayed: set[int] = set()
    pooled: set[int] = set()
    pending: list[SubtreeTask] = []
    pending_positions: list[int] = []
    for i, task in enumerate(tasks):
        if ctx.journal is not None:
            cached = ctx.journal.get(subtree_journal_key(task.depth, task.subset))
            if cached is not None:
                results[i] = cached
                replayed.add(i)
                continue
        pending.append(task)
        pending_positions.append(i)
    if pending:
        children, shipped = yield from ctx.engine.run_siblings(
            pending, functools.partial(_run_group, ctx), spec=ctx.spec()
        )
        for position, child in zip(pending_positions, children):
            results[position] = child
        pooled = {pending_positions[k] for k in shipped}
    cut_off = False
    for i, (task, child) in enumerate(zip(tasks, results)):
        if i in replayed or i in pooled:
            _bump(ctx, len(child.components))
        if ctx.journal is not None and i in pooled and _finished(child):
            ctx.journal.record(subtree_journal_key(task.depth, task.subset), child)
        if cut_off:
            child = _SubtreeOutcome(
                components=[_unfinished_marker(task.subset, task.depth)]
            )
        cut_off = cut_off or not _finished(child)
        outcome.absorb(child)
    return outcome


def _run_group(ctx: _SubtreeContext, tasks: list[SubtreeTask]) -> Rounds:
    """The group callback: decompose ``tasks`` side by side, outcomes in order.

    Each member is advanced until its searches make their next requests
    (:func:`~repro.parallel.frontier.run_together`); a member is recorded
    in the journal the moment it finishes.
    """
    return (yield from run_together([_recorded_subtree(ctx, task) for task in tasks]))


def _recorded_subtree(ctx: _SubtreeContext, task: SubtreeTask) -> Rounds:
    """One group member: its subtree, journaled when it finishes."""
    outcome = yield from _decompose_subtree(
        ctx, task.subset, task.depth, task.hint, task.connected
    )
    if ctx.journal is not None and _finished(outcome):
        ctx.journal.record(subtree_journal_key(task.depth, task.subset), outcome)
    return outcome


def _decompose_subtree(
    ctx: _SubtreeContext,
    subset: frozenset,
    depth: int,
    hint: Optional[SpectralCertificate] = None,
    connected: bool = False,
) -> Rounds:
    """Decompose one component subtree; the recursive heart of Theorem 1.

    A generator of request rounds (:mod:`repro.parallel.frontier`): the
    component's sparse-cut search yields each ParallelNibble batch, and a
    split passes on the rounds of its children, which run side by side.
    Returns the subtree's outcome.

    Pure in ``(ctx-parameters, subset, depth, hint)``: the searched node's
    randomness comes from ``split_stream(ctx.root, depth,
    component_stream_key(subset))`` rather than a threaded generator, so
    sibling subtrees can run in any order, interleaved, on any process,
    and still produce these exact bits.  Python-frame depth stays a few
    generator frames per tree level and at most two tree levels per
    recursion depth (a disconnected subset splits into connected pieces at
    the same depth, and connected pieces either cut — descending a depth —
    or terminate), so the ``max_depth`` bound of 2⌈log₂n⌉ + 2 keeps the
    recursion far under the interpreter limit even at n = 10⁷.

    ``connected`` marks a subset its parent split off as one connected
    component; it is not scanned for components again.  The flag only
    skips work, so it is not part of the subtree's journal or stream key.
    """
    outcome = _SubtreeOutcome()
    if not subset:
        return outcome
    if ctx.journal is not None:
        cached = ctx.journal.get(subtree_journal_key(depth, subset))
        if cached is not None:
            # A completed run replayed from the top, or a resumed top-level
            # subtree: the recorded outcome is bit-identical to a re-run.
            _bump(ctx, len(cached.components))
            return cached
    if _expired(ctx):
        # Deadline already spent before this subtree was touched: emit the
        # whole subset as one flagged, uncertified, unfinished block.
        # Never raise — ancestors keep merging and the run ends cleanly.
        _emit(ctx, outcome, _unfinished_marker(subset, depth))
        return outcome
    # Deep-recursion subsets are a shrinking fraction of the host: compact
    # the view once it has halved so its arrays stay proportional to the
    # component, not to the original n.  A singleton needs no view.
    view = None
    if len(subset) > 1:
        view = maybe_compact(
            PeeledCSR.for_subset(ctx.base, (ctx.base.index[v] for v in subset))
        )

    if view is None or view.num_edges == 0:
        # Isolated vertices (all their degree is self loops) are vacuously
        # φ-expanders: they admit no cut at all.  repr-sorted so the
        # component order is canonical on every process.
        for v in sorted(subset, key=repr):
            _emit(
                ctx, outcome, ExpanderComponent(frozenset([v]), True, float("inf"), depth)
            )
        return outcome

    pieces = [subset] if connected else view.connected_components()
    if len(pieces) > 1:
        # Splitting along existing components removes no edges.  The
        # canonical piece order (ascending smallest ``repr``, which a view
        # of a dict host produces natively) keeps the merge — and with it
        # the output ordering — independent of the host's form.
        pieces.sort(key=lambda piece: min(map(repr, piece)))
        # Batch the sibling components' spectral solves: one stacked eigh
        # per size class instead of one dispatch per future pre-check.
        # Each hint is bit-identical to the solo solve, so downstream
        # decisions are unchanged.
        hints = batched_component_certificates(view, pieces)
        tasks = [
            SubtreeTask(frozenset(piece), depth, piece_hint, connected=True)
            for piece, piece_hint in zip(pieces, hints)
        ]
        return (yield from _run_children(ctx, outcome, tasks))

    if depth >= ctx.max_depth:
        if _expired(ctx):
            _emit(ctx, outcome, _unfinished_marker(subset, depth))
            return outcome
        certified, estimate, _ = certify_conductance(
            view, ctx.phi, precomputed=hint
        )
        _emit(
            ctx, outcome, ExpanderComponent(frozenset(subset), certified, estimate, depth)
        )
        return outcome

    # Section 2's parameter chain; PRACTICAL floors the search at φ so
    # deep levels keep finding the cuts the certification target demands.
    theta = ctx.schedule[min(depth, len(ctx.schedule) - 1)]
    search_phi = theta if ctx.mode is ParameterMode.PAPER else max(theta, ctx.phi)
    level_report = RoundReport(f"level {depth} (n={len(subset)})")
    cut_result = yield from one_per_round(
        sparse_cut_search(
            view,
            search_phi,
            mode=ctx.mode,
            seed=split_stream(ctx.root, depth, component_stream_key(subset)),
            report=level_report,
            spectral_hint=hint,
            deadline=ctx.deadline,
            **ctx.cut_kwargs,
        )
    )
    outcome.reports.append(level_report)
    outcome.precheck_skips += cut_result.precheck_skips

    if cut_result.interrupted:
        # The deadline fired inside the cut search: the search's partial
        # evidence proves nothing either way, so the subtree becomes one
        # flagged unfinished block.  Checked before ``is_empty`` — an
        # interrupted result is empty but is *not* a no-cut certificate.
        _emit(ctx, outcome, _unfinished_marker(subset, depth))
        return outcome

    split: Optional[frozenset] = None
    if not cut_result.is_empty:
        split = cut_result.cut
    else:
        if _expired(ctx):
            # Expired between the (certified) empty search and the final
            # spectral check: don't start an eigensolve past the budget.
            _emit(ctx, outcome, _unfinished_marker(subset, depth))
            return outcome
        # Authoritative final check, straight off the working view (no
        # dict G{U} rebuild).  A certificate the pre-check already computed
        # for this very graph is reused when it names the solver the check
        # would run: dense up to DENSE_EIGH_LIMIT vertices, Lanczos above,
        # so a large component is compacted and solved once.
        certified, estimate, witness = certify_conductance(
            view, ctx.phi, precomputed=cut_result.spectral or hint
        )
        if certified:
            _emit(
                ctx, outcome, ExpanderComponent(frozenset(subset), True, estimate, depth)
            )
            return outcome
        # Nibble certified "no cut" but the spectral check disagrees:
        # split on the check's own witness cut so a missed sparse cut
        # cannot silently produce an uncertified component.
        if witness and len(witness) < len(subset):
            level_report.subreport("fallback_split").charge(view.num_vertices)
            split = frozenset(witness)
        else:
            _emit(
                ctx, outcome, ExpanderComponent(frozenset(subset), False, estimate, depth)
            )
            return outcome

    rest = frozenset(subset - split)
    outcome.cut_edges.extend(view.cut_edges(view.indices_of(split)))
    sides = sorted(
        (side for side in (frozenset(split), rest) if side),
        key=lambda side: min(map(repr, side)),
    )
    tasks = [SubtreeTask(side, depth + 1, None) for side in sides]
    return (yield from _run_children(ctx, outcome, tasks))


def decompose_subtree_on_base(
    base: CSRGraph,
    subset_indices,
    depth: int,
    hint: Optional[SpectralCertificate],
    connected: bool,
    spec: SubtreeSpec,
) -> _SubtreeOutcome:
    """One recursion subtree against a host snapshot: the pool-worker body.

    :func:`repro.parallel.worker.run_subtree` calls this with the
    rehydrated shared-memory ``base``; ``subset_indices`` are base vertex
    indices (labels are not shipped — the snapshot already carries them),
    ``connected`` is the task's known-connected flag, and ``spec`` carries
    the run's parameters (its own ``base`` and ``deadline`` are not used).
    Runs the exact :func:`_decompose_subtree` recursion on the sequential
    executor (sibling groups and batch rounds inline), so the returned
    outcome is bit-identical to the driver decomposing the same subtree
    itself.
    """
    labels = base.vertices
    subset = frozenset(labels[int(i)] for i in subset_indices)
    ctx = _SubtreeContext(
        base=base,
        phi=spec.phi,
        mode=spec.mode,
        schedule=list(spec.schedule),
        max_depth=spec.max_depth,
        cut_kwargs=dict(spec.cut_kwargs),
        root=spec.root,
        engine=SEQUENTIAL,
    )
    return run_rounds(_decompose_subtree(ctx, subset, depth, hint, connected), SEQUENTIAL)


def expander_decomposition(
    graph: "Graph | CSRGraph",
    epsilon: float,
    phi: float,
    mode: ParameterMode = ParameterMode.PRACTICAL,
    seed: SeedLike = None,
    max_depth: Optional[int] = None,
    sparse_cut_kwargs: Optional[dict] = None,
    executor: Optional[Executor] = None,
    workers: Optional[int] = None,
    journal=None,
    deadline=None,
    on_progress=None,
) -> DecompositionResult:
    """Decompose ``graph`` into φ-expander components, removing ≤ ε·m edges.

    Parameters
    ----------
    graph:
        The host graph G.  All working graphs are ``G{U}`` relative to it.
        May be a :class:`~repro.graphs.csr.CSRGraph` snapshot directly — a
        memory-mapped one included (:meth:`CSRGraph.from_mmap`) — in which
        case it serves as the shared base for every level's peeled view
        without any dict materialisation, which is what lets 10⁷-edge
        graphs decompose without ever holding a dict graph in RAM (the run
        is still bit-identical to a dict-host run of the same graph, as the
        differential suite pins).  A dict host is snapshotted once; every
        working subset, at every level, is a
        :class:`~repro.graphs.peel.PeeledCSR` view of the one snapshot.
    epsilon:
        Removed-edge budget as a fraction of |E| (reported, and checkable via
        :attr:`DecompositionResult.within_budget`); a finite number ≥ 0.
    phi:
        Conductance target each component must certify; a finite number
        > 0.  Either argument out of range raises :class:`ValueError`.
    mode:
        PAPER uses the verbatim parameter schedules; PRACTICAL (default) the
        runnable ones.
    max_depth:
        Recursion depth cap, an int ≥ 0 (anything else raises
        :class:`ValueError`); defaults to :func:`recursion_depth_bound`.
        Components hit by the cap are emitted with their spectral
        certificate as-is (usually ``certified=False``).
    sparse_cut_kwargs:
        Extra keyword arguments forwarded to
        :func:`nearly_most_balanced_sparse_cut` (batch sizes, overrides).
        Sibling components split off together always get their spectral
        solves batched into stacked ``eigh`` calls
        (:func:`repro.graphs.spectral.batched_component_certificates`) and
        handed down as the sparse cut's pre-check hints; like the
        pre-check itself this is output-neutral by construction, which
        the parity suite pins by patching both off.
    executor, workers:
        Execution engine (:mod:`repro.parallel`), used for both kinds of
        independent task: the ParallelNibble batches (``run_batches``) and
        whole sibling subtrees of the recursion (``run_siblings``).  The
        recursion runs sibling subtrees side by side, and every search
        live at once hands its batch to the same round, so the engine can
        run a round's small batches as one fused lockstep call.
        ``workers`` > 1 creates one
        :class:`~repro.parallel.executor.ShardedExecutor` — one process
        pool, one shared snapshot per base — amortised over the whole
        recursion and closed on return; an explicit ``executor`` is used
        as-is and left open for its owner (passing both raises
        :class:`ValueError`).  The engine is output-invisible: batch
        randomness is counter-addressed by ``(root, batch, instance)`` and
        component randomness by ``(root, depth, component_stream_key)``,
        so the decomposition (clusters, cut edges, reports, RNG stream) is
        identical for sequential, 1-worker, and N-worker runs, and
        degradation (no shared memory, a broken pool) falls back to
        sequential with one warning.  The call draws exactly one stream
        root from ``seed`` — however deep the recursion, however many
        batches run.  ``executor`` is also the testing seam: a
        scheduling-invariance suite passes an executor that runs siblings
        in a shuffled order.
    journal:
        A :class:`~repro.resilience.journal.RunJournal` for
        checkpoint/resume.  Completed subtrees are recorded as the run
        proceeds; a later call with the same journal, graph, seed, and
        parameters replays them instead of recomputing, so a run killed
        at any point resumes bit-identically — same components, same cut
        edges, same RNG post-state as an uninterrupted run (the journal's
        ``meta.json`` pins the run identity — seed, parameters and
        :func:`search_kwargs_key` of ``sparse_cut_kwargs`` — and a
        mismatch raises :class:`ValueError`).  Journals are driver-side
        only; pool workers never see one.
    deadline:
        A wall-clock budget: seconds (a float; ``inf`` never expires, NaN
        raises :class:`ValueError`) or a prepared
        :class:`~repro.resilience.deadline.Deadline`.  On expiry the run
        stops cleanly and returns a :class:`PartialDecomposition` whose
        untouched subtrees are flagged ``unfinished`` uncertified
        components — never an exception, never silent wrongness, and the
        finished components are a bitwise prefix of the unbounded run's
        (siblings run side by side, so every sibling after the first
        unfinished one is flagged whole; docs/RESILIENCE.md).
    on_progress:
        Callback receiving the cumulative emitted-component count as the
        run proceeds — the feed for bench's heartbeat lines.
    """
    validate_phi(phi)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    if max_depth is not None and (
        not isinstance(max_depth, numbers.Integral)
        or isinstance(max_depth, bool)
        or max_depth < 0
    ):
        raise ValueError(f"max_depth must be None or an int >= 0, got {max_depth!r}")
    rng = ensure_rng(seed)
    engine, owned_engine = resolve_executor(executor, workers)
    report = RoundReport("expander_decomposition")
    schedule = level_schedule(phi, graph.num_vertices, mode)
    if max_depth is None:
        max_depth = recursion_depth_bound(graph.num_vertices)
    # sparse_cut_kwargs may legitimately carry its own "executor"; an
    # explicit entry there runs the searches' batches instead of the
    # decomposition-level engine.
    cut_kwargs = dict(sparse_cut_kwargs or {})
    batch_engine = cut_kwargs.pop("executor", None) or engine
    # One draw, however many components are searched: every node of the
    # recursion derives its stream from the root and its own address.
    # Drawn before the journal is consulted, so a fully-replayed resume
    # leaves the caller's generator in the same post-state as the
    # uninterrupted run did.
    root = stream_root(rng)
    if journal is not None:
        journal.bind(
            root=root,
            phi=phi,
            mode=str(mode),
            max_depth=int(max_depth),
            num_vertices=int(graph.num_vertices),
            num_edges=int(graph.num_edges),
            sparse_cut_kwargs=search_kwargs_key(sparse_cut_kwargs),
        )
    # Every working graph is a view of this one snapshot (a CSR host is
    # its own), so no level builds a dict G{U}.
    base = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    ctx = _SubtreeContext(
        base=base,
        phi=phi,
        mode=mode,
        schedule=schedule,
        max_depth=int(max_depth),
        cut_kwargs=cut_kwargs,
        root=root,
        engine=engine,
        journal=journal,
        deadline=resolve_deadline(deadline),
        on_progress=on_progress,
    )
    top = frozenset(base.vertices)
    try:
        # One loop runs every round of batch requests the live searches
        # make, wherever in the recursion they are.
        with deadline_scope(ctx.deadline):
            outcome = run_rounds(_decompose_subtree(ctx, top, 0, None), batch_engine)
    finally:
        if owned_engine:
            engine.close()
    if journal is not None and _finished(outcome):
        journal.record(subtree_journal_key(0, top), outcome)
    for level_report in outcome.reports:
        report.add_child(level_report)

    result_type = (
        DecompositionResult if _finished(outcome) else PartialDecomposition
    )
    return result_type(
        components=outcome.components,
        cut_edges=outcome.cut_edges,
        epsilon=epsilon,
        phi=phi,
        num_edges=graph.num_edges,
        level_schedule=schedule,
        report=report,
        precheck_skips=outcome.precheck_skips,
    )
