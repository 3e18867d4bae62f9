"""The execution-backend seam: where ParallelNibble batches and sibling subtrees run.

The pipeline has two kinds of independent task and one seam for both,
the :class:`Executor` protocol.  :meth:`Executor.run_batches` runs one
round of ParallelNibble batches — every :class:`~repro.parallel.frontier
.BatchRequest` that the live searches of a decomposition made at once —
and returns each request's ordered ``(instance_index, scale, cut)``
triples (executors never touch :class:`~repro.utils.rounds.RoundReport`;
the driver rebuilds exact round accounting from the scales).
:meth:`Executor.run_siblings` runs a group of sibling subtrees of the
decomposition recursion and returns their outcomes in task order; it is
a generator, so the subtrees it keeps in the driver pass their batch
requests up to the driver's one loop (:func:`~repro.parallel.frontier
.run_rounds`) instead of running them alone.
:class:`SequentialExecutor` is the bit-identity oracle: everything runs
inline, a round's small batches fused into shared lockstep calls
(:func:`~repro.parallel.worker.run_chunks`).  :class:`ShardedExecutor`
publishes the immutable CSR snapshot once into shared memory
(:class:`~repro.parallel.shared.SharedCSR`) and fans batch chunks and
whole subtrees out over a ``ProcessPoolExecutor``; both task kinds share
its submit (:meth:`ShardedExecutor._submit`) and collect
(:meth:`ShardedExecutor._collect`) path.

Cut-identity across engines falls out of the stream discipline
(:mod:`repro.utils.rng`): instance ``i`` of batch ``b`` draws from a
stream keyed by ``(root, b, i)`` and the subtree of subset *S* at depth
*d* from one keyed by ``(root, d, component_stream_key(S))`` on every
engine, so which worker runs a task — or whether a pool exists at all,
or which other batches share its lockstep call — cannot reach the
outputs.  That same property is the foundation of the resilience layer
(:mod:`repro.resilience`): a crashed, hung, or lying worker's job is
simply re-run inline on the same addressed streams — bit-identically —
while the pool is torn down and rebuilt for the next group.  Failures are
recorded as structured :class:`~repro.resilience.events.DegradeEvent`\\ s
on the executor; only when the bounded rebuild budget
(``max_pool_rebuilds``) is exhausted does the engine degrade to inline
execution permanently, with the one classic warning.  Every pooled result
is re-verified in the driver (:func:`validate_batch_triples`,
:func:`validate_subtree_outcome`), so a corrupted result is caught and
recomputed, never silently propagated.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import signal
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Generator, Optional

import numpy as np

from concurrent.futures import TimeoutError as _FuturesTimeout

from ..graphs.csr import CSRGraph
from ..nibble.nibble import NibbleCut
from ..nibble.parameters import NibbleParameters
from ..resilience.deadline import DeadlineExpired, active_deadline, check_walk_deadline
from ..resilience.events import DegradeEvent, ResultValidationError
from .shared import SharedCSR, shared_memory_available
from .frontier import BatchRequest
from .worker import run_chunk, run_chunks, run_sharded_chunk, run_subtree

#: A batch result: ``(instance_index, scale-or-None, cut-or-None)`` triples,
#: ascending by instance index.
BatchResult = list[tuple[int, Optional[int], Optional[NibbleCut]]]

#: Below this many alive vertices a sharded batch runs inline: the walks
#: are microseconds-cheap and per-task IPC would dominate.  Deep-recursion
#: pieces therefore stay sequential while the big early levels fan out.
SHARD_MIN_VERTICES = 256

#: How many published snapshots a sharded executor keeps live at once.
#: Compaction mints a new base per halving, so a recursion branch touches
#: O(log n) bases over its lifetime but only the latest few concurrently.
PUBLISH_CACHE_SIZE = 8

#: Exception classes that mean "a pooled task timed out".  On Python 3.10
#: ``concurrent.futures.TimeoutError`` is still distinct from the builtin;
#: 3.11+ aliases them.
TIMEOUT_ERRORS = (TimeoutError, _FuturesTimeout)

#: Default pool-rebuild budget: how many failure episodes a sharded
#: executor absorbs (tearing the pool down and lazily rebuilding it) before
#: degrading to inline execution permanently.  ``max_pool_rebuilds=0``
#: restores the historic first-failure-is-final policy.
POOL_REBUILD_LIMIT = 2


def sequential_batch(
    graph,
    params: NibbleParameters,
    root: int,
    batch_index: int,
    num_instances: int,
    task_streams=None,
) -> BatchResult:
    """Run a whole batch inline, instance by instance, in index order.

    One batch alone, as :meth:`SequentialExecutor.run_batches` runs a
    round of one.  ``task_streams`` defaults to
    :func:`repro.utils.rng.task_stream`; injectable for tests that probe
    the stream keying.

    Duplicate ``(start, scale)`` draws within the batch are run once (see
    :func:`repro.parallel.worker.run_chunk`) — exact, not approximate,
    because the batch's graph is invariant and an instance is
    deterministic given its draws.  This is what tames the terminal
    deep-recursion batches on clique chains, where a handful of possible
    starts meets Θ(log m) instances.
    """
    return run_chunk(
        graph, params, root, batch_index, range(num_instances), streams=task_streams
    )


def validate_batch_triples(
    graph, params: NibbleParameters, results: BatchResult, instance_indices: list[int]
) -> None:
    """Re-verify a pooled batch chunk's triples against the working graph.

    The certification re-check of the resilience contract: every claimed
    cut's volume, boundary size, and conductance are recomputed from the
    cut's own vertices on the driver's working view — the same integer
    sweep statistics and the same float division the worker's scan used,
    so agreement is exact, not approximate — and the instance indices and
    truncation scales are checked against the chunk's ``instance_indices``
    (in order) and the parameter schedule.  Any disagreement raises
    :class:`~repro.resilience.events.ResultValidationError`, which the
    executor treats like a crashed worker: re-run inline, rebuild the
    pool.  A corrupted result can therefore never reach a caller.
    """
    indices = [index for index, _, _ in results]
    if indices != list(instance_indices):
        raise ResultValidationError(
            f"pooled chunk returned instance indices {indices}; "
            f"expected exactly {list(instance_indices)}"
        )
    for index, scale, cut in results:
        if scale is not None and not 1 <= scale <= params.ell:
            raise ResultValidationError(
                f"instance {index} claims truncation scale {scale} outside "
                f"the schedule 1..{params.ell}"
            )
        if cut is None or cut.is_empty:
            continue
        try:
            cut_indices = graph.indices_of(cut.vertices)
            alive = bool(graph.alive[cut_indices].all())
            volume = int(graph.volume(cut_indices))
            cut_size = int(graph.cut_size(cut_indices))
            conductance = float(graph.conductance_of_cut(cut_indices))
        except Exception as exc:
            raise ResultValidationError(
                f"instance {index} returned a cut outside the working graph "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if (
            not alive
            or volume != cut.volume
            or cut_size != cut.cut_size
            or conductance != cut.conductance
        ):
            raise ResultValidationError(
                f"instance {index} returned a cut whose recomputed statistics "
                f"disagree with its claim: volume {volume} vs {cut.volume}, "
                f"cut size {cut_size} vs {cut.cut_size}, conductance "
                f"{conductance!r} vs {cut.conductance!r}"
            )


@dataclass(frozen=True)
class SubtreeTask:
    """One sibling subtree of the recursion: a component to decompose.

    ``subset`` is the component's vertex-label set, ``depth`` its recursion
    depth, and ``hint`` an optional precomputed
    :class:`~repro.graphs.spectral.SpectralCertificate` of its induced
    graph (the driver batches sibling solves).  ``connected`` is set for a
    piece its parent split off along connected components, so the subtree
    skips scanning it again.  Together with the run-wide
    :class:`SubtreeSpec` these name the subtree completely — which is why
    any engine can run it anywhere and produce the same outcome.
    """

    subset: frozenset
    depth: int
    hint: Optional[object] = None
    connected: bool = False


@dataclass(frozen=True)
class SubtreeSpec:
    """The run-wide parameters a pool worker needs to decompose a subtree.

    ``base`` is the host CSR snapshot every subtree's peeled views restrict
    (published into shared memory at dispatch time); the rest mirrors the
    driver's own recursion context, with ``cut_kwargs`` already scrubbed of
    the driver's executor (worker-side batches run sequentially — workers
    never nest pools).  A dispatch without a spec runs every sibling
    inline.

    ``deadline`` is the driver-side :class:`~repro.resilience.deadline
    .Deadline` (never shipped to workers — it bounds how long the *driver*
    waits on pool results; workers hit by a cancel are killed and their
    subtrees re-enter the driver, where the expired deadline turns them
    into flagged unfinished markers immediately).
    """

    base: object
    phi: float
    mode: object
    schedule: tuple
    max_depth: int
    cut_kwargs: dict
    root: int
    deadline: Optional[object] = None


#: The group callback :meth:`Executor.run_siblings` receives: decompose a
#: list of tasks together in the driver — a generator of request rounds
#: (:mod:`repro.parallel.frontier`) returning one outcome per task, in order.
RunGroup = Callable[[list], Generator]

#: What :meth:`Executor.run_siblings` returns: one outcome per task, in task
#: order, and the positions whose outcome came back from a pool worker
#: (the driver did not watch those subtrees emit, so it accounts their
#: progress itself).
SiblingResult = tuple[list, set]


def _chunk(request: BatchRequest, indices) -> tuple:
    """The :func:`~repro.parallel.worker.run_chunks` chunk of ``request``'s ``indices``."""
    return (request.view, request.params, request.root, request.batch_index, indices)


def inline_batches(requests: list[BatchRequest]) -> list[BatchResult]:
    """Run a round's requests in the driver, whole, small ones fused."""
    return run_chunks([_chunk(r, range(r.num_instances)) for r in requests])


def validate_subtree_outcome(outcome, subset: frozenset, base: CSRGraph) -> None:
    """Re-verify a pool-returned subtree outcome against the host snapshot.

    The component-level certification re-check: the outcome's components
    must exactly partition the subtree's vertex set (every vertex in
    exactly one component), and its cut edges must be exactly the edges of
    ``base`` inside the subset whose endpoints lie in different components,
    each listed once — the recursion removes precisely those edges.  The
    check costs O(Vol(subset)).  A worker returning a corrupted outcome —
    chaos-injected or real — therefore cannot slip a wrong decomposition
    past the driver; the violation raises
    :class:`~repro.resilience.events.ResultValidationError` and the
    subtree is re-run inline, bit-identically.
    """
    try:
        components = outcome.components
        cut_edges = outcome.cut_edges
    except AttributeError as exc:
        raise ResultValidationError(
            f"subtree outcome has no components/cut_edges: {outcome!r}"
        ) from exc
    covered = 0
    seen: set = set()
    for component in components:
        covered += len(component.vertices)
        seen |= component.vertices
    if covered != len(subset) or seen != set(subset):
        raise ResultValidationError(
            f"subtree components cover {covered} vertex slots over "
            f"{len(seen)} distinct vertices; expected an exact partition of "
            f"the {len(subset)}-vertex subtree"
        )
    index = base.index
    rows = np.sort(np.fromiter((index[v] for v in subset), np.int64, len(subset)))
    label = np.empty(len(rows), dtype=np.int64)
    for position, component in enumerate(components):
        label[np.searchsorted(rows, [index[v] for v in component.vertices])] = position
    row_id, flat = base.flat_adjacency(rows)
    at = np.minimum(np.searchsorted(rows, flat), len(rows) - 1)
    crossing = (rows[at] == flat) & (label[at] != label[row_id]) & (rows[row_id] < flat)
    expected = set(zip(rows[row_id[crossing]].tolist(), flat[crossing].tolist()))
    claimed = set()
    for edge in cut_edges:
        try:
            u, v = (index[endpoint] for endpoint in edge)
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultValidationError(
                f"subtree cut edge {edge!r} is not an edge of the host graph"
            ) from exc
        key = (min(u, v), max(u, v))
        if key in claimed:
            raise ResultValidationError(f"subtree cut edge {edge!r} is listed twice")
        claimed.add(key)
    if claimed != expected:
        labels = base.vertices
        invented = sorted(((labels[u], labels[v]) for u, v in claimed - expected), key=repr)
        missing = sorted(((labels[u], labels[v]) for u, v in expected - claimed), key=repr)
        raise ResultValidationError(
            "subtree cut edges disagree with its components: "
            f"invented {invented[:5]}, missing {missing[:5]}"
        )


class Executor:
    """Protocol for running the pipeline's independent tasks.

    Two methods make the surface.  ``run_batches``: given a round of
    :class:`~repro.parallel.frontier.BatchRequest`\\ s — each a working
    :class:`~repro.graphs.peel.PeeledCSR` view, its parameter schedule,
    the batch's stream address ``(root, batch_index)`` and the instance
    count — return one list of ``(instance_index, scale, cut)`` triples
    per request, in request order, each ascending by index; an expired
    ambient deadline raises :class:`~repro.resilience.deadline
    .DeadlineExpired` for the whole round.  ``run_siblings``: given a group
    of sibling :class:`SubtreeTask`\\ s, a group callback (:data:`RunGroup`)
    and the run's :class:`SubtreeSpec` (or ``None``), a generator that
    passes on the request rounds of whatever it runs through the callback
    and returns a :data:`SiblingResult` — one outcome per task, in task
    order, and the positions not run through the callback.
    Implementations must be output-deterministic in those inputs —
    execution order, worker identity, chunking, fusing, and
    inline-vs-shipped placement may never reach a result — and must not
    touch round reports (the driver charges rounds from the scales).

    Executors are context managers; :meth:`close` releases whatever the
    engine holds (pools, shared segments) and is idempotent.
    """

    name = "abstract"

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Run one round of batches; see the class docstring for the contract."""
        raise NotImplementedError

    def run_siblings(
        self,
        tasks: list[SubtreeTask],
        run_group: RunGroup,
        spec: Optional[SubtreeSpec] = None,
    ) -> Generator:
        """Run every sibling subtree; see the class docstring for the contract."""
        raise NotImplementedError

    def close(self) -> None:
        """Release engine resources; idempotent, safe to call twice."""

    def __enter__(self) -> "Executor":
        """Context manager: yields the executor."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context manager: closes the executor."""
        self.close()


class SequentialExecutor(Executor):
    """The in-process oracle: instances and sibling subtrees run inline, in order.

    Every other engine is defined as "produces exactly what this produces";
    the parity suites (``tests/test_parallel.py``,
    ``tests/test_component_parallel.py``) pin that equivalence.
    Stateless — the module-level :data:`SEQUENTIAL` singleton serves every
    caller, including the pool workers themselves (workers never nest
    pools).
    """

    name = "sequential"

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Run every request inline via :func:`inline_batches`."""
        return inline_batches(requests)

    def run_siblings(
        self,
        tasks: list[SubtreeTask],
        run_group: RunGroup,
        spec: Optional[SubtreeSpec] = None,
    ) -> Generator:
        """Run the tasks as one group through ``run_group``, in task order."""
        return (yield from run_group(tasks)), set()


#: The shared stateless sequential engine (the default executor).
SEQUENTIAL = SequentialExecutor()

#: Sharded executors still open, closed as an ``atexit`` backstop so an
#: interrupted run leaks no ``/dev/shm`` segments.  Weak references: the
#: backstop must not keep abandoned executors (and their segments' python
#: handles) alive on its own.
_LIVE_SHARDED: "weakref.WeakSet[ShardedExecutor]" = weakref.WeakSet()


@atexit.register
def _close_live_executors() -> None:
    """Interpreter-exit backstop: unlink every still-open executor's segments."""
    for executor in list(_LIVE_SHARDED):
        executor.close()


#: PID that installed the SIGTERM backstop, or ``None`` when not installed.
#: Forked pool workers inherit the handler *and* this value; the handler
#: compares against ``os.getpid()`` so a worker receiving SIGTERM skips the
#: cleanup (it owns no pool) and simply dies with default semantics.
_SIGTERM_PID: Optional[int] = None


def _sigterm_backstop(signum, frame) -> None:
    """SIGTERM handler: kill live pools, unlink segments, then die normally.

    Runs inside a signal handler, so it must stay lock-free: the signal
    may have landed mid-``pool.submit`` with the pool's (non-reentrant)
    shutdown lock held, and calling ``pool.shutdown`` here would deadlock
    the dying process.  :meth:`ShardedExecutor._signal_teardown` only
    sends worker kills and unlinks segments — no executor locks.
    """
    if os.getpid() == _SIGTERM_PID:
        for executor in list(_LIVE_SHARDED):
            try:
                executor._signal_teardown()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_backstop() -> None:
    """Install the SIGTERM cleanup backstop, once, if nothing else claimed it.

    ``atexit`` covers normal exits and ``KeyboardInterrupt`` (the
    interpreter unwinds), but a SIGTERM's default action skips ``atexit``
    entirely — orphaning pool workers and leaking ``/dev/shm`` segments.
    The backstop terminates live executors and re-raises the default
    SIGTERM.  Deliberately timid: main thread only, only when the current
    disposition is ``SIG_DFL`` (never stomp a user handler), and a no-op
    on platforms without signals.
    """
    global _SIGTERM_PID
    if _SIGTERM_PID is not None:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
            return
        signal.signal(signal.SIGTERM, _sigterm_backstop)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return
    _SIGTERM_PID = os.getpid()


@dataclass(frozen=True)
class _Job:
    """One task to ship: a batch chunk or a subtree.

    ``fn`` is the worker entry point, called as ``fn(meta, *args)`` with
    the meta of ``base``'s published snapshot; ``address`` names the job
    for fault injection (``("chunk", root, batch, first instance)`` or
    ``("subtree", root, depth, first index, size)``); ``validate`` raises
    :class:`~repro.resilience.events.ResultValidationError` on a wrong
    pooled result.  A job the pool does not answer is recomputed in the
    driver, bit-identically, by its submitter.
    """

    fn: Callable
    args: tuple
    address: tuple
    validate: Callable[[object], None]
    base: CSRGraph


def _inline_chunk(graph, params, root, batch_index, indices):
    """A batch chunk recomputed in the driver, under the ambient deadline.

    Checks the deadline first, so a chunk re-run after a deadline cancel
    always ends the batch as an interrupted search.
    """
    check_walk_deadline()
    return run_chunk(graph, params, root, batch_index, indices)


class ShardedExecutor(Executor):
    """Process-pool engine: batches and sibling subtrees fan out over shared memory.

    The pool is created lazily on the first shipped job (constructing an
    executor is free).  Batches on views smaller than
    ``min_shard_vertices``, sibling groups without a spec, siblings
    smaller than ``min_shard_vertices``, and everything after the engine
    has terminally degraded run inline — identical results either way, per
    the stream discipline.  Small batches and small siblings run in the
    driver *while the pool works* — the batches fused into shared lockstep
    calls, the siblings as one group whose searches join the driver's
    rounds — so a split into one big and many tiny components overlaps
    the big subtree with the tiny certifications.  Published segments are
    cached per snapshot object (keyed by identity, holding the base alive
    so the key cannot be recycled) and unlinked on LRU eviction,
    :meth:`close`, context-manager exit, or the ``atexit``/SIGTERM
    backstops.

    Failure policy (the resilience layer, :meth:`_submit` and
    :meth:`_collect`): a submit error, a crashed worker, a per-task
    timeout (``task_timeout`` seconds per outstanding future; hung workers
    are killed), or a result failing re-verification counts as one
    *failure episode* per round of batches or sibling group — recorded as a :class:`~repro.resilience.events.DegradeEvent` on
    :attr:`events`, the failed jobs re-run inline (bit-identically), the
    pool torn down and lazily rebuilt for the next group after
    ``retry_backoff`` seconds (doubling per episode).  After
    ``max_pool_rebuilds`` episodes the engine degrades to inline execution
    permanently with the one classic warning; ``max_pool_rebuilds=0``
    restores the historic first-failure-is-final behaviour.
    """

    name = "sharded"

    def __init__(
        self,
        workers: int,
        min_shard_vertices: int = SHARD_MIN_VERTICES,
        max_pool_rebuilds: int = POOL_REBUILD_LIMIT,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.min_shard_vertices = int(min_shard_vertices)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.task_timeout = task_timeout
        self.retry_backoff = float(retry_backoff)
        #: Structured failure/cancel episodes, in order of occurrence.
        self.events: list[DegradeEvent] = []
        self._pool = None
        self._pool_failures = 0
        #: id(base) -> (base, SharedCSR); the strong base reference pins the
        #: identity key for the handle's lifetime.
        self._published: "OrderedDict[int, tuple[CSRGraph, SharedCSR]]" = OrderedDict()
        self._broken = False
        self._closed = False
        _LIVE_SHARDED.add(self)

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The lazily-(re)created process pool (reused until a failure)."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            _install_sigterm_backstop()
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _publish(self, base: CSRGraph) -> SharedCSR:
        """The shared segment for ``base``, publishing on first sight (LRU)."""
        key = id(base)
        entry = self._published.get(key)
        if entry is not None:
            self._published.move_to_end(key)
            return entry[1]
        handle = SharedCSR.publish(base)
        self._published[key] = (base, handle)
        while len(self._published) > PUBLISH_CACHE_SIZE:
            _, (_, evicted) = self._published.popitem(last=False)
            evicted.unlink()
        return handle

    # ------------------------------------------------------------------
    def _worker_call(self, job: "_Job", meta) -> tuple:
        """``(callable, *args)`` to submit for ``job`` (the chaos executor's seam)."""
        return (job.fn, meta, *job.args)

    def _wait_timeout(self, deadline) -> Optional[float]:
        """``task_timeout`` capped by ``deadline``; ``None`` if neither bounds the wait."""
        timeout = self.task_timeout
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining != math.inf:
                timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    # ------------------------------------------------------------------
    def _teardown_pool(self, kill: bool = False) -> None:
        """Drop the current pool; ``kill`` also terminates its worker processes.

        Killing matters for hung workers: ``shutdown(wait=False)`` leaves a
        running task running, so a timeout recovery must SIGTERM the
        workers or the hang outlives the pool object.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            _kill_workers(pool)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown of a dead pool
            pass

    def _note_failure(self, exc: Exception, scope: str) -> None:
        """Record one failure episode; tear down and maybe terminally degrade.

        The episode is appended to :attr:`events`; the pool is dropped
        (killed for timeouts — a hung worker must not outlive its pool)
        and rebuilt lazily by the next eligible batch.  Exhausting
        ``max_pool_rebuilds`` hands over to :meth:`_degrade`.
        """
        if isinstance(exc, ResultValidationError):
            kind = "corrupt-result"
        elif isinstance(exc, TIMEOUT_ERRORS):
            kind = "timeout"
        else:
            kind = "pool-failure"
        self._pool_failures += 1
        fatal = self._pool_failures > self.max_pool_rebuilds
        self.events.append(
            DegradeEvent(
                kind=kind,
                scope=scope,
                error=f"{type(exc).__name__}: {exc}",
                fatal=fatal,
            )
        )
        self._teardown_pool(kill=kind == "timeout")
        if fatal:
            self._degrade(exc)
        elif self.retry_backoff > 0:
            time.sleep(min(1.0, self.retry_backoff * (2 ** (self._pool_failures - 1))))

    def _degrade(self, exc: Exception) -> None:
        """Terminal degrade: rebuild budget spent; inline forever, warn once."""
        self._broken = True
        self._teardown_pool()
        warnings.warn(
            "sharded executor degraded to sequential execution "
            f"({type(exc).__name__}: {exc}); results are unaffected",
            RuntimeWarning,
            stacklevel=5,
        )

    def _deadline_cancel(self, scope: str) -> None:
        """Stop pool work because a deadline expired — a cancel, not a fault.

        Kills the pool (outstanding subtrees must not keep burning CPU
        past the budget) and records a ``deadline-cancel`` event, but does
        *not* count against the rebuild budget: the engine stays healthy
        for a later run.
        """
        self.events.append(
            DegradeEvent(
                kind="deadline-cancel",
                scope=scope,
                error="deadline expired with pool work outstanding",
                fatal=False,
            )
        )
        self._teardown_pool(kill=True)

    # ------------------------------------------------------------------
    def _submit(self, scope: str, jobs: list[_Job], deadline) -> dict:
        """Ship ``jobs`` to the pool; return ``{position: future}``.

        Publishes each job's base (once per snapshot) and submits every
        job, unless the deadline has already expired.  A submit error is
        the call's one failure episode, and nothing is shipped: the
        caller recomputes every job in the driver.
        """
        if not jobs or (deadline is not None and deadline.expired()):
            return {}
        try:
            pool = self._ensure_pool()
            return {
                i: pool.submit(*self._worker_call(job, self._publish(job.base).meta))
                for i, job in enumerate(jobs)
            }
        except Exception as exc:
            self._note_failure(exc, scope=scope)
            return {}

    def _collect(self, scope: str, jobs: list[_Job], futures: dict, deadline):
        """Yield ``(position, ok, result)`` per shipped job as its result arrives.

        Each wait is bounded by ``task_timeout`` and ``deadline``; every
        pooled result is validated.  The first failure is the call's one
        failure episode (a broken pool fails every outstanding future at
        once, and charging each would spend the whole rebuild budget on
        one event); a wait cut short by an expired deadline instead
        cancels the pool work without charging the budget.  A failed or
        cancelled job yields ``ok`` False, and the caller recomputes it in
        the driver before the next wait.
        """
        failed = cancelled = False
        for i, future in futures.items():
            try:
                result = future.result(timeout=self._wait_timeout(deadline))
                jobs[i].validate(result)
            except Exception as exc:
                expired = deadline is not None and deadline.expired()
                if not cancelled and expired and isinstance(exc, TIMEOUT_ERRORS):
                    # The budget ran out while the pool was working: cancel
                    # the rest (not a fault); the inline re-runs notice the
                    # expired deadline at once.
                    cancelled = True
                    self._deadline_cancel(scope)
                elif not cancelled and not failed:
                    failed = True
                    self._note_failure(exc, scope=scope)
                yield i, False, None
            else:
                yield i, True, result

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Ship the round's large batches as one chunk per worker; fuse the rest.

        A request on a view at or above the size floor, with two or more
        instances, is split into contiguous chunks for the pool; every
        other request runs in the driver while the pool works, all of them
        through one :func:`inline_batches` call, so the small ones share
        lockstep calls.  A failed chunk re-runs only its own instances
        inline: the streams are counter-addressed and an instance's answer
        depends only on its draws, so that is bit-identical to re-running
        the batch.  An ambient deadline bounds the wait for pool results;
        once it has expired, a chunk's inline re-run raises
        :class:`~repro.resilience.deadline.DeadlineExpired` (a cancel, not
        a failure), which interrupts every search of the round.
        """
        ship = (
            []
            if self._broken or self._closed
            else [
                k
                for k, request in enumerate(requests)
                if request.num_instances >= 2
                and request.view.num_vertices >= self.min_shard_vertices
            ]
        )
        jobs, owners = [], []
        for k in ship:
            request = requests[k]
            view = request.view
            for chunk in np.array_split(
                np.arange(request.num_instances),
                min(self.workers, request.num_instances),
            ):
                indices = [int(i) for i in chunk]
                jobs.append(
                    _Job(
                        fn=run_sharded_chunk,
                        args=(
                            view.alive, view.proper_degree, view.loops,
                            view.total_volume, view.num_edges, request.params,
                            request.root, request.batch_index, indices,
                        ),
                        address=("chunk", request.root, request.batch_index, indices[0]),
                        validate=functools.partial(
                            validate_batch_triples, view, request.params,
                            instance_indices=indices,
                        ),
                        base=view.base,
                    )
                )
                owners.append((k, indices))
        deadline = active_deadline()
        futures = self._submit("batch", jobs, deadline)
        shipped = {owners[i][0] for i in futures}
        kept = [k for k in range(len(requests)) if k not in shipped]
        results: list = [[] for _ in requests]
        try:
            for k, triples in zip(kept, inline_batches([requests[k] for k in kept])):
                results[k] = triples
        except DeadlineExpired:
            if futures:
                self._deadline_cancel("batch")
            raise
        chunks: dict = {}
        for i, ok, triples in self._collect("batch", jobs, futures, deadline):
            k, indices = owners[i]
            chunks[i] = triples if ok else _inline_chunk(*_chunk(requests[k], indices))
        for i in sorted(chunks):  # a request's chunks, in instance order
            results[owners[i][0]].extend(chunks[i])
        return results

    def run_siblings(
        self,
        tasks: list[SubtreeTask],
        run_group: RunGroup,
        spec: Optional[SubtreeSpec] = None,
    ) -> Generator:
        """Ship siblings at or above the size floor to the pool; run the rest as a group.

        Every shipped subtree decomposes wholly inside one worker against
        the published host snapshot (:func:`repro.parallel.worker
        .run_subtree`) and is re-verified by
        :func:`validate_subtree_outcome`.  The kept siblings run through
        ``run_group`` together while the pool works; a shipped task whose
        result fails re-runs through ``run_group([task])``.  Without a
        spec, on a degraded engine, or for a lone task, everything runs as
        one group.  The spec's deadline bounds each wait; its expiry
        cancels the remaining pool work, and the re-runs emit their
        flagged unfinished markers at once.
        """
        if spec is None or self._broken or self._closed or len(tasks) < 2:
            return (yield from SEQUENTIAL.run_siblings(tasks, run_group))
        index = spec.base.index
        shipped_spec = replace(spec, base=None, deadline=None)  # both stay driver-side
        jobs, owners = [], []
        for k, task in enumerate(tasks):
            if len(task.subset) < self.min_shard_vertices:
                continue
            subset_indices = sorted(index[v] for v in task.subset)
            jobs.append(
                _Job(
                    fn=run_subtree,
                    args=(
                        subset_indices, task.depth, task.hint, task.connected,
                        shipped_spec,
                    ),
                    address=(
                        "subtree", spec.root, task.depth, subset_indices[0],
                        len(subset_indices),
                    ),
                    validate=functools.partial(
                        validate_subtree_outcome, subset=task.subset, base=spec.base
                    ),
                    base=spec.base,
                )
            )
            owners.append(k)
        futures = self._submit("subtree", jobs, spec.deadline)
        pooled = {owners[i] for i in futures}
        kept = [k for k in range(len(tasks)) if k not in pooled]
        outcomes: list = [None] * len(tasks)
        for k, outcome in zip(kept, (yield from run_group([tasks[k] for k in kept]))):
            outcomes[k] = outcome
        for i, ok, outcome in self._collect("subtree", jobs, futures, spec.deadline):
            k = owners[i]
            if not ok:
                pooled.discard(k)
                (outcome,) = yield from run_group([tasks[k]])
            outcomes[k] = outcome
        return outcomes, pooled

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink every published segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
            self._pool = None
        self._unlink_published()

    def _signal_teardown(self) -> None:
        """Async-signal-tolerant teardown: raw worker kills + unlinks only.

        Called from the SIGTERM backstop.  Never touches pool locks
        (``shutdown`` would deadlock if the signal interrupted a
        ``submit`` holding the shutdown lock); the interpreter is about to
        die, so orderly pool shutdown is moot — what matters is that no
        worker process and no ``/dev/shm`` segment survives us.
        """
        self._closed = True
        self._broken = True
        pool, self._pool = self._pool, None
        if pool is not None:
            _kill_workers(pool)
        self._unlink_published()

    def _unlink_published(self) -> None:
        """Unlink every published segment and leave the live set."""
        while self._published:
            _, (_, handle) = self._published.popitem(last=False)
            try:
                handle.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        _LIVE_SHARDED.discard(self)


def _kill_workers(pool) -> None:
    """SIGTERM every worker process of ``pool`` (lock-free, best effort)."""
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - racing a dying pool
            pass


_FALLBACK_WARNED = False


def resolve_executor(
    executor: Optional[Executor] = None,
    workers: Optional[int] = None,
) -> tuple[Executor, bool]:
    """Turn the user-facing ``executor=``/``workers=`` pair into an engine.

    Returns ``(executor, owned)``: ``owned`` tells the caller whether it
    created the engine and must :meth:`~Executor.close` it when done (a
    caller-supplied executor is never closed by the callee — its owner may
    be amortising one pool over many calls).

    Degradation, per the satellite contract, never crashes: ``workers``
    ≤ 1 (or unset) is simply the sequential engine, and ``workers`` > 1
    without working shared memory warns once per process and falls back to
    sequential.  Passing *both* an explicit ``executor`` and ``workers`` is
    a contradiction — the executor was built with its own worker count —
    and raises :class:`ValueError` rather than silently ignoring one side.
    """
    global _FALLBACK_WARNED
    if executor is not None:
        if workers is not None:
            raise ValueError(
                "pass either executor= or workers=, not both: an explicit "
                "executor already fixes its worker count, so a workers= "
                "override would be silently ignored"
            )
        return executor, False
    if workers is None or workers <= 1:
        return SEQUENTIAL, False
    if not shared_memory_available():
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                "multiprocessing.shared_memory is unavailable; "
                f"workers={workers} falls back to sequential execution",
                RuntimeWarning,
                stacklevel=2,
            )
        return SEQUENTIAL, False
    return ShardedExecutor(workers), True
