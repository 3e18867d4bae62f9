"""The execution-backend seam: where a round of ParallelNibble batches runs.

The pipeline's independent tasks are its ParallelNibble batches, and the
:class:`Executor` protocol is their one seam.  :meth:`Executor.run_batches`
runs one round — every :class:`~repro.parallel.frontier.BatchRequest`
that the live searches of a decomposition made at once — and returns
each request's ordered ``(instance_index, scale, cut)`` triples
(executors never touch :class:`~repro.utils.rounds.RoundReport`; the
driver rebuilds exact round accounting from the scales).
:class:`SequentialExecutor` is the bit-identity oracle: the round runs
inline, its small batches fused into shared lockstep calls
(:func:`~repro.parallel.worker.run_chunks`).  :class:`ShardedExecutor`
cuts a round's ``(request, instance)`` items into contiguous *slices* of
about equal cost (:func:`round_slices`) and ships each slice to a
``ProcessPoolExecutor`` as one job.  A slice's views travel as masks
over a base published once into shared memory
(:class:`~repro.parallel.shared.SharedCSR`).

Cut-identity across engines falls out of the stream discipline
(:mod:`repro.utils.rng`): instance ``i`` of batch ``b`` draws from a
stream keyed by ``(root, b, i)`` on every engine, so which worker runs
an instance — or whether a pool exists at all, or which other batches
share its slice or its lockstep call — cannot reach the outputs.  That
same property is the foundation of the resilience layer
(:mod:`repro.resilience`): a crashed, hung, or lying worker's slice is
simply re-run inline on the same addressed streams — bit-identically —
while the pool is torn down and rebuilt for the next round.  Failures
are recorded as structured :class:`~repro.resilience.events.DegradeEvent`\\ s
on the executor; only when the bounded rebuild budget
(``max_pool_rebuilds``) is exhausted does the engine degrade to inline
execution permanently, with the one classic warning.  Every pooled
result is re-verified in the driver (:func:`validate_batch_triples`), so
a corrupted result is caught and recomputed, never silently propagated.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from concurrent.futures import TimeoutError as _FuturesTimeout

from ..graphs.csr import CSRGraph
from ..nibble.lockstep import batch_cells
from ..nibble.nibble import NibbleCut
from ..nibble.parameters import NibbleParameters
from ..resilience.deadline import active_deadline, check_walk_deadline
from ..resilience.events import DegradeEvent, ResultValidationError
from .shared import SharedCSR, shared_memory_available
from .frontier import BatchRequest
from .worker import run_chunk, run_chunks, run_sharded_chunk

#: A batch result: ``(instance_index, scale-or-None, cut-or-None)`` triples,
#: ascending by instance index.
BatchResult = list[tuple[int, Optional[int], Optional[NibbleCut]]]

#: A round whose instances see fewer alive vertices than this in total
#: (each instance counts its view's vertices) runs inline on a sharded
#: engine: its walks are cheaper than shipping them.  EXPERIMENTS.md ("One
#: pool unit") has the measurement behind the value.
SHARD_MIN_VERTICES = 1024

#: How many published snapshots a sharded executor keeps live between
#: rounds.  Compaction mints a new base per halving, so a recursion branch
#: touches O(log n) bases over its lifetime but only the latest few
#: concurrently.  A round keeps every base it ships on published until its
#: last result is in, however many that is.
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


def _chunk(request: BatchRequest, indices) -> tuple:
    """The :func:`~repro.parallel.worker.run_chunks` chunk of ``request``'s ``indices``."""
    return (request.view, request.params, request.root, request.batch_index, indices)


def inline_batches(requests: list[BatchRequest]) -> list[BatchResult]:
    """Run a round's requests in the driver, whole, small ones fused."""
    return run_chunks([_chunk(r, range(r.num_instances)) for r in requests])


def round_slices(requests: list[BatchRequest], parts: int) -> list[list]:
    """Cut a round into at most ``parts`` contiguous slices of about equal cost.

    The round's ``(request, instance)`` items, in request-then-instance
    order, each cost their view's :func:`~repro.nibble.lockstep
    .batch_cells` for one row; an item joins the slice its cost prefix
    starts in.  A slice is a list of ``(request position, instance
    indices)`` chunks, so a request may be split across two slices, each
    holding a contiguous run of its instances.
    """
    counts = [request.num_instances for request in requests]
    cost = np.repeat([batch_cells(request.view, 1) for request in requests], counts)
    start = np.cumsum(cost) - cost
    part_of = np.minimum(parts * start // max(int(cost.sum()), 1), parts - 1)
    slices: dict[int, list] = {}
    first = 0
    for k, count in enumerate(counts):
        owned = part_of[first : first + count]
        for part in np.unique(owned):
            slices.setdefault(int(part), []).append(
                (k, np.flatnonzero(owned == part).tolist())
            )
        first += count
    return [slices[part] for part in sorted(slices)]


class Executor:
    """Protocol for running the pipeline's ParallelNibble batches.

    ``run_batches`` is the surface: given a round of
    :class:`~repro.parallel.frontier.BatchRequest`\\ s — each a working
    :class:`~repro.graphs.peel.PeeledCSR` view, its parameter schedule,
    the batch's stream address ``(root, batch_index)`` and the instance
    count — return one list of ``(instance_index, scale, cut)`` triples
    per request, in request order, each ascending by index; an expired
    ambient deadline raises :class:`~repro.resilience.deadline
    .DeadlineExpired` for the whole round.  Implementations must be
    output-deterministic in those inputs — execution order, worker
    identity, slicing, fusing, and inline-vs-shipped placement may never
    reach a result — and must not
    touch round reports (the driver charges rounds from the scales).

    Executors are context managers; :meth:`close` releases whatever the
    engine holds (pools, shared segments) and is idempotent.
    """

    name = "abstract"

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Run one round of batches; see the class docstring for the contract."""
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
    """The in-process oracle: every round runs inline, in order.

    Every other engine is defined as "produces exactly what this produces";
    the parity suites (``tests/test_parallel.py``,
    ``tests/test_component_parallel.py``) pin that equivalence.
    Stateless — the module-level :data:`SEQUENTIAL` singleton serves every
    caller.
    """

    name = "sequential"

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Run every request inline via :func:`inline_batches`."""
        return inline_batches(requests)


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


def _inline_chunk(graph, params, root, batch_index, indices):
    """A batch chunk recomputed in the driver, under the ambient deadline.

    Checks the deadline first, so a chunk re-run after a deadline cancel
    always ends the batch as an interrupted search.
    """
    check_walk_deadline()
    return run_chunk(graph, params, root, batch_index, indices)


class ShardedExecutor(Executor):
    """Process-pool engine: each round is cut into slices that run side by side.

    :meth:`run_batches` cuts a round into at most ``workers`` slices
    (:func:`round_slices`) and ships each slice to the pool as one job.
    A worker runs its slice's chunks through :func:`~repro.parallel.worker
    .run_chunks`, so a slice's small batches share lockstep calls there
    as they would inline.  A round whose instances see fewer than
    ``min_shard_vertices`` alive vertices in total, and every round after
    the engine has terminally degraded, runs inline — identical results
    either way, per the stream discipline.  The pool is created lazily on
    the first shipped slice (constructing an executor is free).

    Transport: a view ships as its masks over its base's shared segment,
    published once per base.  Published segments are cached per snapshot
    object (keyed by identity, holding the base alive so the key cannot be
    recycled), stay published while a round that ships on them is
    outstanding, and are unlinked on LRU eviction after the round,
    :meth:`close`, context-manager exit, or the ``atexit``/SIGTERM
    backstops.

    Failure policy (the resilience layer, :meth:`_submit` and
    :meth:`_collect`): a submit error, a crashed worker, a per-task
    timeout (``task_timeout`` seconds per outstanding future; hung workers
    are killed), or a result failing re-verification counts as one
    *failure episode* per round — recorded as a
    :class:`~repro.resilience.events.DegradeEvent` on :attr:`events`, the
    failed slices re-run inline (bit-identically), the pool torn down and
    lazily rebuilt for the next round after ``retry_backoff`` seconds
    (doubling per episode).  After ``max_pool_rebuilds`` episodes the
    engine degrades to inline execution permanently with the one classic
    warning; ``max_pool_rebuilds=0`` restores the historic
    first-failure-is-final behaviour.
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
        """The shared segment for ``base``, publishing on first sight.

        Never evicts: a round may ship on more bases than the cache holds,
        and a segment unlinked before a worker attaches it fails that
        worker's slice.  :meth:`_evict` trims the cache once the round's
        results are in.
        """
        key = id(base)
        entry = self._published.get(key)
        if entry is not None:
            self._published.move_to_end(key)
            return entry[1]
        handle = SharedCSR.publish(base)
        self._published[key] = (base, handle)
        return handle

    def _evict(self) -> None:
        """Unlink the least recently used segments beyond :data:`PUBLISH_CACHE_SIZE`."""
        while len(self._published) > PUBLISH_CACHE_SIZE:
            _, (_, evicted) = self._published.popitem(last=False)
            evicted.unlink()

    def _transport(self, request: BatchRequest, indices: list[int]) -> tuple:
        """The worker-side form of ``request``'s chunk of ``indices``.

        The view's masks, with its base's published meta in front, then the
        chunk's stream address; :func:`~repro.parallel.worker
        .run_sharded_chunk` rebuilds the view from it.
        """
        view = request.view
        meta = self._publish(view.base).meta
        return (
            meta, view.alive, view.proper_degree, view.loops, view.total_volume,
            view.num_edges, request.params, request.root, request.batch_index, indices,
        )

    # ------------------------------------------------------------------
    def _worker_call(self, address: tuple, chunks: list) -> tuple:
        """``(callable, *args)`` to submit for one slice (the chaos executor's seam).

        ``address`` — ``("slice", root, batch index, first instance)`` of
        the slice's first item — names the job for fault injection.
        """
        return (run_sharded_chunk, chunks)

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

    def _note_failure(self, exc: Exception) -> None:
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

    def _deadline_cancel(self) -> None:
        """Stop pool work because a deadline expired — a cancel, not a fault.

        Kills the pool (outstanding slices must not keep burning CPU
        past the budget) and records a ``deadline-cancel`` event, but does
        *not* count against the rebuild budget: the engine stays healthy
        for a later run.
        """
        self.events.append(
            DegradeEvent(
                kind="deadline-cancel",
                error="deadline expired with pool work outstanding",
                fatal=False,
            )
        )
        self._teardown_pool(kill=True)

    # ------------------------------------------------------------------
    def _submit(self, requests: list[BatchRequest], slices: list, deadline) -> dict:
        """Ship ``slices`` of the round ``requests`` to the pool; return ``{position: future}``.

        Each slice is one job: its chunks in :meth:`_transport` form, for
        :func:`~repro.parallel.worker.run_sharded_chunk`.  Nothing ships
        once the deadline has expired.  A submit error is the round's one
        failure episode, and nothing is shipped: the caller runs the round
        inline.
        """
        if deadline is not None and deadline.expired():
            return {}
        try:
            pool = self._ensure_pool()
            futures = {}
            for position, part in enumerate(slices):
                k, indices = part[0]
                address = ("slice", requests[k].root, requests[k].batch_index, indices[0])
                chunks = [self._transport(requests[k], indices) for k, indices in part]
                futures[position] = pool.submit(*self._worker_call(address, chunks))
            return futures
        except Exception as exc:
            self._note_failure(exc)
            return {}

    def _collect(self, futures: dict, validate: Callable, deadline):
        """Yield ``(position, ok, result)`` per shipped slice as its result arrives.

        Each wait is bounded by ``task_timeout`` and ``deadline``; every
        pooled result goes through ``validate(position, result)``.  The
        first failure is the round's one failure episode (a broken pool
        fails every outstanding future at once, and charging each would
        spend the whole rebuild budget on one event); a wait cut short by
        an expired deadline instead cancels the pool work without charging
        the budget.  A failed or cancelled slice yields ``ok`` False, and
        the caller recomputes it in the driver before the next wait.
        """
        failed = cancelled = False
        for position, future in futures.items():
            try:
                result = future.result(timeout=self._wait_timeout(deadline))
                validate(position, result)
            except Exception as exc:
                expired = deadline is not None and deadline.expired()
                if not cancelled and expired and isinstance(exc, TIMEOUT_ERRORS):
                    # The budget ran out while the pool was working: cancel
                    # the rest (not a fault); the inline re-runs notice the
                    # expired deadline at once.
                    cancelled = True
                    self._deadline_cancel()
                elif not cancelled and not failed:
                    failed = True
                    self._note_failure(exc)
                yield position, False, None
            else:
                yield position, True, result

    def run_batches(self, requests: list[BatchRequest]) -> list[BatchResult]:
        """Cut the round into slices and ship each one to the pool.

        A round the pool did not take (a submit error, or an expired
        deadline) runs inline instead.  Each shipped slice's triples are
        re-verified chunk by chunk (:func:`validate_batch_triples`); a
        failed slice re-runs its own chunks inline, which is bit-identical
        because the streams are counter-addressed and an instance's answer
        depends only on its draws.  A request split across slices gets its chunks
        back in instance order.  An ambient deadline bounds the wait for
        pool results; once it has expired, a chunk's inline re-run raises
        :class:`~repro.resilience.deadline.DeadlineExpired` (a cancel, not
        a failure), which interrupts every search of the round.
        """
        seen = sum(request.num_instances * request.view.num_vertices for request in requests)
        if self._broken or self._closed or not seen or seen < self.min_shard_vertices:
            return inline_batches(requests)
        slices = round_slices(requests, self.workers)
        answers: list = [None] * len(slices)  # per slice, one triple list per chunk
        deadline = active_deadline()

        def validate(position, result):
            if len(result) != len(slices[position]):
                raise ResultValidationError(
                    f"pooled slice returned {len(result)} chunks; "
                    f"expected {len(slices[position])}"
                )
            for (k, indices), triples in zip(slices[position], result):
                validate_batch_triples(requests[k].view, requests[k].params, triples, indices)

        try:
            futures = self._submit(requests, slices, deadline)
            if not futures:
                return inline_batches(requests)
            for s, ok, result in self._collect(futures, validate, deadline):
                answers[s] = (
                    result
                    if ok
                    else [_inline_chunk(*_chunk(requests[k], ix)) for k, ix in slices[s]]
                )
        finally:
            self._evict()
        results: list = [[] for _ in requests]
        for part, triples in zip(slices, answers):
            for (k, _), chunk_triples in zip(part, triples):
                results[k].extend(chunk_triples)
        return results

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
