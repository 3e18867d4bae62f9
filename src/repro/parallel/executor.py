"""The execution-backend seam: how a ParallelNibble batch actually runs.

Three layers of the pipeline — :func:`repro.decomposition.sparse_cut.
parallel_nibble_cuts`, :func:`~repro.decomposition.sparse_cut.
nearly_most_balanced_sparse_cut`, and :func:`repro.decomposition.expander.
expander_decomposition` — used to hand-roll the same in-loop sequencing of
a batch's RandomNibble instances.  This module replaces that with one
explicit protocol:

* :class:`Executor` — ``run_batch(graph, params, root, batch_index, ...)``
  returns ordered ``(instance_index, scale, cut)`` triples.  Executors
  never touch :class:`~repro.utils.rounds.RoundReport`; the driver rebuilds
  exact round accounting from the returned scales, so reports are
  executor-independent by construction.
* :class:`SequentialExecutor` — the bit-identity oracle: every instance
  runs inline, in index order, on its counter-derived stream.
* :class:`ShardedExecutor` — the multicore engine: the batch's immutable
  CSR snapshot is published once into shared memory
  (:class:`~repro.parallel.shared.SharedCSR`) and the instances fan out
  over a ``ProcessPoolExecutor``, chunked contiguously across workers.

Cut-identity across engines falls out of the stream discipline
(:func:`repro.utils.rng.task_stream`): instance ``i`` of batch ``b`` draws
from a stream keyed by ``(root, b, i)`` on every engine, so which worker
runs it — or whether a pool exists at all — cannot reach the outputs.
That same property is the foundation of the resilience layer
(:mod:`repro.resilience`): a crashed, hung, or lying worker's work is
simply re-run inline on the same addressed streams — bit-identically —
while the pool is torn down and rebuilt for the next batch.  Failures are
recorded as structured :class:`~repro.resilience.events.DegradeEvent`\\ s
on the executor; only when the bounded rebuild budget
(``max_pool_rebuilds``) is exhausted does the engine degrade to inline
execution permanently, with the one classic warning.  Returned results
are re-verified against the working graph (``verify_results``) so a
corrupted result — chaos-injected or real — is caught by recomputing the
certification arithmetic, never silently propagated.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
import warnings
import weakref
from collections import OrderedDict
from typing import Optional

import numpy as np

from concurrent.futures import TimeoutError as _FuturesTimeout

from ..graphs.csr import CSRGraph
from ..graphs.graph import sorted_degree_map
from ..graphs.peel import PeeledCSR
from ..nibble.nibble import NibbleCut
from ..nibble.parameters import NibbleParameters
from ..resilience.deadline import DeadlineExpired, active_deadline
from ..resilience.events import DegradeEvent, ResultValidationError
from .shared import SharedCSR, shared_memory_available
from .worker import run_nibble_instance, run_sharded_chunk

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
    backend: str = "auto",
    csr: Optional[CSRGraph] = None,
    adaptive: bool = True,
    task_streams=None,
) -> BatchResult:
    """Run a whole batch inline, instance by instance, in index order.

    The shared body of :class:`SequentialExecutor` and of every fallback in
    :class:`ShardedExecutor`.  ``task_streams`` defaults to
    :func:`repro.utils.rng.task_stream`; injectable for tests that probe
    the stream keying.

    Duplicate ``(start, scale)`` draws within the batch are answered from a
    per-batch memo (see :func:`repro.parallel.worker.run_nibble_instance`)
    — exact, not approximate, because the batch's graph is invariant and an
    instance is deterministic given its draws.  This is what tames the
    terminal deep-recursion batches on clique chains, where a handful of
    possible starts meets Θ(log m) instances.
    """
    from ..utils.rng import task_stream

    streams = task_streams or task_stream
    degrees: Optional[dict] = None
    if not isinstance(graph, PeeledCSR):
        # Unchanged graph for the whole batch: build the canonical
        # start-sampling map once, not once per instance.
        degrees = sorted_degree_map(graph)
    results: BatchResult = []
    memo: dict = {}
    for i in range(num_instances):
        scale, cut = run_nibble_instance(
            graph,
            params,
            streams(root, batch_index, i),
            backend=backend,
            csr=csr,
            degrees=degrees,
            adaptive=adaptive,
            memo=memo,
        )
        results.append((i, scale, cut))
    return results


def validate_batch_triples(
    graph, params: NibbleParameters, results: BatchResult, num_instances: int
) -> None:
    """Re-verify a pooled batch's triples against the working graph.

    The certification re-check of the resilience contract: every claimed
    cut's volume, boundary size, and conductance are recomputed from the
    cut's own vertices on the driver's working view — the same integer
    sweep statistics and the same float division the worker's scan used,
    so agreement is exact, not approximate — and the index set and
    truncation scales are checked against the batch shape and the
    parameter schedule.  Any disagreement raises
    :class:`~repro.resilience.events.ResultValidationError`, which the
    executor treats like a crashed worker: re-run inline, rebuild the
    pool.  A corrupted result can therefore never reach a caller.
    """
    indices = sorted(index for index, _, _ in results)
    if indices != list(range(num_instances)):
        raise ResultValidationError(
            f"pooled batch returned instance indices {indices}; "
            f"expected exactly 0..{num_instances - 1}"
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


class Executor:
    """Protocol for running one ParallelNibble batch of Nibble instances.

    ``run_batch`` is the whole surface: given the working graph, the
    parameter schedule, the batch's stream address ``(root, batch_index)``
    and the instance count, return the ``(instance_index, scale, cut)``
    triples in ascending index order.  Implementations must be
    output-deterministic in those inputs — scheduling, worker identity, and
    chunking may never reach a result — and must not touch round reports
    (the driver charges rounds from the scales).

    Executors are context managers; :meth:`close` releases whatever the
    engine holds (pools, shared segments) and is idempotent.
    """

    name = "abstract"

    def run_batch(
        self,
        graph,
        params: NibbleParameters,
        root: int,
        batch_index: int,
        num_instances: int,
        backend: str = "auto",
        csr: Optional[CSRGraph] = None,
        adaptive: bool = True,
    ) -> BatchResult:
        """Run the batch; see the class docstring for the contract."""
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
    """The in-process oracle: the batch runs inline in instance order.

    Every other engine is defined as "produces exactly what this produces";
    the parity suite (``tests/test_parallel.py``) pins that equivalence.
    Stateless — the module-level :data:`SEQUENTIAL` singleton serves every
    caller.
    """

    name = "sequential"

    def run_batch(
        self,
        graph,
        params: NibbleParameters,
        root: int,
        batch_index: int,
        num_instances: int,
        backend: str = "auto",
        csr: Optional[CSRGraph] = None,
        adaptive: bool = True,
    ) -> BatchResult:
        """Run every instance inline via :func:`sequential_batch`."""
        return sequential_batch(
            graph, params, root, batch_index, num_instances,
            backend=backend, csr=csr, adaptive=adaptive,
        )


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


class ShardedExecutor(Executor):
    """Process-pool engine: batches fan out over shared-memory snapshots.

    The pool is created lazily on the first sharded batch (constructing an
    executor is free).  Batches on dict graphs, on views smaller than
    ``min_shard_vertices``, or after the engine has terminally degraded
    run inline through :func:`sequential_batch` — identical results either
    way, per the stream discipline.  Published segments are cached per
    snapshot object (keyed by identity, holding the base alive so the key
    cannot be recycled) and unlinked on LRU eviction, :meth:`close`,
    context-manager exit, or the ``atexit``/SIGTERM backstops.

    Failure policy (the resilience layer): a submit error, a crashed
    worker, a per-task timeout (``task_timeout`` seconds per outstanding
    future; hung workers are killed), or a result failing re-verification
    (``verify_results``) counts as one *failure episode* — recorded as a
    :class:`~repro.resilience.events.DegradeEvent` on :attr:`events`, the
    affected work re-run inline (bit-identically), the pool torn down and
    lazily rebuilt for the next batch after ``retry_backoff`` seconds
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
        verify_results: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.min_shard_vertices = int(min_shard_vertices)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.task_timeout = task_timeout
        self.retry_backoff = float(retry_backoff)
        self.verify_results = bool(verify_results)
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
    def _chunk_call(self):
        """The worker entrypoint for batch chunks: ``(callable, prefix-args)``.

        The name is resolved from this module's globals at call time, so
        tests that monkeypatch ``executor.run_sharded_chunk`` keep their
        seam; :class:`~repro.resilience.chaos.ChaosExecutor` overrides the
        hook itself to interpose fault injection.
        """
        return run_sharded_chunk, ()

    def _subtree_call(self):
        """The worker entrypoint for recursion subtrees: ``(callable, prefix-args)``.

        Resolved from the scheduler module's globals at call time (tests
        monkeypatch ``scheduler.run_subtree``); the chaos executor
        overrides the hook to interpose fault injection.
        """
        from . import scheduler as scheduler_module

        return scheduler_module.run_subtree, ()

    def component_scheduler(self):
        """The component-level scheduler this engine implies (pooled)."""
        from .scheduler import PooledComponentScheduler

        return PooledComponentScheduler(self)

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
            try:
                for process in list((getattr(pool, "_processes", None) or {}).values()):
                    process.terminate()
            except Exception:  # pragma: no cover - racing a dying pool
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown of a dead pool
            pass

    def _note_failure(self, exc: Exception, scope: str, kill: bool = False) -> None:
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
        self._teardown_pool(kill=kill or kind == "timeout")
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
            stacklevel=4,
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
    def run_batch(
        self,
        graph,
        params: NibbleParameters,
        root: int,
        batch_index: int,
        num_instances: int,
        backend: str = "auto",
        csr: Optional[CSRGraph] = None,
        adaptive: bool = True,
    ) -> BatchResult:
        """Fan the batch out over the pool; recover inline on any failure.

        Only :class:`PeeledCSR` batches above the size floor are shipped —
        dict-graph batches (small by the backend auto-threshold) and tiny
        views run inline.  A pool-side failure (crash, timeout, or a
        result failing re-verification) is one failure episode: the batch
        re-runs inline — bit-identically, per the counter-keyed streams —
        and the pool is rebuilt for the next batch until the rebuild
        budget is spent.  An ambient deadline bounds the wait for pool
        results; its expiry raises
        :class:`~repro.resilience.deadline.DeadlineExpired` (a cancel, not
        a failure), which the sparse-cut driver converts into an
        interrupted result.
        """
        if (
            self._broken
            or self._closed
            or num_instances < 2
            or not isinstance(graph, PeeledCSR)
            or graph.num_vertices < self.min_shard_vertices
        ):
            return sequential_batch(
                graph, params, root, batch_index, num_instances,
                backend=backend, csr=csr, adaptive=adaptive,
            )
        deadline = active_deadline()
        futures: list = []
        try:
            meta = self._publish(graph.base).meta
            pool = self._ensure_pool()
            chunk_call, chunk_prefix = self._chunk_call()
            chunks = [
                chunk
                for chunk in np.array_split(
                    np.arange(num_instances), min(self.workers, num_instances)
                )
                if chunk.size
            ]
            futures = [
                pool.submit(
                    chunk_call,
                    *chunk_prefix,
                    meta,
                    graph.alive,
                    graph.proper_degree,
                    graph.loops,
                    graph.total_volume,
                    graph.num_edges,
                    params,
                    root,
                    batch_index,
                    [int(i) for i in chunk],
                    adaptive,
                )
                for chunk in chunks
            ]
            results: BatchResult = []
            for future in futures:
                timeout = self.task_timeout
                if deadline is not None:
                    remaining = deadline.remaining()
                    timeout = remaining if timeout is None else min(timeout, remaining)
                results.extend(future.result(timeout=timeout))
            if self.verify_results:
                validate_batch_triples(graph, params, results, num_instances)
        except DeadlineExpired:
            raise
        except Exception as exc:
            if (
                deadline is not None
                and deadline.expired()
                and isinstance(exc, TIMEOUT_ERRORS)
            ):
                self._deadline_cancel("batch")
                raise DeadlineExpired(
                    "deadline expired while waiting on a pooled batch"
                ) from exc
            self._note_failure(
                exc, scope="batch", kill=isinstance(exc, TIMEOUT_ERRORS)
            )
            return sequential_batch(
                graph, params, root, batch_index, num_instances,
                backend=backend, csr=csr, adaptive=adaptive,
            )
        results.sort(key=lambda triple: triple[0])
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
        while self._published:
            _, (_, handle) = self._published.popitem(last=False)
            handle.unlink()
        _LIVE_SHARDED.discard(self)

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
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - racing a dying pool
                    pass
        while self._published:
            _, (_, handle) = self._published.popitem(last=False)
            try:
                handle.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        _LIVE_SHARDED.discard(self)

    def terminate(self) -> None:
        """Interrupt-path close: kill workers now, then unlink; idempotent.

        Unlike :meth:`close` this never waits on outstanding work — it is
        what the SIGTERM backstop and deadline cancellation call, so a
        terminating run leaves no orphaned pool processes and no
        ``/dev/shm`` segments behind.
        """
        self._closed = True
        self._teardown_pool(kill=True)
        while self._published:
            _, (_, handle) = self._published.popitem(last=False)
            try:
                handle.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        _LIVE_SHARDED.discard(self)


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
