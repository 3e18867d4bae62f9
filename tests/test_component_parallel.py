"""Component-level parallelism: identity, fault injection, leak checks.

The contract under test: sibling subtrees of the decomposition recursion
dispatched through :meth:`~repro.parallel.executor.ShardedExecutor
.run_siblings` must be *engine-invisible* — sequential,
1-worker, and N-worker runs produce the same components, cut edges, round
totals, and residual RNG state, because every searched component's
randomness is addressed by ``(root, depth, component_stream_key)`` rather
than by scheduling.  And the engine must *fail soft*: a poisoned worker
function, a pool that breaks mid-run, or a genuinely killed worker process
degrades the run to inline execution with exactly one warning, bit-identical
outputs, and zero leaked ``/dev/shm`` segments.
"""

import gc
import os
import warnings
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.decomposition import expander_decomposition
from repro.decomposition.expander import ExpanderComponent, _SubtreeOutcome
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    disjoint_cliques,
    planted_partition_graph,
    ring_of_cliques,
    union_of_graphs,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR
from repro.parallel import (
    SEQUENTIAL,
    ShardedExecutor,
    SubtreeTask,
    run_rounds,
    shared_memory_available,
    validate_subtree_outcome,
)
from repro.parallel import executor as executor_module
from repro.parallel import worker as worker_module
from repro.resilience import ResultValidationError

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def signature(result):
    """Everything output-relevant about one decomposition."""
    return (
        sorted((sorted(map(repr, c.vertices)) for c in result.components)),
        sorted(
            (tuple(sorted(map(repr, c.vertices))), c.certified, c.conductance_estimate, c.level)
            for c in result.components
        ),
        Counter(frozenset(e) for e in result.cut_edges),
        result.report.total_rounds,
        result.precheck_skips,
    )


def run(graph, seed=7, **kwargs):
    """One decomposition; returns (signature, rng post-state)."""
    rng = np.random.default_rng(seed)
    result = expander_decomposition(graph, 0.2, 0.1, seed=rng, **kwargs)
    return signature(result), rng.bit_generator.state


def shm_entries():
    """Current ``/dev/shm`` entry names (empty set where it does not exist)."""
    path = Path("/dev/shm")
    if not path.is_dir():
        return set()
    return {p.name for p in path.iterdir()}


@pytest.fixture(autouse=True)
def release_in_process_attachments():
    """Drop the snapshots :class:`FakePool` calls attached in this process.

    The double runs worker bodies here, so the worker-side attach cache
    (``worker._ATTACHED``) fills in the test process.  A real worker drops
    its mappings when it exits; do the same after each test, once garbage
    cycles over the attached arrays are collected, so no mapping is left
    for interpreter shutdown to close while its arrays are still alive.
    """
    yield
    gc.collect()
    while worker_module._ATTACHED:
        _, handle = worker_module._ATTACHED.popitem()
        handle.close()


class FakePool:
    """A pool double whose submitted calls run inline in this process.

    Used to inject failures deterministically: the submitted function is
    whatever name the executor resolved at submit time, so a monkeypatched
    ``run_subtree``/``run_sharded_chunk`` raises exactly where a poisoned
    worker would.
    """

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class BrokenPool:
    """A pool double that fails every submission like a dead process pool."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


GRAPHS = [
    ("ring_of_cliques", ring_of_cliques(6, 8)),
    ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
]


class TestRunSiblingsUnits:
    def test_sequential_runs_in_submission_order(self):
        tasks = [SubtreeTask(frozenset([i]), 0) for i in range(5)]
        groups = []

        def record(group):
            groups.append([min(task.subset) for task in group])
            return groups[-1]
            yield  # a group callback is a generator of request rounds

        got = run_rounds(SEQUENTIAL.run_siblings(tasks, record), SEQUENTIAL)
        assert got == ([0, 1, 2, 3, 4], set())
        assert groups == [[0, 1, 2, 3, 4]]  # one group, in submission order

    def test_pooled_without_spec_runs_inline(self):
        # A dict-only run has no CSR base: every sibling runs inline and
        # no pool is ever created.
        engine = ShardedExecutor(2, min_shard_vertices=1)
        try:
            tasks = [SubtreeTask(frozenset([i]), 0) for i in range(3)]

            def minima(group):
                return [min(task.subset) for task in group]
                yield  # a group callback is a generator of request rounds

            got = run_rounds(engine.run_siblings(tasks, minima, spec=None), engine)
            assert got == ([0, 1, 2], set())
            assert engine._pool is None
        finally:
            engine.close()


def two_triangles():
    """Triangles {0,1,2} and {3,4,5} joined by the one edge (2, 3)."""
    graph = Graph()
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        graph.add_edge(u, v)
    return CSRGraph.from_graph(graph)


def outcome_of(cut_edges):
    """A subtree outcome splitting the two triangles apart."""
    return _SubtreeOutcome(
        components=[
            ExpanderComponent(frozenset({0, 1, 2}), True, 1.0, 1),
            ExpanderComponent(frozenset({3, 4, 5}), True, 1.0, 1),
        ],
        cut_edges=list(cut_edges),
    )


class TestSubtreeValidator:
    """The subtree re-check compares cut edges against the host graph."""

    SUBSET = frozenset(range(6))

    def test_true_outcome_passes(self):
        validate_subtree_outcome(outcome_of([(3, 2)]), self.SUBSET, two_triangles())

    @pytest.mark.parametrize(
        "cut_edges,message",
        [
            # (0, 1) lies inside one component and (0, 5) is no edge at all.
            ([(0, 1), (0, 5)], "cut edges disagree"),
            ([], "missing"),  # the true cut edge (2, 3) dropped
            ([(2, 3), (3, 2)], "listed twice"),
        ],
        ids=["invented", "dropped", "duplicate"],
    )
    def test_wrong_cut_edges_rejected(self, cut_edges, message):
        with pytest.raises(ResultValidationError, match=message):
            validate_subtree_outcome(outcome_of(cut_edges), self.SUBSET, two_triangles())


@needs_shm
class TestComponentParallelIdentity:
    @pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_pool_identical_to_sequential(self, name, graph):
        expected = run(graph)
        for workers in (1, 2, 4):
            with ShardedExecutor(workers, min_shard_vertices=1) as engine:
                assert run(graph, executor=engine) == expected, f"workers={workers}"

    def test_leaves_no_shared_memory(self):
        graph = ring_of_cliques(6, 8)
        before = shm_entries()
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            run(graph, executor=engine)
        assert shm_entries() - before == set()


class TestKnownConnectedPieces:
    """A piece its parent split off along connected components is known to
    be connected, so no engine scans it for components again."""

    @staticmethod
    def spy_on_scans(monkeypatch) -> list:
        """Record (alive label set, returned pieces) for every scan."""
        real = PeeledCSR.connected_components
        scans = []

        def spy(view):
            pieces = real(view)
            alive = frozenset(view.vertices[int(i)] for i in view.alive_indices())
            scans.append((alive, pieces))
            return pieces

        monkeypatch.setattr(PeeledCSR, "connected_components", spy)
        return scans

    @pytest.mark.parametrize("engine", ["sequential", pytest.param("pool", marks=needs_shm)])
    @pytest.mark.parametrize(
        "name, graph",
        [
            ("disjoint_cliques", disjoint_cliques(5, 8)),
            # pieces that are then cut, and whose cut sides are scanned
            ("union", union_of_graphs([graph for _, graph in GRAPHS])),
        ],
    )
    def test_split_off_pieces_are_not_scanned_again(self, monkeypatch, engine, name, graph):
        expected = run(graph)
        scans = self.spy_on_scans(monkeypatch)
        if engine == "pool":
            # every piece ships to the in-process pool double, so the
            # flag must survive run_siblings -> run_subtree
            with ShardedExecutor(2, min_shard_vertices=1) as pooled:
                pooled._pool = FakePool()
                got = run(graph, executor=pooled)
        else:
            got = run(graph)
        assert got == expected
        split_off = {
            frozenset(piece) for _, pieces in scans if len(pieces) > 1 for piece in pieces
        }
        assert split_off, name  # the run does split along components
        assert [alive for alive, _ in scans if alive in split_off] == []
        if name == "disjoint_cliques":
            assert len(scans) == 1  # the host; each clique certifies unscanned


class TestFaultInjection:
    """Poisoned workers and broken pools: one warning, identical bits."""

    @needs_shm
    def test_poisoned_run_subtree_degrades_bit_identically(self, monkeypatch):
        graph = ring_of_cliques(6, 8)
        expected = run(graph)

        def poisoned(*args, **kwargs):
            raise RuntimeError("worker poisoned mid-run")

        monkeypatch.setattr(executor_module, "run_subtree", poisoned)
        # max_pool_rebuilds=0 pins the historic first-failure-final policy
        # (the default policy would rebuild a real pool and recover).
        with ShardedExecutor(2, min_shard_vertices=1, max_pool_rebuilds=0) as engine:
            engine._pool = FakePool()  # execute submissions in-process
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run(graph, executor=engine)
            assert engine._broken
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "degraded to sequential" in str(w.message)
        ]
        assert len(degraded) == 1, "degradation must warn exactly once"
        assert got == expected

    @needs_shm
    def test_poisoned_run_sharded_chunk_degrades_bit_identically(self, monkeypatch):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        expected = run(graph)

        def poisoned(*args, **kwargs):
            raise OSError("chunk worker killed")

        monkeypatch.setattr(executor_module, "run_sharded_chunk", poisoned)
        # Keep subtree dispatch off (floor above n) so the *batch* level is
        # the one that trips the poison.  max_pool_rebuilds=0 pins the
        # historic first-failure-final policy.
        with ShardedExecutor(2, min_shard_vertices=10_000, max_pool_rebuilds=0) as engine:
            engine._pool = FakePool()
            engine.min_shard_vertices = 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run(graph, executor=engine)
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "degraded to sequential" in str(w.message)
        ]
        assert len(degraded) == 1
        assert got == expected

    @needs_shm
    def test_simulated_broken_process_pool(self):
        # Every outstanding future fails at once, the way a dead pool fails
        # them: still one warning, every subtree recovered inline.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with ShardedExecutor(4, min_shard_vertices=1, max_pool_rebuilds=0) as engine:
            engine._pool = BrokenPool()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run(graph, executor=engine)
            assert engine._broken
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "degraded to sequential" in str(w.message)
        ]
        assert len(degraded) == 1
        assert got == expected

    @needs_shm
    def test_killed_worker_process_no_shm_leak(self):
        # A genuinely killed worker: os._exit(1) inside the pool breaks it
        # for real.  Under the default retry policy the engine rebuilds the
        # pool, completes WITHOUT degrading (no warning — this is the
        # regression test for the old executor-lifetime degrade), records a
        # structured event, and close() leaves /dev/shm as it found it.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        before = shm_entries()
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            with pytest.raises(BrokenProcessPool):
                engine._ensure_pool().submit(os._exit, 1).result()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a degrade warning would fail
                got = run(graph, executor=engine)
            assert not engine._broken, "one dead worker must not be fatal"
            kinds = {event.kind for event in engine.events}
            assert kinds <= {"pool-failure", "timeout"}
            assert not any(event.fatal for event in engine.events)
        assert got == expected
        assert shm_entries() - before == set(), "leaked shared-memory segments"

    @needs_shm
    def test_degraded_engine_stays_quiet_afterwards(self):
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with ShardedExecutor(2, min_shard_vertices=1, max_pool_rebuilds=0) as engine:
            engine._pool = BrokenPool()
            with pytest.warns(RuntimeWarning, match="degraded to sequential"):
                first = run(graph, executor=engine)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a second warning would fail
                second = run(graph, executor=engine)
        assert first == expected
        assert second == expected
