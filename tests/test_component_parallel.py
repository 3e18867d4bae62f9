"""Whole decompositions on the sharded engine: identity, fault injection, leaks.

The contract under test: the slices of rounds that
:meth:`~repro.parallel.executor.ShardedExecutor.run_batches` spreads over
its pool and the driver must be *engine-invisible* — sequential,
1-worker, and N-worker runs produce the same components, cut edges, round
totals, and residual RNG state, because every searched component's
randomness is addressed by ``(root, depth, component_stream_key)`` and
every instance's by ``(root, batch, instance)`` rather than by
scheduling.  And the engine must *fail soft*: a poisoned worker
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
from repro.graphs.generators import (
    disjoint_cliques,
    planted_partition_graph,
    ring_of_cliques,
    union_of_graphs,
)
from repro.graphs.peel import PeeledCSR
from repro.parallel import SHARD_MIN_VERTICES, ShardedExecutor, shared_memory_available
from repro.parallel import executor as executor_module
from repro.parallel import worker as worker_module

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
    ``run_sharded_chunk`` raises exactly where a poisoned worker would.
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
            assert shm_entries() - before, "the run published no segment"
        assert shm_entries() - before == set()

    def test_deep_rounds_of_small_requests_ship_slices(self):
        # At the default floor, the deep rounds — many requests, each on a
        # view too small to be worth a job of its own — still reach the
        # pool, as slices of the whole round.
        graph = ring_of_cliques(64, 16)
        expected = run(graph)
        shipped = []

        class SpyingExecutor(ShardedExecutor):
            def _submit(self, requests, slices, deadline):
                futures = super()._submit(requests, slices, deadline)
                if futures:
                    shipped.append([request.view.num_vertices for request in requests])
                return futures

        with SpyingExecutor(2) as engine:
            got = run(graph, executor=engine)
            assert engine.events == []
        assert got == expected
        deep = [
            sizes for sizes in shipped if len(sizes) > 1 and max(sizes) < SHARD_MIN_VERTICES
        ]
        assert deep, shipped


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
            # every round's slices ship to the in-process pool double;
            # the pieces' searches stay in the driver either way
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
    def test_poisoned_run_sharded_chunk_degrades_bit_identically(self, monkeypatch):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        expected = run(graph)

        def poisoned(*args, **kwargs):
            raise OSError("chunk worker killed")

        monkeypatch.setattr(executor_module, "run_sharded_chunk", poisoned)
        # max_pool_rebuilds=0 pins the historic first-failure-final policy.
        with ShardedExecutor(2, min_shard_vertices=1, max_pool_rebuilds=0) as engine:
            engine._pool = FakePool()
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
        # them: still one warning, every slice recovered inline.
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
            assert shm_entries() - before, "the run published no segment"
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
