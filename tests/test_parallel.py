"""Parity suite for the shared-memory execution backends (``repro.parallel``).

The contract under test is the whole point of the executor seam: the
sequential engine, the 1-worker engine, and the N-worker sharded engine
must be *cut-identical* — same cuts, same components, same round
accounting, same residual RNG state — because every instance's randomness
is addressed by a counter-derived stream, never by who ran it.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    planted_partition_graph,
    ring_of_cliques,
    union_of_graphs,
)
from repro.graphs.peel import PeeledCSR, maybe_compact
from repro.nibble import NibbleParameters
from repro.nibble.lockstep import batch_cells
from repro.parallel import (
    SEQUENTIAL,
    BatchRequest,
    SequentialExecutor,
    ShardedExecutor,
    SharedCSR,
    resolve_executor,
    sequential_batch,
    shared_memory_available,
)
from repro.parallel import executor as executor_module
from repro.utils.rng import ensure_rng, stream_root, task_stream

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def draws(stream, k=8):
    return stream.integers(0, 2**63, size=k).tolist()


class TestTaskStreams:
    def test_same_address_same_stream(self):
        assert draws(task_stream(123, 4, 7)) == draws(task_stream(123, 4, 7))

    def test_distinct_addresses_distinct_streams(self):
        seen = {
            tuple(draws(task_stream(99, b, i))) for b in range(4) for i in range(4)
        }
        assert len(seen) == 16

    def test_streams_independent_of_creation_order(self):
        # Opening instance 3's stream before instance 1's (a scheduling
        # artifact) cannot change what either draws.
        forward = [draws(task_stream(7, 0, i)) for i in range(4)]
        backward = [draws(task_stream(7, 0, i)) for i in reversed(range(4))]
        assert forward == list(reversed(backward))

    def test_sequential_batch_addresses_by_counter(self):
        # The batch body must key each instance by (root, batch, index) —
        # recorded via the injectable task_streams hook.
        recorded = []

        def recording(root, batch_index, instance_index):
            recorded.append((root, batch_index, instance_index))
            return task_stream(root, batch_index, instance_index)

        graph = PeeledCSR.from_graph(barbell_expanders(16, degree=6, seed=2))
        params = NibbleParameters.practical(graph, 0.1)
        sequential_batch(graph, params, 42, 3, 5, task_streams=recording)
        assert recorded == [(42, 3, i) for i in range(5)]

    def test_stream_root_is_one_draw(self):
        # stream_root consumes the shared generator exactly once, so two
        # generators with the same seed agree on the root and on the next
        # draw after it.
        a, b = ensure_rng(11), ensure_rng(11)
        assert stream_root(a) == stream_root(b)
        assert a.integers(0, 2**63) == b.integers(0, 2**63)


@needs_shm
class TestSharedCSR:
    def test_publish_attach_roundtrip(self):
        base = CSRGraph.from_graph(planted_partition_graph(3, 8, 0.9, 0.05, seed=4))
        with SharedCSR.publish(base) as owner:
            attached = SharedCSR.attach(owner.meta)
            view = attached.graph
            assert np.array_equal(view.indptr, base.indptr)
            assert np.array_equal(view.indices, base.indices)
            assert np.array_equal(view.loops, base.loops)
            assert list(view.vertices) == list(base.vertices)
            del view
            attached.close()

    def test_attacher_cannot_unlink(self):
        base = CSRGraph.from_graph(barbell_expanders(8, degree=4, seed=1))
        with SharedCSR.publish(base) as owner:
            attached = SharedCSR.attach(owner.meta)
            with pytest.raises(RuntimeError):
                attached.unlink()
            attached.close()

    def test_unlink_removes_segment(self):
        from multiprocessing import shared_memory

        base = CSRGraph.from_graph(barbell_expanders(8, degree=4, seed=1))
        handle = SharedCSR.publish(base)
        name = handle.meta.name
        handle.unlink()
        handle.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def batch_outputs(engine, graph, params, root):
    (triples,) = engine.run_batches([BatchRequest(graph, params, root, 0, 8)])
    return triples


@needs_shm
class TestExecutorParity:
    def setup_method(self):
        self.graph = PeeledCSR.from_graph(barbell_expanders(32, degree=8, seed=3))
        self.params = NibbleParameters.practical(
            barbell_expanders(32, degree=8, seed=3), 0.1
        )
        self.root = stream_root(ensure_rng(17))

    def test_sharded_matches_sequential(self):
        expected = batch_outputs(SEQUENTIAL, self.graph, self.params, self.root)
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            assert batch_outputs(engine, self.graph, self.params, self.root) == expected

    def test_chunking_invariant(self):
        # 2-way and 4-way contiguous chunkings of the same batch agree:
        # instance i's stream is addressed by i, not by its chunk.
        with ShardedExecutor(2, min_shard_vertices=1) as two:
            with ShardedExecutor(4, min_shard_vertices=1) as four:
                assert batch_outputs(
                    two, self.graph, self.params, self.root
                ) == batch_outputs(four, self.graph, self.params, self.root)

    def test_small_views_run_inline(self):
        # Below the shard floor no pool is ever created — and the results
        # still match the oracle.
        with ShardedExecutor(2) as engine:  # default floor: SHARD_MIN_VERTICES
            got = batch_outputs(engine, self.graph, self.params, self.root)
            assert engine._pool is None
        assert got == batch_outputs(SEQUENTIAL, self.graph, self.params, self.root)

    def test_degraded_pool_is_transparent(self):
        # max_pool_rebuilds=0 pins the historic first-failure-final policy;
        # the default retrying policy is covered by tests/test_resilience.py.
        expected = batch_outputs(SEQUENTIAL, self.graph, self.params, self.root)
        with ShardedExecutor(2, min_shard_vertices=1, max_pool_rebuilds=0) as engine:

            def boom():
                raise OSError("no processes for you")

            engine._ensure_pool = boom
            with pytest.warns(RuntimeWarning, match="degraded to sequential"):
                first = batch_outputs(engine, self.graph, self.params, self.root)
            # Degradation is permanent and silent afterwards: same outputs.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                second = batch_outputs(engine, self.graph, self.params, self.root)
        assert first == expected
        assert second == expected

    def test_request_split_across_slices_keeps_instance_order(self):
        # Twelve equal-cost items cut in two: the cut falls inside the
        # second request, whose first instances ship with the first
        # request and the rest as the second slice.
        requests = [
            BatchRequest(self.graph, self.params, self.root, 0, 4),
            BatchRequest(self.graph, self.params, self.root, 1, 8),
        ]
        assert executor_module.round_slices(requests, 2) == [
            [(0, [0, 1, 2, 3]), (1, [0, 1])],
            [(1, [2, 3, 4, 5, 6, 7])],
        ]
        expected = SEQUENTIAL.run_batches(requests)
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            got = engine.run_batches(requests)
            assert engine._pool is not None
            assert engine.events == []
        assert got == expected
        assert [[i for i, _, _ in triples] for triples in got] == [
            list(range(4)),
            list(range(8)),
        ]


class TestRoundSlices:
    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    def test_slices_cover_the_round_contiguously(self, parts):
        # Requests of unequal cost: every item lands in exactly one slice,
        # slices follow request-then-instance order, and their costs stay
        # within one item of an equal share.
        big = PeeledCSR.from_graph(ring_of_cliques(6, 8))
        small = PeeledCSR.from_graph(ring_of_cliques(3, 4))
        params = NibbleParameters.practical(ring_of_cliques(3, 4), 0.1)
        requests = [
            BatchRequest(view, params, 1, batch, count)
            for batch, (view, count) in enumerate([(small, 3), (big, 5), (small, 4)])
        ]
        slices = executor_module.round_slices(requests, parts)
        assert 1 <= len(slices) <= parts
        items = [(k, i) for part in slices for k, indices in part for i in indices]
        assert items == [(k, i) for k, r in enumerate(requests) for i in range(r.num_instances)]
        cost = [
            sum(len(indices) * batch_cells(requests[k].view, 1) for k, indices in part)
            for part in slices
        ]
        total = sum(r.num_instances * batch_cells(r.view, 1) for r in requests)
        widest = max(batch_cells(r.view, 1) for r in requests)
        assert all(abs(c - total / parts) <= widest for c in cost[:-1])


@needs_shm
class TestPublishCache:
    """A round keeps every base it ships on published until its results are in."""

    def test_round_on_more_bases_than_the_cache_holds(self):
        # Twelve compacted views, each on its own base: the round's two
        # slices ship all twelve, more than PUBLISH_CACHE_SIZE.  An
        # eviction while the second slice is submitted would unlink a
        # segment a worker may have yet to attach, and record a pool
        # failure; so every shipped segment must still be published when
        # the driver starts collecting.
        copies = [barbell_expanders(200, degree=8, seed=c) for c in range(12)]
        host = CSRGraph.from_graph(union_of_graphs(copies))
        views = [
            maybe_compact(
                PeeledCSR.for_subset(host, [host.index[(c, v)] for v in copy.vertices()])
            )
            for c, copy in enumerate(copies)
        ]
        assert len({id(view.base) for view in views}) == 12
        params = NibbleParameters.practical(copies[0], 0.1)
        root = stream_root(ensure_rng(5))
        requests = [BatchRequest(view, params, root, c, 6) for c, view in enumerate(views)]
        live = []
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            collect = engine._collect

            def counting_collect(*args):
                live.append(len(engine._published))
                return collect(*args)

            engine._collect = counting_collect
            got = engine.run_batches(requests)
            assert engine.events == []
        assert live == [12]
        assert got == executor_module.inline_batches(requests)


class TestResolveExecutor:
    def test_default_is_sequential(self):
        for kwargs in ({}, {"workers": None}, {"workers": 0}, {"workers": 1}):
            engine, owned = resolve_executor(**kwargs)
            assert engine is SEQUENTIAL and not owned

    def test_explicit_executor_is_not_owned(self):
        mine = SequentialExecutor()
        engine, owned = resolve_executor(executor=mine)
        assert engine is mine and not owned

    def test_executor_and_workers_together_raise(self):
        """The bugfix contract: an explicit executor fixes its own worker
        count, so a simultaneous workers= override is a contradiction that
        must raise instead of being silently ignored."""
        mine = SequentialExecutor()
        for workers in (0, 1, 8):
            with pytest.raises(ValueError, match="not both"):
                resolve_executor(executor=mine, workers=workers)

    @needs_shm
    def test_workers_make_an_owned_sharded_engine(self):
        engine, owned = resolve_executor(workers=2)
        try:
            assert isinstance(engine, ShardedExecutor) and owned
            assert engine.workers == 2
        finally:
            engine.close()

    def test_missing_shared_memory_warns_once_and_degrades(self, monkeypatch):
        monkeypatch.setattr(executor_module, "shared_memory_available", lambda: False)
        monkeypatch.setattr(executor_module, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falls back to sequential"):
            engine, owned = resolve_executor(workers=4)
        assert engine is SEQUENTIAL and not owned
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second resolve must stay quiet
            engine, owned = resolve_executor(workers=4)
        assert engine is SEQUENTIAL and not owned

    def test_sharded_executor_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ShardedExecutor(0)


def cut_signature(result):
    return (
        result.cut,
        result.conductance,
        result.balance,
        result.cut_size,
        result.certified_no_cut,
        result.batches,
        result.report.total_rounds,
    )


def decomposition_signature(result):
    return (
        sorted((sorted(c.vertices) for c in result.components), key=len, reverse=True),
        Counter(frozenset(e) for e in result.cut_edges),
        result.report.total_rounds,
    )


@needs_shm
class TestCutIdentity:
    @pytest.mark.parametrize(
        "family",
        [
            lambda: barbell_expanders(32, degree=8, seed=3),
            lambda: ring_of_cliques(6, 8),
            lambda: planted_partition_graph(4, 12, 0.9, 0.05, seed=6),
        ],
        ids=["barbell", "ring_of_cliques", "planted_partition"],
    )
    def test_workers_do_not_change_the_cut(self, family):
        graph = family()
        expected = cut_signature(nearly_most_balanced_sparse_cut(graph, 0.1, seed=5))
        for workers in (1, 2, 4):
            got = nearly_most_balanced_sparse_cut(graph, 0.1, seed=5, workers=workers)
            assert cut_signature(got) == expected, f"workers={workers} diverged"

    @pytest.mark.parametrize("which", ["lockstep", "workspace", "auto"])
    def test_sharded_engine_matches_sequential_per_walk_engine(self, kernel, which):
        graph = barbell_expanders(32, degree=8, seed=3)
        with kernel(which):
            expected = cut_signature(
                nearly_most_balanced_sparse_cut(graph, 0.1, seed=5)
            )
            with ShardedExecutor(2, min_shard_vertices=1) as pool:
                got = nearly_most_balanced_sparse_cut(
                    graph, 0.1, seed=5, executor=pool
                )
        assert cut_signature(got) == expected

    def test_shared_stream_consumption_is_engine_independent(self):
        # The driver draws exactly one root from the caller's generator no
        # matter which engine runs the batches, so the generator's state
        # after the call — the stream deeper recursion levels see — is
        # identical across engines.
        graph = barbell_expanders(32, degree=8, seed=3)
        followups = []
        for workers in (None, 2):
            rng = ensure_rng(23)
            nearly_most_balanced_sparse_cut(graph, 0.1, seed=rng, workers=workers)
            followups.append(draws(rng))
        assert followups[0] == followups[1]

    def test_expander_decomposition_identical_at_two_workers(self):
        graph = ring_of_cliques(8, 8)
        expected = decomposition_signature(
            expander_decomposition(graph, epsilon=0.3, phi=0.1, seed=7)
        )
        got = expander_decomposition(graph, epsilon=0.3, phi=0.1, seed=7, workers=2)
        assert decomposition_signature(got) == expected
