"""Resilience layer: checkpoint/resume, deadlines, retries, and cleanup.

The tentpole contracts under test:

* **Resume bit-identity** — a decomposition killed at any point and
  resumed from its :class:`~repro.resilience.journal.RunJournal` produces
  the same components, same cut edges, and the same RNG post-state as the
  run that was never interrupted, across generator families and engines.
* **Graceful deadlines** — an expired
  :class:`~repro.resilience.deadline.Deadline` stops the run cleanly: the
  certified prefix equals the unbounded run's prefix and everything the
  run did not reach comes back explicitly flagged ``unfinished``.
* **Bounded retries** — a one-shot worker failure (crash or hang) costs
  one structured event and an inline re-run, never the pool's life; only
  an exhausted rebuild budget degrades the engine.
* **Cleanup** — ``KeyboardInterrupt`` and SIGTERM leave no ``/dev/shm``
  segments and no orphaned pool processes behind.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.decomposition import (
    PartialDecomposition,
    expander_decomposition,
)
from repro.decomposition.expander import search_kwargs_key
from repro.decomposition.sparse_cut import nearly_most_balanced_sparse_cut
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    disjoint_cliques,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.nibble.parameters import ParameterMode
from repro.parallel import ShardedExecutor, shared_memory_available
from repro.resilience import (
    Deadline,
    DeadlineExpired,
    RunJournal,
    check_walk_deadline,
    deadline_scope,
    resolve_deadline,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

GRAPHS = [
    ("ring_of_cliques", ring_of_cliques(6, 8)),
    ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
    ("barbell", barbell_expanders(24, degree=6, bridge_edges=2, seed=11)),
]


def signature(result):
    """Everything output-relevant about one decomposition."""
    return (
        sorted(
            (tuple(sorted(map(repr, c.vertices))), c.certified,
             c.conductance_estimate, c.level, c.unfinished)
            for c in result.components
        ),
        sorted(tuple(sorted(map(repr, e))) for e in result.cut_edges),
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


class _Interrupt(KeyboardInterrupt):
    """The simulated kill used by the resume tests."""


def interrupt_after(threshold):
    """An ``on_progress`` callback that kills the run at ``threshold`` components."""

    def callback(done):
        if done >= threshold:
            raise _Interrupt(f"simulated kill after {done} components")

    return callback


class TestDeadlineUnit:
    def test_latch_and_remaining(self):
        ticks = iter(range(100))
        deadline = Deadline(5, clock=lambda: float(next(ticks)))
        assert not deadline.expired()
        assert deadline.remaining() > 0
        while not deadline.expired():
            pass
        # Latched: the clock keeps advancing but expiry never un-happens,
        # and remaining() pins to zero.
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_resolve_deadline_coercion(self):
        assert resolve_deadline(None) is None
        existing = Deadline(10)
        assert resolve_deadline(existing) is existing
        made = resolve_deadline(0.25)
        assert isinstance(made, Deadline) and made.budget == 0.25

    def test_nan_budget_is_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            Deadline(float("nan"))
        with pytest.raises(ValueError, match="nan"):
            expander_decomposition(
                ring_of_cliques(4, 5), 0.2, 0.1, seed=1, deadline=float("nan")
            )

    def test_walk_check_is_ambient(self):
        check_walk_deadline()  # no scope installed: a no-op
        expired = Deadline(0.0, clock=lambda: 1.0)
        assert expired.expired()
        with deadline_scope(expired):
            with pytest.raises(DeadlineExpired):
                check_walk_deadline()
        check_walk_deadline()  # scope popped: a no-op again
        with deadline_scope(None):
            check_walk_deadline()


class TestJournalUnit:
    def test_roundtrip_and_idempotency(self, tmp_path):
        with RunJournal(tmp_path / "j") as journal:
            journal.record((0, 1, 2), {"payload": 1})
            journal.record((0, 1, 2), {"payload": "ignored duplicate"})
            journal.record((1, 9, 3), {"payload": 2})
        with RunJournal(tmp_path / "j") as reloaded:
            assert len(reloaded) == 2
            assert reloaded.get((0, 1, 2)) == {"payload": 1}
            assert (1, 9, 3) in reloaded
            assert reloaded.get((2, 0, 0)) is None

    def test_torn_tail_is_trimmed(self, tmp_path):
        with RunJournal(tmp_path / "j") as journal:
            journal.record((0, 1, 2), "first")
            journal.record((1, 2, 3), "second")
        entries = (tmp_path / "j" / "entries.pkl")
        whole = entries.read_bytes()
        # A kill mid-append leaves a torn final record: replay the stream
        # with the last record cut off mid-byte plus trailing garbage.
        entries.write_bytes(whole[:-7])
        with RunJournal(tmp_path / "j") as reloaded:
            assert len(reloaded) == 1
            assert reloaded.get((0, 1, 2)) == "first"
            # The torn tail was truncated away; appending works again.
            reloaded.record((5, 5, 5), "after the crash")
        with RunJournal(tmp_path / "j") as again:
            assert len(again) == 2

    def test_bind_rejects_different_run(self, tmp_path):
        with RunJournal(tmp_path / "j") as journal:
            journal.bind(root=123, phi=0.1)
        with RunJournal(tmp_path / "j") as reloaded:
            reloaded.bind(root=123, phi=0.1)  # identical: fine
            with pytest.raises(ValueError, match="different run.*root"):
                reloaded.bind(root=456, phi=0.1)

    def test_resume_with_wrong_seed_is_rejected(self, tmp_path):
        graph = ring_of_cliques(4, 6)
        with RunJournal(tmp_path / "j") as journal:
            expander_decomposition(graph, 0.2, 0.1, seed=7, journal=journal)
        with RunJournal(tmp_path / "j") as journal:
            with pytest.raises(ValueError, match="different run"):
                expander_decomposition(graph, 0.2, 0.1, seed=8, journal=journal)

    def test_resume_with_different_search_kwargs_is_rejected(self, tmp_path):
        """A journal pins the search kwargs: same seed, different batch
        size or walk cap is a different run, not a replay."""
        graph = ring_of_cliques(6, 8)
        first = {"num_instances": 6, "params_overrides": {"max_t0": 150}}
        with RunJournal(tmp_path / "j") as journal:
            expander_decomposition(
                graph, 0.1, 0.1, seed=1, sparse_cut_kwargs=first, journal=journal
            )
        with RunJournal(tmp_path / "j") as journal:
            with pytest.raises(ValueError, match="different run.*sparse_cut_kwargs"):
                expander_decomposition(
                    graph,
                    0.1,
                    0.1,
                    seed=1,
                    sparse_cut_kwargs={
                        "num_instances": 1,
                        "params_overrides": {"max_t0": 2},
                    },
                    journal=journal,
                )
            # Key order is not part of the search.
            reordered = {"params_overrides": {"max_t0": 150}, "num_instances": 6}
            expander_decomposition(
                graph, 0.1, 0.1, seed=1, sparse_cut_kwargs=reordered, journal=journal
            )

    def test_unknown_search_kwargs_are_rejected_before_binding(self, tmp_path):
        """Engines are chosen with executor=/workers= only: an engine key,
        or any key a search does not take, in ``sparse_cut_kwargs`` raises
        ValueError naming it before the journal pins the run."""
        graph = ring_of_cliques(4, 6)
        for bad in ({"workers": 2}, {"executor": None}, {"num_instance": 4}):
            (key,) = bad
            with RunJournal(tmp_path / "j") as journal:
                with pytest.raises(ValueError, match=f"'{key}'"):
                    expander_decomposition(
                        graph, 0.2, 0.1, seed=7, sparse_cut_kwargs=bad, journal=journal
                    )
        # Nothing was bound, so the journal takes a run of its own.
        kwargs = {"params_overrides": {"max_t0": 60}, "num_instances": 4}
        with RunJournal(tmp_path / "j") as journal:
            expander_decomposition(
                graph, 0.2, 0.1, seed=7, sparse_cut_kwargs=kwargs, journal=journal
            )
        assert search_kwargs_key(kwargs) == (
            '{"num_instances": 4, "params_overrides": {"max_t0": 60}}'
        )

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            ({"num_instances": 0}, ValueError),
            ({"max_failures": 0}, ValueError),
            ({"balance_target": 0.0}, ValueError),
            ({"params_overrides": {"t0_override": 0}}, ValueError),
            ({"params_overrides": {"max_steps": 60}}, TypeError),
        ],
    )
    def test_bad_search_kwargs_raise_on_a_host_of_small_pieces(self, kwargs, error):
        """disjoint_cliques(50, 4) splits into K₄ pieces whose batched hints
        certify them, so none may ever launch a search batch; a bad tuning
        argument must raise the search's own exception all the same."""
        graph = disjoint_cliques(50, 4)
        with pytest.raises(error):
            expander_decomposition(graph, 0.1, 0.1, seed=3, sparse_cut_kwargs=kwargs)
        # PAPER mode ignores params_overrides, as its search does.
        if "params_overrides" in kwargs:
            result = expander_decomposition(
                graph, 0.1, 0.1, mode=ParameterMode.PAPER, seed=3, sparse_cut_kwargs=kwargs
            )
            assert len(result.components) == 50

    def test_fractional_max_depth_cannot_replay_an_int_journal(self, tmp_path):
        """The journal pins ``int(max_depth)``, so a ``max_depth=1.5`` run
        would replay a depth-1 journal's 2 components where a fresh run
        compares depths against 1.5 and returns 4.  A depth must be an int
        >= 0, and counts must be ints, not bools."""
        graph = ring_of_cliques(6, 8)
        with RunJournal(tmp_path / "j") as journal:
            expander_decomposition(graph, 0.1, 0.1, seed=1, max_depth=1, journal=journal)
        with RunJournal(tmp_path / "j") as journal:
            with pytest.raises(ValueError, match="max_depth"):
                expander_decomposition(
                    graph, 0.1, 0.1, seed=1, max_depth=1.5, journal=journal
                )
        for bad in (1.5, -1, True, "2"):
            with pytest.raises(ValueError, match="max_depth"):
                expander_decomposition(graph, 0.1, 0.1, seed=1, max_depth=bad)
        assert expander_decomposition(
            graph, 0.1, 0.1, seed=1, max_depth=np.int64(1)
        ).num_components == expander_decomposition(
            graph, 0.1, 0.1, seed=1, max_depth=1
        ).num_components
        for counts in ({"num_instances": True}, {"max_failures": True}):
            with pytest.raises(ValueError, match="must be"):
                nearly_most_balanced_sparse_cut(graph, 0.1, seed=1, **counts)
            with pytest.raises(ValueError, match="must be"):
                expander_decomposition(graph, 0.1, 0.1, seed=1, sparse_cut_kwargs=counts)


class TestMmapValidation:
    def snapshot(self, tmp_path):
        graph = ring_of_cliques(3, 5)
        return CSRGraph.from_graph(graph).to_mmap(tmp_path / "snap")

    def test_missing_array(self, tmp_path):
        target = self.snapshot(tmp_path)
        (target / "indices.npy").unlink()
        with pytest.raises(ValueError, match="missing indices.npy"):
            CSRGraph.from_mmap(target)

    def test_truncated_array(self, tmp_path):
        target = self.snapshot(tmp_path)
        blob = (target / "indptr.npy").read_bytes()
        (target / "indptr.npy").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="indptr.npy.*unreadable or truncated"):
            CSRGraph.from_mmap(target)

    def test_dtype_mismatch(self, tmp_path):
        target = self.snapshot(tmp_path)
        bad = np.load(target / "indices.npy").astype(np.float64)
        np.save(target / "indices.npy", bad)
        with pytest.raises(ValueError, match="indices.npy.*has dtype float64"):
            CSRGraph.from_mmap(target)

    def test_mixed_index_dtypes(self, tmp_path):
        target = self.snapshot(tmp_path)
        widened = np.load(target / "indices.npy").astype(np.int64)
        np.save(target / "indices.npy", widened)
        original = np.load(target / "indptr.npy")
        if original.dtype == np.int64:  # force a genuine mismatch
            np.save(target / "indptr.npy", original.astype(np.int32))
        with pytest.raises(ValueError, match="mixes index dtypes"):
            CSRGraph.from_mmap(target)

    def test_inconsistent_shapes(self, tmp_path):
        target = self.snapshot(tmp_path)
        loops = np.load(target / "loops.npy")
        np.save(target / "loops.npy", loops[:-1])
        with pytest.raises(ValueError, match="loops.npy"):
            CSRGraph.from_mmap(target)

    def test_corrupt_labels(self, tmp_path):
        target = self.snapshot(tmp_path)
        (target / "vertices.pkl").write_bytes(b"\x80\x05 not a pickle")
        with pytest.raises(ValueError, match="vertices.pkl"):
            CSRGraph.from_mmap(target)

    def test_repeated_label(self, tmp_path):
        target = self.snapshot(tmp_path)
        labels = pickle.loads((target / "vertices.pkl").read_bytes())
        labels[1] = labels[0]
        (target / "vertices.pkl").write_bytes(pickle.dumps(labels))
        with pytest.raises(ValueError, match="vertices.pkl.*damaged"):
            CSRGraph.from_mmap(target)

    @pytest.mark.parametrize("damage", ["offset", "decreasing"])
    def test_indptr_must_start_at_zero_and_never_decrease(self, tmp_path, damage):
        target = self.snapshot(tmp_path)
        indptr = np.load(target / "indptr.npy")
        if damage == "offset":
            indptr[0] = 1
        else:
            indptr[3], indptr[4] = indptr[4], indptr[3]
        np.save(target / "indptr.npy", indptr)
        with pytest.raises(ValueError, match="indptr.npy.*start at 0"):
            CSRGraph.from_mmap(target)

    def test_intact_snapshot_still_loads(self, tmp_path):
        target = self.snapshot(tmp_path)
        reopened = CSRGraph.from_mmap(target)
        assert reopened.num_vertices == 15


class TestResumeBitIdentity:
    """Kill anywhere, resume, and nothing can tell: the tentpole assertion."""

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("threshold", [1, 2])
    def test_sequential_kill_and_resume(self, tmp_path, name, graph, threshold):
        expected = run(graph)
        with RunJournal(tmp_path / "j") as journal:
            with pytest.raises(_Interrupt):
                run(graph, journal=journal, on_progress=interrupt_after(threshold))
        with RunJournal(tmp_path / "j") as journal:
            resumed = run(graph, journal=journal)
        # Same cuts, same certificates, same rounds, same RNG post-state.
        assert resumed == expected

    @needs_shm
    @pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
    def test_pooled_kill_and_resume(self, tmp_path, name, graph):
        expected = run(graph)
        with ShardedExecutor(4, min_shard_vertices=1) as engine:
            with RunJournal(tmp_path / "j") as journal:
                with pytest.raises(_Interrupt):
                    run(
                        graph,
                        executor=engine,
                        journal=journal,
                        on_progress=interrupt_after(1),
                    )
        # Resume on a *different* engine shape: the journal key is
        # content-addressed, so a pooled journal replays into a 4-worker
        # resume and both match the sequential oracle.
        with ShardedExecutor(4, min_shard_vertices=1) as engine:
            with RunJournal(tmp_path / "j") as journal:
                resumed = run(graph, executor=engine, journal=journal)
        assert resumed == expected

    def test_completed_journal_replays_entirely(self, tmp_path):
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with RunJournal(tmp_path / "j") as journal:
            first = run(graph, journal=journal)
        recorded = len(journal)
        assert recorded > 0
        with RunJournal(tmp_path / "j") as journal:
            replayed = run(graph, journal=journal)
            # A full replay records nothing new.
            assert len(journal) == recorded
        assert first == expected
        assert replayed == expected

    @pytest.mark.parametrize("form", ["dict", "csr"])
    def test_empty_host_replays_empty_with_a_journal(self, tmp_path, form):
        host = Graph() if form == "dict" else CSRGraph.from_graph(Graph())
        expected = run(host)
        assert expected[0][0] == []  # no components
        # The first run binds the journal; the second resumes from it.
        for _ in range(2):
            with RunJournal(tmp_path / "j") as journal:
                assert run(host, journal=journal) == expected
                assert len(journal) == 0

    def test_resume_survives_torn_tail(self, tmp_path):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        expected = run(graph)
        with RunJournal(tmp_path / "j") as journal:
            with pytest.raises(_Interrupt):
                run(graph, journal=journal, on_progress=interrupt_after(2))
        entries = tmp_path / "j" / "entries.pkl"
        if entries.exists() and entries.stat().st_size > 4:
            entries.write_bytes(entries.read_bytes()[:-3])  # tear the tail
        with RunJournal(tmp_path / "j") as journal:
            resumed = run(graph, journal=journal)
        assert resumed == expected


class TestDeadlineDecomposition:
    """Expiry yields a flagged partial whose prefix matches the full run."""

    def counting_deadline(self, budget):
        counter = {"n": 0}

        def clock():
            counter["n"] += 1
            return float(counter["n"])

        return Deadline(budget, clock=clock)

    def test_zero_budget_returns_fully_flagged_partial(self):
        graph = ring_of_cliques(5, 8)
        result = expander_decomposition(
            graph, 0.2, 0.1, seed=7, deadline=self.counting_deadline(0)
        )
        assert isinstance(result, PartialDecomposition)
        assert result.partial
        assert result.finished_components == []
        assert len(result.unfinished_components) == 1
        marker = result.unfinished_components[0]
        assert marker.vertices == frozenset(graph.vertices())
        assert not marker.certified

    def test_certified_prefix_equals_unbounded_prefix(self):
        graph = ring_of_cliques(6, 8)
        rng = np.random.default_rng(7)
        unbounded = expander_decomposition(graph, 0.2, 0.1, seed=rng)
        assert not unbounded.partial

        saw_partial = False
        for budget in (10, 100, 1_000, 10_000, 100_000):
            bounded = expander_decomposition(
                graph, 0.2, 0.1, seed=7, deadline=self.counting_deadline(budget)
            )
            finished = [c for c in bounded.components if not c.unfinished]
            # Sequential emission order makes the finished components a
            # literal prefix of the unbounded run's component list.
            assert [
                (c.vertices, c.certified, c.conductance_estimate, c.level)
                for c in finished
            ] == [
                (c.vertices, c.certified, c.conductance_estimate, c.level)
                for c in unbounded.components[: len(finished)]
            ]
            # Partition safety: flagged or not, every vertex is accounted for.
            covered = [v for c in bounded.components for v in c.vertices]
            assert sorted(map(repr, covered)) == sorted(
                map(repr, graph.vertices())
            )
            if bounded.partial:
                saw_partial = True
                assert isinstance(bounded, PartialDecomposition)
                assert bounded.unfinished_components
            else:
                # Generous budgets finish: identical to the unbounded run.
                assert signature(bounded) == signature(unbounded)
        assert saw_partial, "no budget produced a partial run; tighten budgets"

    def test_expiry_never_raises_and_rng_post_state_matches(self):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        rng = np.random.default_rng(7)
        expander_decomposition(
            graph, 0.2, 0.1, seed=rng, deadline=self.counting_deadline(25)
        )
        # The run draws exactly one stream root before any deadline check,
        # so even a heavily-truncated run leaves the caller's generator
        # exactly where an unbounded run would.
        rng2 = np.random.default_rng(7)
        expander_decomposition(graph, 0.2, 0.1, seed=rng2)
        assert rng.bit_generator.state == rng2.bit_generator.state

    def test_sparse_cut_interrupted_result_is_not_a_certificate(self):
        graph = ring_of_cliques(4, 8)
        result = nearly_most_balanced_sparse_cut(
            graph, 0.1, seed=3, deadline=self.counting_deadline(0)
        )
        assert result.interrupted
        assert not result.certified_no_cut
        assert result.cut == frozenset()

    def test_walk_deadline_interrupts_mid_search(self):
        # Expire *during* the walks (not at a batch boundary): a budget a
        # little past the loop entry lands inside scan_walk_sequence, whose
        # per-step check must unwind via DeadlineExpired, not an error.
        graph = planted_partition_graph(3, 10, 0.7, 0.05, seed=3)
        for budget in (5, 17, 61):
            result = nearly_most_balanced_sparse_cut(
                graph, 0.1, seed=3, deadline=self.counting_deadline(budget)
            )
            if result.interrupted:
                assert not result.certified_no_cut
                return
        pytest.skip("budgets all cleared the search; nothing to interrupt")


class HangingPool:
    """A pool double whose futures never complete (a hung worker)."""

    def submit(self, fn, *args, **kwargs):
        return Future()

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


@needs_shm
class TestRetryPolicy:
    """Bounded rebuilds: one bad episode never costs the pool's life."""

    def test_one_shot_poison_then_clean_batches(self):
        # The satellite regression: a single poisoned episode must not
        # disable pooling for the executor's whole lifetime.  The engine
        # absorbs the broken pool, rebuilds a real one, and finishes the
        # run — and a *second* run on the same engine — without a warning.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with ShardedExecutor(2, min_shard_vertices=1, retry_backoff=0.0) as engine:
            engine._pool = BrokenPool()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                first = run(graph, executor=engine)
                second = run(graph, executor=engine)
            assert not engine._broken
            assert engine._pool is not None, "pool must be rebuilt, not abandoned"
            assert type(engine._pool).__name__ == "ProcessPoolExecutor"
            assert any(e.kind == "pool-failure" for e in engine.events)
            assert not any(e.fatal for e in engine.events)
        assert first == expected
        assert second == expected

    def test_hung_worker_times_out_and_recovers(self):
        # task_timeout must leave real pool work comfortable — only the
        # planted never-completing future may trip it.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with ShardedExecutor(
            2, min_shard_vertices=1, task_timeout=2.0, retry_backoff=0.0
        ) as engine:
            engine._pool = HangingPool()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run(graph, executor=engine)
            assert not engine._broken
            assert any(e.kind == "timeout" for e in engine.events)
        assert got == expected

    def test_rebuild_budget_exhaustion_degrades_with_one_warning(self):
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        with ShardedExecutor(
            2, min_shard_vertices=1, max_pool_rebuilds=1, retry_backoff=0.0
        ) as engine:

            def always_broken():
                engine._pool = None
                raise BrokenProcessPool("pool can never be built")

            engine._ensure_pool = always_broken
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run(graph, executor=engine)
            assert engine._broken
            fatal = [e for e in engine.events if e.fatal]
            assert len(fatal) == 1
            assert len(engine.events) == 2  # one absorbed retry + the fatal one
        degraded = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "degraded to sequential" in str(w.message)
        ]
        assert len(degraded) == 1
        assert got == expected

    def test_infinite_deadline_keeps_a_healthy_pool(self):
        # An infinite budget bounds no wait: the pooled run must neither
        # time out nor record a failure (Future.result cannot take inf).
        graph = ring_of_cliques(8, 40)
        expected = run(graph)
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run(graph, executor=engine, deadline=float("inf"))
            assert engine.events == []
            assert not engine._broken
        assert got == expected

    def test_deadline_cancel_does_not_charge_the_budget(self):
        with ShardedExecutor(2, min_shard_vertices=1) as engine:
            engine._deadline_cancel()
            engine._deadline_cancel()
            assert engine._pool_failures == 0
            assert not engine._broken
            assert [e.kind for e in engine.events] == [
                "deadline-cancel",
                "deadline-cancel",
            ]


@needs_shm
class TestInterruptCleanup:
    """Kills mid-decomposition leave no segments and no orphan workers."""

    def test_keyboard_interrupt_leaves_no_shm(self):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        before = shm_entries()
        at_interrupt = []
        interrupt = interrupt_after(1)

        def on_progress(done):
            at_interrupt.append(shm_entries() - before)
            interrupt(done)

        with pytest.raises(_Interrupt):
            with ShardedExecutor(2, min_shard_vertices=1) as engine:
                run(graph, executor=engine, on_progress=on_progress)
        assert at_interrupt[-1], "no segment was published when the run was killed"
        assert shm_entries() - before == set(), "leaked shared-memory segments"

    def test_sigterm_leaves_no_shm_and_no_orphans(self, tmp_path):
        # A real SIGTERM delivered to a separate interpreter running a
        # pooled decomposition: the backstop must terminate the pool
        # workers and unlink every segment before the process dies.
        script = textwrap.dedent(
            """
            import os, sys, time
            from repro.graphs.generators import planted_partition_graph
            from repro.decomposition import expander_decomposition
            from repro.parallel import ShardedExecutor

            graph = planted_partition_graph(5, 14, 0.7, 0.02, seed=7)
            engine = ShardedExecutor(2, min_shard_vertices=1)
            pool = engine._ensure_pool()
            # Warm the pool so its worker pids exist, then advertise them.
            pool.submit(os.getpid).result()
            pids = list((pool._processes or {}).keys())
            print("WORKERS", *pids, flush=True)
            for _ in range(1000):
                expander_decomposition(graph, 0.2, 0.1, seed=7, executor=engine)
            """
        )
        before = shm_entries()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("WORKERS"), f"unexpected first line: {line!r}"
            worker_pids = [int(p) for p in line.split()[1:]]
            assert worker_pids, "pool advertised no workers"
            # Let the decomposition loop reach the pool: kill it only once
            # it has published a segment, so the backstop has one to unlink.
            published = set()
            wait_until = time.monotonic() + 30
            while not published and time.monotonic() < wait_until:
                time.sleep(0.05)
                published = shm_entries() - before
            assert published, "the run published no segment before the kill"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        alive = worker_pids
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _pid_alive(pid)]
            time.sleep(0.1)
        assert alive == [], f"orphaned pool workers: {alive}"
        leaked = shm_entries() - before
        assert leaked == set(), f"leaked shared-memory segments: {leaked}"


def _pid_alive(pid):
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            if fh.read().split(") ")[-1].split()[0] == "Z":
                return False  # zombie: dead, awaiting reap
    except OSError:
        return False
    return True
