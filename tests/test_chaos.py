"""The chaos harness: seeded fault injection, bit-identical recovery.

The chaos contract: a decomposition run under a
:class:`~repro.resilience.chaos.ChaosExecutor` — workers crashing,
hanging, dawdling, or returning corrupted results on a deterministic
seeded plan — must either produce *exactly* the fault-free oracle's
output or (under a deadline) a flagged
:class:`~repro.decomposition.expander.PartialDecomposition`.  Never a
hang, never a leak, never a silently wrong answer.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.decomposition import expander_decomposition
from repro.graphs.generators import (
    barbell_expanders,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.parallel import shared_memory_available
from repro.resilience import (
    ChaosExecutor,
    ChaosSpec,
    Deadline,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

GRAPHS = [
    ("ring_of_cliques", ring_of_cliques(6, 8)),
    ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
    ("barbell", barbell_expanders(24, degree=6, bridge_edges=2, seed=11)),
]

#: The standard mixed-fault plan used by the parity tests: crashes,
#: completion-order scrambling, and corrupted results, all at once.
MIXED = ChaosSpec(seed=1234, crash=0.15, corrupt=0.15, slow=0.15, slow_seconds=0.005)


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


class TestChaosSpec:
    def test_roll_is_deterministic_and_seed_sensitive(self):
        spec = ChaosSpec(seed=5, crash=0.25, hang=0.25, slow=0.25, corrupt=0.25)
        rolls = [spec.roll("chunk", 42, batch, 0) for batch in range(64)]
        assert rolls == [spec.roll("chunk", 42, batch, 0) for batch in range(64)]
        other = ChaosSpec(seed=6, crash=0.25, hang=0.25, slow=0.25, corrupt=0.25)
        assert rolls != [other.roll("chunk", 42, batch, 0) for batch in range(64)]

    def test_rates_are_respected(self):
        spec = ChaosSpec(seed=0, crash=0.5)
        rolls = [spec.roll("item", i) for i in range(400)]
        crashes = rolls.count("crash")
        assert rolls.count("hang") == rolls.count("corrupt") == 0
        assert 120 < crashes < 280  # ~200 expected; loose deterministic bounds

    def test_zero_spec_injects_nothing(self):
        spec = ChaosSpec(seed=9)
        assert all(spec.roll("item", i) == "none" for i in range(100))

    def test_guard_rails(self):
        hangy = ChaosExecutor(2, spec=ChaosSpec(seed=1, hang=0.5))
        try:
            assert hangy.task_timeout is not None, "hang rate demands a timeout"
        finally:
            hangy.close()

    def test_one_wrapper_for_both_task_kinds(self):
        # The driver hands the wrapper the slice's address; the wrapper
        # rolls, sleeps or raises, then runs the slice.
        from repro.resilience.chaos import ChaosInjectedCrash, chaos_run_task

        with pytest.raises(ChaosInjectedCrash):
            chaos_run_task(ChaosSpec(seed=2, crash=1.0), ("slice", 1, 0, 0), len, [1, 2, 3])
        clean = ChaosSpec(seed=2)
        assert chaos_run_task(clean, ("slice", 1, 0, 0), len, [1, 2]) == 2
        corrupted = chaos_run_task(
            ChaosSpec(seed=2, corrupt=1.0), ("slice", 1, 0, 0), list, [[], [(0, 1, None)]],
        )
        assert corrupted == [[], [(0, 10**9, None)]]  # out-of-schedule scale


@needs_shm
class TestChaosParity:
    """Faulted runs match the fault-free oracle bit for bit."""

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_faults_bit_identical(self, name, graph, workers):
        expected = run(graph)
        before = shm_entries()
        with ChaosExecutor(workers, spec=MIXED, min_shard_vertices=1) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # degrade would warn: forbidden
                got = run(graph, executor=engine)
            assert shm_entries() - before, "the run published no segment"
            assert not engine._broken
        assert got == expected
        assert shm_entries() - before == set(), "leaked shared-memory segments"

    def test_every_shipped_item_corrupted_still_identical(self):
        # corrupt=1.0: every pooled result is detectably wrong; the
        # verification layer must catch each one and recover inline.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        spec = ChaosSpec(seed=3, corrupt=1.0)
        with ChaosExecutor(4, spec=spec, min_shard_vertices=1) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run(graph, executor=engine)
            assert any(e.kind == "corrupt-result" for e in engine.events), (
                "corruption must be caught by re-verification, not slip through"
            )
        assert got == expected

    def test_every_shipped_item_crashing_still_identical(self):
        graph = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
        expected = run(graph)
        spec = ChaosSpec(seed=3, crash=1.0)
        with ChaosExecutor(4, spec=spec, min_shard_vertices=1) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run(graph, executor=engine)
            assert any(e.kind == "pool-failure" for e in engine.events)
        assert got == expected

    def test_hangs_never_hang_the_run(self):
        # Every shipped item sleeps past the task timeout: the engine must
        # time out, kill the hung workers, and finish inline-identical.
        # The per-test SIGALRM (conftest) is the outer never-hang backstop.
        graph = ring_of_cliques(6, 8)
        expected = run(graph)
        spec = ChaosSpec(seed=3, hang=1.0, hang_seconds=30.0)
        with ChaosExecutor(
            2, spec=spec, min_shard_vertices=1, task_timeout=0.2
        ) as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = run(graph, executor=engine)
            assert any(e.kind == "timeout" for e in engine.events)
        assert got == expected

    def test_chaos_under_deadline_returns_flagged_partial(self):
        # Chaos and deadline together: the run either finishes identical
        # or returns an explicitly flagged partial — never an unflagged
        # wrong decomposition.
        graph = ring_of_cliques(6, 8)
        ticks = {"n": 0}

        def clock():
            ticks["n"] += 1
            return float(ticks["n"])

        expected = run(graph)
        with ChaosExecutor(2, spec=MIXED, min_shard_vertices=1) as engine:
            rng = np.random.default_rng(7)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = expander_decomposition(
                    graph, 0.2, 0.1, seed=rng,
                    executor=engine, deadline=Deadline(40, clock=clock),
                )
        if result.partial:
            assert result.unfinished_components
            covered = [v for c in result.components for v in c.vertices]
            assert sorted(map(repr, covered)) == sorted(map(repr, graph.vertices()))
        else:
            assert (signature(result), rng.bit_generator.state) == expected
