"""Sibling searches run side by side: fused lockstep calls, nothing moves.

The decomposition's recursion is a generator of request rounds
(:mod:`repro.parallel.frontier`): every search live at once hands its
ParallelNibble batch to the same round, and the sequential engine runs a
round's small batches as one fused lockstep call.  These tests pin what
that changes — fewer kernel calls on the benchmark's ring — and what it
must not: the decomposition itself, and, under a deadline that expires
inside a fused call, the prefix and coverage contract of a partial run.
"""

import hashlib

from repro.decomposition import expander_decomposition
from repro.graphs.generators import ring_of_cliques
from repro.parallel import SEQUENTIAL, SequentialExecutor, worker
from repro.resilience import Deadline, DeadlineExpired

#: The ``ring`` benchmark workload's decomposition settings.
RING = {
    "epsilon": 0.1,
    "phi": 0.1,
    "sparse_cut_kwargs": {"num_instances": 6, "params_overrides": {"max_t0": 150}},
}

#: :func:`digest` of ring_of_cliques(6, 8) at :data:`RING`, seed 1, as the
#: decomposition returned it when it ran one search at a time.
RING_DIGEST = "1efc8d53d8735ada00fb2dabd1e24f164964e574e1f21adaf4857bb67d8f2638"


def digest(result):
    """Components in emitted order, cut edges, rounds and skips, hashed."""
    signature = (
        [
            (sorted(map(repr, c.vertices)), c.certified, c.conductance_estimate, c.level)
            for c in result.components
        ],
        sorted(sorted(map(repr, e)) for e in result.cut_edges),
        result.report.total_rounds,
        result.precheck_skips,
    )
    return hashlib.sha256(repr(signature).encode()).hexdigest()


class OneAtATime(SequentialExecutor):
    """Runs each request of a round in its own kernel call."""

    def run_batches(self, requests):
        return [SEQUENTIAL.run_batches([request])[0] for request in requests]


def spy_kernel(monkeypatch, ticks=None):
    """Record every lockstep call: its group count, the counting clock at
    entry and exit, and whether the deadline interrupted it."""
    calls = []
    real = worker.lockstep_approximate_nibble

    def spy(view, draws, params, *groups):
        call = {"groups": 1 + len(groups), "entry": ticks and ticks["n"]}
        calls.append(call)
        try:
            return real(view, draws, params, *groups)
        except DeadlineExpired:
            call["expired"] = True
            raise
        finally:
            call["exit"] = ticks and ticks["n"]

    monkeypatch.setattr(worker, "lockstep_approximate_nibble", spy)
    return calls


def counting_deadline(budget):
    """A deadline whose clock advances by one per reading, and the counter."""
    ticks = {"n": 0}

    def clock():
        ticks["n"] += 1
        return float(ticks["n"])

    return Deadline(budget, clock=clock), ticks


class TestDriverFuses:
    def test_ring_makes_three_lockstep_calls(self, monkeypatch):
        """The 48-vertex root alone, then the two 24-vertex siblings
        together, then the two 16-vertex cousins together — and the same
        decomposition as one search at a time."""
        graph = ring_of_cliques(6, 8)
        calls = spy_kernel(monkeypatch)
        fused = expander_decomposition(graph, seed=1, deadline=60.0, **RING)
        assert [call["groups"] for call in calls] == [1, 2, 2]
        calls.clear()
        alone = expander_decomposition(
            graph, seed=1, deadline=60.0, executor=OneAtATime(), **RING
        )
        assert [call["groups"] for call in calls] == [1, 1, 1, 1, 1]
        assert digest(fused) == digest(alone) == RING_DIGEST

    def test_expiry_inside_a_fused_call_keeps_the_prefix(self, monkeypatch):
        """A counting clock that expires halfway through each two-sibling
        call: every search of that round is interrupted, the finished
        components are a prefix of the unbounded run's, and every vertex
        is covered once."""
        graph = ring_of_cliques(6, 8)
        unbounded = expander_decomposition(graph, seed=1, **RING)
        deadline, ticks = counting_deadline(10**9)
        calls = spy_kernel(monkeypatch, ticks)
        expander_decomposition(graph, seed=1, deadline=deadline, **RING)
        fused = [call for call in calls if call["groups"] > 1]
        assert len(fused) == 2
        partial_markers = []
        for call in fused:
            calls.clear()
            # The deadline's clock read 1 at its construction.
            budget = (call["entry"] + call["exit"]) // 2 - 1
            bounded = expander_decomposition(
                graph, seed=1, deadline=counting_deadline(budget)[0], **RING
            )
            interrupted = [c for c in calls if c.get("expired")]
            assert [c["groups"] for c in interrupted] == [2]
            assert bounded.partial
            finished = [c for c in bounded.components if not c.unfinished]
            assert [
                (c.vertices, c.certified, c.conductance_estimate, c.level)
                for c in finished
            ] == [
                (c.vertices, c.certified, c.conductance_estimate, c.level)
                for c in unbounded.components[: len(finished)]
            ]
            covered = sorted(repr(v) for c in bounded.components for v in c.vertices)
            assert covered == sorted(map(repr, graph.vertices()))
            # A cut edge may only join two different components.
            owner = {v: i for i, c in enumerate(bounded.components) for v in c.vertices}
            assert all(owner[u] != owner[v] for u, v in bounded.cut_edges)
            partial_markers.append(
                sorted(len(c.vertices) for c in bounded.unfinished_components)
            )
        # Inside the siblings' call both 24-vertex searches stop.  Inside
        # the cousins' call both 16-vertex searches stop; in canonical order
        # the first sibling's cousin comes before its finished 8-vertex
        # clique, so that clique is flagged, and so is the whole second
        # sibling, though its own clique had finished too.
        assert partial_markers == [[24, 24], [8, 16, 24]]

    def test_driver_fuses_the_rounds_of_every_live_subtree(self, monkeypatch):
        """Cousins from different sibling groups share a round: on a ring of
        nine cliques some fused call carries more than one sibling pair."""
        graph = ring_of_cliques(9, 6)
        calls = spy_kernel(monkeypatch)
        fused = expander_decomposition(graph, seed=3, **RING)
        assert max(call["groups"] for call in calls) > 2
        alone = expander_decomposition(graph, seed=3, executor=OneAtATime(), **RING)
        assert digest(fused) == digest(alone)
        assert fused.certified_fraction == 1.0
