"""Duplicate draws on tiny-component chains: fewer walks, identical bits.

Deep-recursion batches on chains of 2–5-cliques draw the same
``(start, scale)`` pair over and over (a handful of high-degree starts,
Θ(log m) instances).  A batch runs each distinct draw once
(:func:`repro.parallel.worker.run_chunk`, which replaced the per-batch
memo) — exact, because a batch's view is invariant and every stream is
drawn from either way.  These tests pin both halves of that claim, under
both batch kernels: the deduplication actually fires (one
ApproximateNibble walk per distinct draw on the workspace kernel; one
lockstep kernel call carrying each distinct draw once on the lockstep
kernel), and every instance's answer equals a stand-alone run of the
same instance on the same stream.
"""

import itertools

import numpy as np
import pytest

from diffharness import LOCKSTEP_ALL, kernel_budget
from repro.graphs.generators import dumbbell_cliques, ring_of_cliques
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR
from repro.nibble.parameters import NibbleParameters
from repro.parallel import worker
from repro.parallel.executor import sequential_batch
from repro.utils.rng import task_stream


def clique_chain(sizes):
    """A chain of cliques of the given sizes, bridged end to start."""
    g = Graph()
    prev = None
    for ci, size in enumerate(sizes):
        nodes = [(ci, i) for i in range(size)]
        for u, v in itertools.combinations(nodes, 2):
            g.add_edge(u, v)
        if prev is not None:
            g.add_edge(prev, nodes[0])
        prev = nodes[-1]
    return g


CHAIN_SIZES = (3, 2, 4, 5, 2, 3, 4, 2, 5, 3)


#: Instances per batch: well above the number of distinct draws a small
#: chain offers, so every batch below repeats draws.
NUM_INSTANCES = 24
ROOT = 12345


#: The two batch kernels, as kernel-budget scopes.
KERNELS = [("lockstep", LOCKSTEP_ALL), ("workspace", 0)]


class TestBatchMemo:
    @pytest.mark.parametrize(
        "name,graph",
        [
            ("clique_chain", clique_chain(CHAIN_SIZES)),
            ("dumbbell", dumbbell_cliques(5, 4)),
            ("ring_of_cliques", ring_of_cliques(6, 8)),
        ],
        ids=["clique_chain", "dumbbell", "ring_of_cliques"],
    )
    def test_memo_is_output_neutral(self, name, graph):
        """A deduplicated batch returns, instance by instance, exactly what
        a stand-alone run of that instance on its own stream returns."""
        params = NibbleParameters.practical(graph, 0.1)
        view = PeeledCSR.from_graph(graph)
        for kernel, budget in KERNELS:
            with kernel_budget(budget):
                batch = sequential_batch(view, params, ROOT, 0, NUM_INSTANCES)
            for i, scale, cut in batch:
                alone = worker.run_nibble_instance(
                    view, params, task_stream(ROOT, 0, i)
                )
                assert (scale, cut) == alone, (name, kernel, i)

    def test_memo_short_circuits_duplicate_draws(self, monkeypatch):
        """In a batch with duplicate draws, every distinct ``(start, scale)``
        draw runs exactly once: one lockstep kernel call carrying exactly
        the distinct draws on the lockstep kernel, one ApproximateNibble
        walk per distinct draw on the workspace kernel."""
        g = clique_chain((3, 2, 3))
        params = NibbleParameters.practical(g, 0.1)
        view = PeeledCSR.from_graph(g)
        real_nibble = worker.approximate_nibble
        real_kernel = worker.lockstep_approximate_nibble
        draws = [
            worker.draw_nibble_instance(view, params, task_stream(ROOT, 0, i))
            for i in range(NUM_INSTANCES)
        ]
        assert len(set(draws)) < NUM_INSTANCES  # duplicates exist
        for kernel, budget in KERNELS:
            walks, kernel_calls = [], []

            def counted(*args, **kwargs):
                walks.append(args[1:3])
                return real_nibble(*args, **kwargs)

            def counted_kernel(graph, batch_draws, *args, **kwargs):
                kernel_calls.append(list(batch_draws))
                return real_kernel(graph, batch_draws, *args, **kwargs)

            monkeypatch.setattr(worker, "approximate_nibble", counted)
            monkeypatch.setattr(worker, "lockstep_approximate_nibble", counted_kernel)
            with kernel_budget(budget):
                sequential_batch(view, params, ROOT, 0, NUM_INSTANCES)
            monkeypatch.setattr(worker, "approximate_nibble", real_nibble)
            monkeypatch.setattr(worker, "lockstep_approximate_nibble", real_kernel)
            if kernel == "lockstep":
                assert walks == [], kernel
                assert kernel_calls == [list(dict.fromkeys(draws))], kernel
            else:
                assert kernel_calls == [], kernel
                assert len(walks) == len(set(draws)), kernel
                assert set(walks) == set(draws), kernel

    def test_draw_protocol_is_two_stream_draws(self):
        """draw_nibble_instance must consume exactly the start draw and the
        scale draw — the deduplication's exactness argument leans on this."""
        from repro.graphs.peel import PeeledCSR
        from repro.nibble.parameters import NibbleParameters, sample_scale

        g = ring_of_cliques(3, 5)
        params = NibbleParameters.practical(g, 0.1)
        view = PeeledCSR.from_graph(g)
        stream = np.random.default_rng(3)
        start, scale = worker.draw_nibble_instance(view, params, stream)
        twin = np.random.default_rng(3)
        expected_start = view.vertices[view.sample_start(twin)]
        expected_scale = sample_scale(twin, params.ell)
        assert (start, scale) == (expected_start, expected_scale)
        assert stream.bit_generator.state == twin.bit_generator.state
