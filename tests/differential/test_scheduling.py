"""Property-based scheduling invariance: the order a round's requests run never matters.

The engine seam's correctness argument is order-freeness: every
instance's randomness is addressed by ``(root, batch, instance)``, every
searched component's by ``(root, depth, component_stream_key)``, and the
parent merges child outcomes in canonical (smallest-repr) order — so
*any* order of a round's requests, any composition of its fused calls
and slices, in any process, yields bit-identical decompositions.  Instead
of pinning a few hand-picked cases, this suite samples the property
space: random generator families × random permutation seeds × random
worker counts, all asserted identical to the inline-sequential reference.
"""

import numpy as np
import pytest

from diffharness import PermutedExecutor, decomposition_signature
from repro.decomposition import expander_decomposition
from repro.graphs.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_graph,
    ring_of_cliques,
)
from repro.graphs.peel import PeeledCSR
from repro.nibble import NibbleParameters
from repro.parallel import (
    SEQUENTIAL,
    BatchRequest,
    SequentialExecutor,
    ShardedExecutor,
    shared_memory_available,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)

#: The sampled graph space: each entry is (family name, constructor taking
#: one sampling generator).  Sizes stay small — the property needs many
#: trials more than it needs big instances.
FAMILY_SPACE = [
    ("erdos_renyi", lambda rng: erdos_renyi_graph(
        int(rng.integers(12, 41)), float(rng.uniform(0.1, 0.35)),
        seed=int(rng.integers(1 << 16)),
    )),
    ("planted", lambda rng: planted_partition_graph(
        int(rng.integers(2, 5)), int(rng.integers(6, 13)), 0.8, 0.05,
        seed=int(rng.integers(1 << 16)),
    )),
    ("ring_of_cliques", lambda rng: ring_of_cliques(
        int(rng.integers(3, 8)), int(rng.integers(4, 10)),
    )),
    ("power_law", lambda rng: power_law_graph(
        int(rng.integers(30, 81)), seed=int(rng.integers(1 << 16)),
    )),
]


def run(graph, seed, **kwargs):
    rng = np.random.default_rng(seed)
    result = expander_decomposition(graph, 0.25, 0.1, seed=rng, **kwargs)
    return (
        decomposition_signature(result),
        result.report.total_rounds,
        rng.bit_generator.state,
    )


class TestPermutationInvariance:
    """Deterministic shuffled request order ≡ inline, across the space."""

    def test_permuted_shuffles_execution_but_not_results(self):
        graph = ring_of_cliques(4, 6)
        view = PeeledCSR.from_graph(graph)
        params = NibbleParameters.practical(graph, 0.1)
        requests = [BatchRequest(view, params, 17, batch, 3) for batch in range(8)]
        seen = []

        class Recording(SequentialExecutor):
            def run_batches(self, round_requests):
                seen.extend(request.batch_index for request in round_requests)
                return super().run_batches(round_requests)

        results = PermutedExecutor(seed=3, engine=Recording()).run_batches(requests)
        assert results == SEQUENTIAL.run_batches(requests)  # request-aligned
        assert sorted(seen) == list(range(8))
        assert seen != list(range(8))  # the order genuinely moved

    @pytest.mark.parametrize("trial", range(10))
    def test_random_instance_random_permutations(self, trial):
        sampler = np.random.default_rng(1000 + trial)
        name, build = FAMILY_SPACE[trial % len(FAMILY_SPACE)]
        graph = build(sampler)
        seed = int(sampler.integers(1 << 16))
        reference = run(graph, seed)
        for perm_seed in sampler.integers(1 << 16, size=3):
            got = run(graph, seed, executor=PermutedExecutor(seed=int(perm_seed)))
            assert got == reference, (name, trial, int(perm_seed))

    def test_stateful_scheduler_reuse_is_still_invariant(self):
        # One PermutedExecutor carried across several decompositions keeps
        # drawing fresh permutations; none of them may show through.
        permuted = PermutedExecutor(seed=5)
        sampler = np.random.default_rng(77)
        for trial in range(4):
            name, build = FAMILY_SPACE[trial % len(FAMILY_SPACE)]
            graph = build(sampler)
            seed = int(sampler.integers(1 << 16))
            assert run(graph, seed, executor=permuted) == run(graph, seed), (
                name,
                trial,
            )


@needs_shm
class TestWorkerCountInvariance:
    """Real pools at random worker counts ≡ sequential, pool forced on."""

    @pytest.mark.parametrize("trial", range(3))
    def test_random_instance_random_workers(self, trial):
        sampler = np.random.default_rng(2000 + trial)
        name, build = FAMILY_SPACE[trial % len(FAMILY_SPACE)]
        graph = build(sampler)
        seed = int(sampler.integers(1 << 16))
        reference = run(graph, seed)
        workers = int(sampler.integers(1, 5))
        with ShardedExecutor(workers, min_shard_vertices=1) as engine:
            got = run(graph, seed, executor=engine)
        assert got == reference, (name, trial, workers)
