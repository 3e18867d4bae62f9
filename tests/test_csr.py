"""Dict-vs-CSR engine parity: the randomized property harness.

The CSR walk engine (`repro.graphs.csr`) promises *bit-identical* results to
the dict reference (the dict walk and scan, called directly) — same walk
vectors, same sweep statistics, same certified cuts — because both
accumulate floating-point mass in the same canonical order.  These tests pin that promise on randomized graphs (the
property harness ROADMAP asked for) and on every benchmark family, and pin
the kernel rule that picks a batch's kernel; the full-pipeline matrix
(decompositions and sparse cuts across every configuration) lives in
``tests/differential/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from diffharness import dict_reference_cut, precheck_off
from repro.graphs import csr as csr_backend
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph, WalkWorkspace
from repro.graphs.generators import (
    barbell_expanders,
    cycle_graph,
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
)
from repro.decomposition import (
    expander as expander_module,
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
    sparse_cut as sparse_cut_module,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR
from repro.nibble import lockstep
from repro.nibble.nibble import approximate_nibble, nibble
from repro.nibble.parameters import NibbleParameters
from repro.nibble.sweep import build_sweep
from repro.parallel import worker
from repro.parallel.shared import SharedCSR, shared_memory_available
from repro.parallel.executor import sequential_batch
from repro.utils.rng import task_stream
from repro.walks.lazy_walk import (
    lazy_walk_step,
    truncated_walk_iter,
    truncated_walk_step,
)


def random_graphs(num: int = 6) -> list[Graph]:
    """A spread of random test graphs, some with self loops (via G{S})."""
    graphs = []
    for seed in range(num):
        g = erdos_renyi_graph(24 + 4 * seed, 0.15 + 0.05 * (seed % 3), seed=seed)
        graphs.append(g)
        # G{S} of a random half: exercises self loops and degree preservation
        rng = np.random.default_rng(seed)
        vertices = list(g.vertices())
        half = [v for v in vertices if rng.random() < 0.5]
        if len(half) >= 2:
            graphs.append(g.induced_with_loops(half))
    graphs.append(random_regular_graph(30, 4, seed=11))
    graphs.append(power_law_graph(40, seed=13))
    return graphs


def family_graphs() -> list[tuple[str, Graph]]:
    """The four benchmark families at test-friendly sizes."""
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
    ]


def random_mass(csr: CSRGraph, rng: np.random.Generator, density: float = 1.0):
    """A random sparse mass vector (ascending support, positive values)."""
    dense = np.where(rng.random(csr.n) < density, rng.random(csr.n), 0.0)
    idx = np.flatnonzero(dense)
    return idx, dense[idx]


def assert_mass_equal(csr: CSRGraph, sparse, dense_dict):
    """Sparse CSR mass and dict mass must agree exactly (support and bits)."""
    converted = csr_backend.mass_to_dict(csr, sparse)
    assert set(converted) == set(dense_dict)
    for v, mass in dense_dict.items():
        assert converted[v] == mass  # bit-identical, not approx


class TestCSRGraphStructure:
    def test_degrees_volume_and_index_are_consistent(self):
        for g in random_graphs():
            csr = CSRGraph.from_graph(g)
            assert csr.n == g.num_vertices
            assert csr.total_volume == g.total_volume()
            for i, v in enumerate(csr.vertices):
                assert csr.index[v] == i
                assert int(csr.degree[i]) == g.degree(v)
                assert int(csr.proper_degree[i]) == len(g.neighbors(v))
                assert int(csr.loops[i]) == g.self_loops(v)
                nbrs = {csr.vertices[int(j)] for j in csr.neighbors(i)}
                assert nbrs == g.neighbors(v)

    def test_adjacency_is_symmetric_and_sorted(self):
        for g in random_graphs(3):
            csr = CSRGraph.from_graph(g)
            for i in range(csr.n):
                row = csr.neighbors(i)
                assert list(row) == sorted(row)
                for j in row:
                    assert i in csr.neighbors(int(j))

    def test_repeated_labels_are_refused(self):
        csr = CSRGraph.from_graph(ring_of_cliques(4, 5))
        labels = list(csr.vertices)
        labels[1] = labels[0]
        with pytest.raises(ValueError, match="labels repeat"):
            CSRGraph(csr.indptr, csr.indices, csr.loops, labels)

    def test_repeated_labels_are_refused_on_every_path(self, tmp_path):
        """A repeated label fails construction however a snapshot is made:
        reopened from disk, compacted from a view, attached from shared
        memory."""
        damaged = CSRGraph.from_graph(ring_of_cliques(4, 5))
        damaged.vertices[3] = damaged.vertices[2]  # after the constructor's check
        damaged.to_mmap(tmp_path / "snapshot")
        with pytest.raises(ValueError, match="labels repeat"):
            CSRGraph.from_mmap(tmp_path / "snapshot")
        with pytest.raises(ValueError, match="labels repeat"):
            PeeledCSR.for_subset(damaged, range(8)).compact()
        if shared_memory_available():
            with SharedCSR.publish(damaged) as owner:
                attached = SharedCSR.attach(owner.meta)
                with pytest.raises(ValueError, match="labels repeat"):
                    attached.graph
                attached.close()

    def test_index_is_built_on_first_use(self, tmp_path):
        graph = ring_of_cliques(4, 5)
        csr = CSRGraph.from_graph(graph)
        csr.to_mmap(tmp_path / "snapshot")
        opened = CSRGraph.from_mmap(tmp_path / "snapshot")
        compact = PeeledCSR.for_subset(opened, range(0, 20, 2)).compact().base
        for snapshot in (csr, opened, compact):
            assert snapshot._index is None
            assert snapshot.index == {v: i for i, v in enumerate(snapshot.vertices)}
            assert snapshot.index is snapshot.index

    def test_edge_keys_memoised_on_snapshot(self):
        g = ring_of_cliques(3, 8)
        csr = CSRGraph.from_graph(g)
        keys = csr.directed_edge_keys()
        assert csr.directed_edge_keys() is keys
        expected = (
            np.repeat(np.arange(csr.n, dtype=np.int64), csr.proper_degree)
            * np.int64(csr.n)
            + csr.indices
        )
        assert np.array_equal(keys, expected)

    def test_indptr_must_start_at_zero_and_never_decrease(self):
        csr = CSRGraph.from_graph(ring_of_cliques(4, 5))
        shifted = csr.indptr.copy()
        shifted[0] = 1
        swapped = csr.indptr.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        for indptr in (shifted, swapped):
            with pytest.raises(ValueError, match="start at 0 and never decrease"):
                CSRGraph(indptr, csr.indices, csr.loops, list(csr.vertices))

    def test_roundtrip_to_graph(self):
        for g in random_graphs(3):
            back = CSRGraph.from_graph(g).to_graph()
            assert set(back.vertices()) == set(g.vertices())
            for v in g.vertices():
                assert back.neighbors(v) == g.neighbors(v)
                assert back.self_loops(v) == g.self_loops(v)



def per_vertex_snapshot(graph: Graph) -> CSRGraph:
    """The per-vertex ``from_graph`` build, kept as the oracle of the sort-based one."""
    vertices = sorted(graph.vertices(), key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    counts = np.fromiter(
        (len(graph.neighbors(v)) for v in vertices), dtype=np.int64, count=len(vertices)
    )
    indptr64 = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr64[1:])
    dtype = csr_backend.choose_index_dtype(len(vertices), int(indptr64[-1]))
    indices = np.empty(int(indptr64[-1]), dtype=dtype)
    for i, v in enumerate(vertices):
        indices[indptr64[i] : indptr64[i + 1]] = sorted(index[u] for u in graph.neighbors(v))
    loops = np.fromiter(
        (graph.self_loops(v) for v in vertices), dtype=np.int64, count=len(vertices)
    )
    return CSRGraph(indptr64.astype(dtype, copy=False), indices, loops, vertices)


def snapshot_hosts() -> list[tuple[str, Graph]]:
    """Every generator family, a G{S} with loops, and awkward labels."""
    hosts = [
        ("empty", Graph()),
        ("path", gen.path_graph(9)),
        ("cycle", gen.cycle_graph(12)),
        ("complete", gen.complete_graph(7)),
        ("star", gen.star_graph(10)),
        ("grid", gen.grid_graph(4, 6)),
        ("hypercube", gen.hypercube_graph(5)),
        ("complete_bipartite", gen.complete_bipartite_graph(4, 7)),
        ("binary_tree", gen.binary_tree_graph(4)),
        ("erdos_renyi", gen.erdos_renyi_graph(60, 0.1, seed=2)),
        ("random_regular", gen.random_regular_graph(40, 4, seed=3)),
        ("barbell", gen.barbell_expanders(24, seed=4)),
        ("unbalanced", gen.unbalanced_bridged_expanders(10, 30, seed=5)),
        ("ring_of_cliques", gen.ring_of_cliques(5, 6)),
        ("planted", gen.planted_partition_graph(3, 12, 0.6, 0.05, seed=6)),
        ("power_law", gen.power_law_graph(120, seed=7)),
        ("dumbbell", gen.dumbbell_cliques(6, 4)),
        ("disjoint_cliques", gen.disjoint_cliques(5, 4)),
        ("triangle_rich", gen.triangle_rich_graph(40, seed=8)),
        ("union", gen.union_of_graphs(
            [gen.cycle_graph(6), gen.complete_graph(5)], bridge_edges=2, seed=9
        )),
    ]
    host = gen.erdos_renyi_graph(50, 0.15, seed=10)
    keep = sorted(host.vertices(), key=repr)[::2]
    hosts.append(("induced_with_loops", host.induced_with_loops(keep)))
    # Labels of mixed types have no order of their own, only ``repr``'s;
    # two of them share a ``repr`` and keep their insertion order.
    mixed = Graph(vertices=[3, "3", (1, "a"), None, frozenset({2}), 2.5, ("x",), "b"])
    for u, v in [(3, "3"), ("3", None), (None, (1, "a")), (2.5, ("x",)), ("b", 3), (3, 2.5)]:
        mixed.add_edge(u, v)
    mixed.add_self_loops("b", 2)
    mixed.add_self_loops(None, 1)
    mixed.add_self_loops(frozenset({2}), 3)
    hosts.append(("unorderable_labels", mixed))
    return hosts


class TestFromGraphBuild:
    """The sort-based ``from_graph`` gives the per-vertex build's bytes."""

    @pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
    def test_byte_identical_to_per_vertex_build(self, monkeypatch, wide):
        if wide:
            monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", 0)
        for name, graph in snapshot_hosts():
            got, expected = CSRGraph.from_graph(graph), per_vertex_snapshot(graph)
            for field in ("indptr", "indices", "loops"):
                a, b = getattr(got, field), getattr(expected, field)
                assert a.dtype == b.dtype and a.shape == b.shape, (name, field)
                assert a.tobytes() == b.tobytes(), (name, field)
            assert got.vertices == expected.vertices, name
            if graph.num_vertices:
                assert got.indptr.dtype == ("int64" if wide else "int32"), name


class TestWalkParity:
    def test_single_step_bit_identical(self):
        # epsilon = 0 truncates nothing, so the workspace step is the plain
        # lazy walk step restricted to its support.
        for g in random_graphs():
            if g.num_vertices == 0:
                continue
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            p_dict = {csr.vertices[0]: 1.0}
            p_csr = (np.array([0]), np.array([1.0]))
            for _ in range(4):
                p_dict = lazy_walk_step(g, p_dict)
                p_csr = ws.truncated_step(p_csr, 0.0)
                assert_mass_equal(csr, p_csr, p_dict)

    def test_truncation_bit_identical(self):
        for g in random_graphs(4):
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            mass = random_mass(csr, np.random.default_rng(42))
            as_dict = csr_backend.mass_to_dict(csr, mass)
            for eps in (1e-4, 1e-2, 0.05):
                assert_mass_equal(
                    csr,
                    ws.truncated_step(mass, eps),
                    truncated_walk_step(g, as_dict, eps),
                )

    def test_truncated_sequences_bit_identical(self):
        for g in random_graphs():
            if g.total_volume() == 0:
                continue
            csr = CSRGraph.from_graph(g)
            ws = WalkWorkspace(csr)
            params = NibbleParameters.practical(g, 0.15)
            start = csr.vertices[len(csr.vertices) // 2]
            for scale in (1, params.ell):
                eps = params.epsilon_b(scale)
                dict_seq = list(truncated_walk_iter(g, start, params.t0, eps))
                csr_seq = list(ws.walk_iter(csr.index[start], params.t0, eps))
                assert len(dict_seq) == len(csr_seq)
                for dict_mass, sparse in zip(dict_seq, csr_seq):
                    assert_mass_equal(csr, sparse, dict_mass)


class TestSweepParity:
    def sweeps(self, g: Graph, csr: CSRGraph, seed: int):
        """Paired (dict, csr) sweeps of a few random mass vectors."""
        rng = np.random.default_rng(seed)
        ws = WalkWorkspace(csr)
        for _ in range(3):
            sparse = random_mass(csr, rng, density=0.6)
            if sparse[0].size == 0:
                continue
            mass = csr_backend.mass_to_dict(csr, sparse)
            yield build_sweep(g, mass), ws.build_sweep(sparse)

    def test_order_and_prefix_statistics_identical(self):
        for seed, g in enumerate(random_graphs()):
            csr = CSRGraph.from_graph(g)
            for dict_state, csr_state in self.sweeps(g, csr, seed):
                assert csr_state.jmax == dict_state.jmax
                order = [csr.vertices[int(i)] for i in csr_state.order]
                assert order == dict_state.order
                assert list(csr_state.prefix_volume) == dict_state.prefix_volume
                assert list(csr_state.prefix_cut) == dict_state.prefix_cut
                conds = csr_state.conductances()
                for j in range(1, dict_state.jmax + 1):
                    assert conds[j - 1] == dict_state.conductance(j)

    def test_prefix_cut_matches_graph_profile(self):
        for g in random_graphs(4):
            csr = CSRGraph.from_graph(g)
            idx = np.flatnonzero(csr.degree)
            mass = (idx, csr.degree[idx] / csr.total_volume)  # ψ_V
            state = WalkWorkspace(csr).build_sweep(mass)
            order = [csr.vertices[int(i)] for i in state.order]
            volumes, cuts = g.prefix_cut_profile(order)
            assert list(state.prefix_volume) == volumes
            assert list(state.prefix_cut) == cuts


class TestCutParity:
    def test_nibble_cuts_identical_on_random_graphs(self):
        for seed, g in enumerate(random_graphs()):
            if g.total_volume() == 0:
                continue
            params = NibbleParameters.practical(g, 0.2)
            csr = CSRGraph.from_graph(g)
            start = csr.vertices[seed % csr.n]
            for scale in (1, max(1, params.ell // 2)):
                for approximate, fn in ((False, nibble), (True, approximate_nibble)):
                    expected = dict_reference_cut(g, start, scale, params, approximate)
                    assert fn(g, start, scale, params) == expected
                    assert fn(csr, start, scale, params) == expected

    def test_nibble_cuts_identical_on_families(self):
        for _, g in family_graphs():
            params = NibbleParameters.practical(g, 0.1)
            csr = CSRGraph.from_graph(g)
            for start in (csr.vertices[0], csr.vertices[csr.n // 2]):
                for scale in (1, params.ell):
                    for approximate, fn in (
                        (False, nibble),
                        (True, approximate_nibble),
                    ):
                        expected = dict_reference_cut(
                            g, start, scale, params, approximate
                        )
                        assert fn(g, start, scale, params) == expected
                        assert fn(csr, start, scale, params) == expected

    def test_scale_out_of_range_raises_on_both_engines(self):
        g = ring_of_cliques(3, 5)
        params = NibbleParameters.practical(g, 0.1)
        for target in (g, CSRGraph.from_graph(g)):
            with pytest.raises(ValueError):
                nibble(target, next(iter(g.vertices())), params.ell + 1, params)


class TestKernelRule:
    """One graph type for every batch, and the kernel rule at its edge.

    Every working graph is a :class:`PeeledCSR` view whatever its size —
    observed at the decomposition's working-graph builder (what it hands
    the sparse cut) and at the sparse cut's entry (what it hands each
    ParallelNibble batch), on cycles either side of the old 32-vertex
    engine threshold, sparse enough that every cut search runs.  A batch
    runs as lockstep rows exactly while ``rows × (n + 2m)`` fits
    :data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`.
    """

    def test_threshold_edge(self, monkeypatch):
        view = PeeledCSR.from_graph(cycle_graph(12))
        params = NibbleParameters.practical(view, 0.1)
        draws = {
            worker.draw_nibble_instance(view, params, task_stream(5, 0, i))
            for i in range(6)
        }
        cells = len(draws) * (view.num_vertices + 2 * view.num_edges)
        real_kernel = worker.lockstep_approximate_nibble
        real_walk = worker.approximate_nibble
        for budget, kernel_calls, walks in ((cells, 1, 0), (cells - 1, 0, len(draws))):
            seen = []
            monkeypatch.setattr(lockstep, "LOCKSTEP_CELL_BUDGET", budget)
            monkeypatch.setattr(
                worker,
                "lockstep_approximate_nibble",
                lambda *a, **k: seen.append("lockstep") or real_kernel(*a, **k),
            )
            monkeypatch.setattr(
                worker,
                "approximate_nibble",
                lambda *a, **k: seen.append("walk") or real_walk(*a, **k),
            )
            sequential_batch(view, params, 5, 0, 6)
            assert seen.count("lockstep") == kernel_calls, budget
            assert seen.count("walk") == walks, budget

    @pytest.mark.parametrize("n", [31, 32])
    def test_decomposition_site(self, monkeypatch, n):
        seen = []
        original = expander_module.sparse_cut_search

        def spy(target, *args, **kwargs):
            seen.append(type(target))
            return original(target, *args, **kwargs)

        monkeypatch.setattr(expander_module, "sparse_cut_search", spy)
        expander_decomposition(cycle_graph(n), 0.5, 0.1, seed=1)
        assert seen and set(seen) == {PeeledCSR}

    @pytest.mark.parametrize("n", [31, 32])
    def test_sparse_cut_site(self, monkeypatch, n):
        seen = []
        original = sparse_cut_module._nibble_batch

        def spy(graph, *args, **kwargs):
            seen.append(type(graph))
            return original(graph, *args, **kwargs)

        monkeypatch.setattr(sparse_cut_module, "_nibble_batch", spy)
        with precheck_off():
            nearly_most_balanced_sparse_cut(cycle_graph(n), 0.1, seed=1)
        assert seen and set(seen) == {PeeledCSR}


# Full-pipeline parity (sparse cuts and decompositions across engines)
# lives in tests/differential/test_pipeline.py, which drives the complete
# configuration matrix — both kernels / int32 / int64 / mmap / pre-check
# off / permuted scheduling — through every generator family via
# assert_pipeline_identical.
