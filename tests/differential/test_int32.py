"""int32 index storage and memory-mapped snapshots: boundary behaviour.

The storage layer promises that index dtype and array residency are pure
representation choices: int32 vs int64 and RAM vs mmap may never change a
single bit of any derived quantity.  These tests pin the *decision* logic
(the int32/int64 threshold at :data:`~repro.graphs.csr.INDEX32_LIMIT`) and
the *composition* rules (mmap snapshots flowing through ``PeeledCSR`` views
and compaction unchanged).
"""

import numpy as np
import pytest

from diffharness import index_width
from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSRGraph, choose_index_dtype
from repro.graphs.generators import (
    power_law_csr,
    power_law_graph,
    ring_of_cliques,
)
from repro.graphs.peel import PeeledCSR, maybe_compact


def view_signature(view):
    """Every derived array of a peeled view, for bit-level comparison."""
    row_id, flat = view.flat_adjacency(np.flatnonzero(view.alive))
    return (
        view.alive.copy(),
        np.asarray(view.degree, dtype=np.int64).copy(),
        np.asarray(view.proper_degree, dtype=np.int64).copy(),
        np.asarray(view.loops, dtype=np.int64).copy(),
        view.total_volume,
        view.num_edges,
        np.asarray(row_id, dtype=np.int64).copy(),
        np.asarray(flat, dtype=np.int64).copy(),
    )


def assert_views_identical(a, b):
    for x, y in zip(view_signature(a), view_signature(b)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


class TestIndexDtypeDecision:
    def test_small_graphs_choose_int32(self):
        csr = CSRGraph.from_graph(ring_of_cliques(3, 4))
        assert csr.indptr.dtype == np.int32
        assert csr.indices.dtype == np.int32
        assert csr.loops.dtype == np.int64  # degrees stay int64 arithmetic

    def test_decision_edge_is_exact(self, monkeypatch):
        g = ring_of_cliques(3, 4)
        entries = int(CSRGraph.from_graph(g).indptr[-1])
        monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", entries)
        assert CSRGraph.from_graph(g).indices.dtype == np.int32
        monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", entries - 1)
        assert CSRGraph.from_graph(g).indices.dtype == np.int64

    def test_matrix_int64_scope_builds_wide_snapshots(self):
        g = ring_of_cliques(3, 4)
        with index_width("int64"):
            assert CSRGraph.from_graph(g).indices.dtype == np.int64
        assert CSRGraph.from_graph(g).indices.dtype == np.int32

    def test_choice_covers_vertices_and_entries(self, monkeypatch):
        monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", 10)
        assert choose_index_dtype(10, 10) == np.int32
        assert choose_index_dtype(11, 10) == np.int64
        assert choose_index_dtype(10, 11) == np.int64

    def test_int32_and_int64_builds_are_value_identical(self, monkeypatch):
        g = ring_of_cliques(4, 6)
        small = CSRGraph.from_graph(g)
        monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", 0)
        wide = CSRGraph.from_graph(g)
        assert small.indices.dtype == np.int32 and wide.indices.dtype == np.int64
        assert np.array_equal(small.indptr, wide.indptr)
        assert np.array_equal(small.indices, wide.indices)
        # the int32 <-> int64 round-trip is lossless both ways
        assert np.array_equal(
            small.indices.astype(np.int64).astype(np.int32), small.indices
        )
        back = small.to_graph()
        for v in g.vertices():
            assert back.neighbors(v) == g.neighbors(v)
            assert back.self_loops(v) == g.self_loops(v)


class TestMmapSnapshots:
    def roundtrip(self, tmp_path, g=None):
        csr = CSRGraph.from_graph(g or ring_of_cliques(4, 6))
        return csr, CSRGraph.from_mmap(csr.to_mmap(tmp_path / "snap"))

    def test_roundtrip_bit_identical_and_readonly(self, tmp_path):
        ram, mapped = self.roundtrip(tmp_path)
        assert np.array_equal(ram.indptr, mapped.indptr)
        assert np.array_equal(ram.indices, mapped.indices)
        assert np.array_equal(ram.loops, mapped.loops)
        assert ram.indices.dtype == mapped.indices.dtype  # int32 survives
        assert ram.vertices == mapped.vertices
        assert not mapped.indices.flags.writeable
        assert ram.total_volume == mapped.total_volume
        assert ram.num_edges == mapped.num_edges

    def test_peeled_views_identical_over_mmap_base(self, tmp_path):
        ram, mapped = self.roundtrip(tmp_path)
        subset = list(range(0, ram.n, 2)) + [1]
        assert_views_identical(
            PeeledCSR.for_subset(ram, subset), PeeledCSR.for_subset(mapped, subset)
        )

    def test_compaction_identical_over_mmap_base(self, tmp_path):
        ram, mapped = self.roundtrip(tmp_path)
        subset = list(range(ram.n // 3))
        compacted = [
            maybe_compact(PeeledCSR.for_subset(base, subset))
            for base in (ram, mapped)
        ]
        # the 2x rule must fire: views shrank far below the index space
        assert all(c.base is not ram and c.base is not mapped for c in compacted)
        assert_views_identical(*compacted)
        a, b = (c.base for c in compacted)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.indices.dtype == b.indices.dtype


class TestPowerLawCSRGenerator:
    @pytest.mark.parametrize("n", [50, 200, 333])
    def test_matches_dict_generator_edge_for_edge(self, n):
        csr = power_law_csr(n, seed=13)
        dict_twin = power_law_graph(n, seed=13)
        back = csr.to_graph()
        assert set(back.vertices()) == set(dict_twin.vertices())
        for v in dict_twin.vertices():
            assert back.neighbors(v) == dict_twin.neighbors(v)
            assert back.self_loops(v) == dict_twin.self_loops(v)

    def test_auto_dtype_applies(self, monkeypatch):
        csr = power_law_csr(120, seed=5)
        assert csr.indices.dtype == np.int32
        monkeypatch.setattr(csr_backend, "INDEX32_LIMIT", 0)
        assert power_law_csr(120, seed=5).indices.dtype == np.int64
