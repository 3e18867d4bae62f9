"""The configuration matrix: full pipelines, every configuration, bit-identical.

This module hosts the parity contract that used to be split across
``tests/test_csr.py::TestPipelineParity`` and ``tests/test_fast_path.py``'s
``TestDecompositionParity`` / ``TestSparseCutParity`` — every pinned case
from those classes lives on here, now driven through the shared
:mod:`diffharness` matrix, which checks both batch kernels, int32
storage, and memory-mapped snapshots against the frozen dict-oracle
signatures.
"""

from contextlib import nullcontext

import pytest

from diffharness import (
    CORE_MATRIX,
    LOCKSTEP_ALL,
    MATRIX,
    assert_pipeline_identical,
    decomposition_signature,
    generator_families,
    kernel_budget,
    precheck_off,
)
from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from oracle_fixture import (
    EPSILON,
    HARNESS_PHIS,
    PHI,
    SEED,
    harness_graphs,
    harness_key,
    load,
    oracle_key,
    sparse_cut_record,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.generators import ring_of_cliques
from repro.utils.rng import ensure_rng

FAMILIES = generator_families()


class TestBackendMatrix:
    # The four benchmark families get the full matrix (the contract the
    # bench timings and migrated suites stand on); the broader structural
    # families get the axis-covering core matrix, which keeps the suite's
    # runtime linear in coverage rather than quadratic.
    @pytest.mark.parametrize("name,graph", FAMILIES[:4], ids=[n for n, _ in FAMILIES[:4]])
    def test_benchmark_family_identical_across_full_matrix(self, name, graph):
        assert_pipeline_identical(graph, label=name)

    @pytest.mark.parametrize("name,graph", FAMILIES[4:], ids=[n for n, _ in FAMILIES[4:]])
    def test_extra_family_identical_across_core_matrix(self, name, graph):
        assert_pipeline_identical(
            graph, label=name, configs=CORE_MATRIX, sparse_cut=False
        )

    def test_matrix_covers_every_axis(self):
        """The matrix must keep exercising every axis the kernels expose —
        losing a cell here silently weakens every test above."""
        # kernel column: lockstep rows only, workspace walks only, and the
        # default budget rule
        assert {c.kernel_budget for c in MATRIX} == {LOCKSTEP_ALL, 0, None}
        assert {c.kernel_budget for c in CORE_MATRIX} >= {LOCKSTEP_ALL, 0}
        assert {c.index_dtype for c in MATRIX} == {"int32", "int64"}
        assert {c.index_dtype for c in CORE_MATRIX} == {"int32", "int64"}
        assert {c.precheck for c in MATRIX} == {True, False}
        assert not all(c.precheck for c in CORE_MATRIX)
        assert any(c.mmap for c in MATRIX)
        # component scheduling: the permuted-sibling column must stay in
        # both matrices, or scheduling-invariance loses its standing check
        assert {c.scheduler for c in MATRIX} == {"inline", "permuted"}
        assert any(c.scheduler == "permuted" for c in CORE_MATRIX)
        # the frozen oracle covers every family in both pre-check groups,
        # recorded with the arguments the matrix runs
        oracle = load()
        assert (oracle["seed"], oracle["epsilon"], oracle["phi"]) == (
            SEED,
            EPSILON.hex(),
            PHI.hex(),
        )
        for name, _ in FAMILIES:
            for precheck in (True, False):
                assert oracle_key(name, precheck) in oracle


class TestBalanceHarnessOracle:
    """The balance harness's random graphs (n ≤ 16), cut under each kernel
    budget and from each input type, against the frozen dict-oracle cuts."""

    @pytest.mark.parametrize(
        "budget", [0, None, LOCKSTEP_ALL], ids=["workspace", "default", "lockstep"]
    )
    @pytest.mark.parametrize("wrap", [None, CSRGraph.from_graph], ids=["dict", "csr"])
    def test_harness_cuts_match_the_frozen_oracle(self, budget, wrap):
        oracle = load()
        for seed, graph in harness_graphs():
            graph = wrap(graph) if wrap else graph
            for phi in HARNESS_PHIS:
                rng = ensure_rng(seed)
                with kernel_budget(budget):
                    cut = nearly_most_balanced_sparse_cut(graph, phi, seed=rng)
                got = sparse_cut_record(cut, rng.bit_generator.state)
                assert got == oracle[harness_key(seed, phi)], (seed, phi)


class TestMigratedDecompositionParity:
    """Cases carried over from tests/test_fast_path.py::TestDecompositionParity."""

    def test_fast_path_identical_on_larger_ring(self):
        g = ring_of_cliques(20, 16)
        kwargs = dict(
            seed=11,
            sparse_cut_kwargs={"num_instances": 6, "params_overrides": {"max_t0": 150}},
        )
        on = expander_decomposition(g, 0.1, 0.1, **kwargs)
        with precheck_off():
            off = expander_decomposition(g, 0.1, 0.1, **kwargs)
        assert decomposition_signature(on) == decomposition_signature(off)
        assert on.certified_fraction == 1.0


class TestMigratedSparseCutParity:
    """Cases carried over from tests/test_csr.py::TestPipelineParity and
    tests/test_fast_path.py::TestSparseCutParity.

    The dict-vs-csr cut/batches parity and the pre-check on/off sparse-cut
    parity those classes pinned are strictly subsumed by the matrix test
    above (``assert_pipeline_identical`` harvests a sparse cut under every
    configuration, including both pre-check groups, on every family).
    What stays here is the clique-specific behaviour the matrix cannot
    see: pre-check observability and the skipped-batch stream burn."""

    def test_precheck_skips_batches_on_expander(self):
        """On a clique every batch is a guaranteed failure: the pre-check
        must fire immediately and skip all of them."""
        g = Graph()
        for i in range(12):
            for j in range(i + 1, 12):
                g.add_edge(i, j)
        result = nearly_most_balanced_sparse_cut(g, 0.1, seed=5)
        assert result.certified_no_cut
        assert result.precheck_skips == result.batches > 0
        assert result.spectral is not None and result.spectral.solver == "dense"
        with precheck_off():
            off = nearly_most_balanced_sparse_cut(g, 0.1, seed=5)
        assert off.precheck_skips == 0
        assert off.batches == result.batches

    def test_skipped_batches_leave_rng_stream_identical(self):
        """The burn replays exactly the draws the skipped batches would
        have made, so a draw taken *after* the call matches on/off."""
        g = Graph()
        for i in range(10):
            for j in range(i + 1, 10):
                g.add_edge(i, j)
        states = []
        for scope in (nullcontext, precheck_off):
            rng = ensure_rng(123)
            with scope():
                result = nearly_most_balanced_sparse_cut(g, 0.1, seed=rng)
            assert result.certified_no_cut
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]
