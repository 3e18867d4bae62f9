"""Batched harvest application ≡ immediate removal, bitwise, on every family.

On the peeled engine ``nearly_most_balanced_sparse_cut`` applies a batch's
harvested cuts in one union :meth:`PeeledCSR.peel`.  The exactness
argument lives on the ``_PeelWork`` docstring in
:mod:`repro.decomposition.sparse_cut`: harvested cuts are pairwise
disjoint, peeling is degree-preserving on survivors, and ``peel`` is
path-independent — so the union peel is bit-equal to removing each cut as
it lands, which is what the dict oracle (``_DictWork``) does.  This suite
*checks* that argument differentially: the CSR engine against the dict
oracle, every generator family, full pipeline, identical signatures, RNG
post-states, and round totals.
"""

import numpy as np
import pytest

from diffharness import (
    DICT_ONLY,
    decomposition_signature,
    engine_threshold,
    generator_families,
)
from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)

FAMILIES = generator_families()


def run_decomposition(graph, threshold, seed=7):
    rng = np.random.default_rng(seed)
    with engine_threshold(threshold):
        result = expander_decomposition(graph, 0.2, 0.1, seed=rng)
    return (
        decomposition_signature(result),
        result.report.total_rounds,
        rng.bit_generator.state,
    )


def run_cut(graph, threshold, seed=7):
    rng = np.random.default_rng(seed)
    with engine_threshold(threshold):
        result = nearly_most_balanced_sparse_cut(graph, 0.1, seed=rng)
    return (
        result.cut,
        result.conductance,
        result.balance,
        result.cut_size,
        result.certified_no_cut,
        result.batches,
        result.report.total_rounds,
        rng.bit_generator.state,
    )


@pytest.fixture(params=[n for n, _ in FAMILIES])
def family(request):
    return dict(FAMILIES)[request.param]


class TestBatchedPeelParity:
    def test_decomposition_bitwise_equal(self, family):
        assert run_decomposition(family, 0) == run_decomposition(family, DICT_ONLY)

    def test_sparse_cut_bitwise_equal(self, family):
        assert run_cut(family, 0) == run_cut(family, DICT_ONLY)
