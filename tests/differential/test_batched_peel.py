"""Batched harvest application ≡ immediate removal, bitwise, on every family.

``nearly_most_balanced_sparse_cut`` applies a batch's harvested cuts in
one union :meth:`PeeledCSR.peel`.  The exactness argument is the comment
at that union peel in ``sparse_cut_search``
(:mod:`repro.decomposition.sparse_cut`):
harvested cuts are pairwise disjoint, peeling is degree-preserving on
survivors, and ``peel`` is path-independent — so the union peel is
bit-equal to removing each cut as it lands, which is what the dict
oracle did.  This suite *checks* that argument differentially: under
both batch kernels, every generator family, full pipeline, the
signatures, RNG post-states and round totals must equal the frozen
dict-oracle records (``oracle_signatures.json``).
"""

import numpy as np
import pytest

from diffharness import (
    LOCKSTEP_ALL,
    generator_families,
    kernel_budget,
)
from oracle_fixture import (
    EPSILON,
    PHI,
    SEED,
    decomposition_record,
    load,
    oracle_key,
    sparse_cut_record,
)
from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)

FAMILIES = generator_families()
ORACLE = load()


def run_decomposition(graph, budget):
    rng = np.random.default_rng(SEED)
    with kernel_budget(budget):
        result = expander_decomposition(graph, EPSILON, PHI, seed=rng)
    return decomposition_record(result, rng.bit_generator.state)


def run_cut(graph, budget):
    rng = np.random.default_rng(SEED)
    with kernel_budget(budget):
        result = nearly_most_balanced_sparse_cut(graph, PHI, seed=rng)
    return sparse_cut_record(result, rng.bit_generator.state)


@pytest.fixture(params=[n for n, _ in FAMILIES])
def family(request):
    return request.param, dict(FAMILIES)[request.param]


class TestBatchedPeelParity:
    def test_decomposition_bitwise_equal(self, family):
        name, graph = family
        expected = ORACLE[oracle_key(name, True)]["decomposition"]
        for budget in (0, LOCKSTEP_ALL):
            assert run_decomposition(graph, budget) == expected, (name, budget)

    def test_sparse_cut_bitwise_equal(self, family):
        name, graph = family
        expected = ORACLE[oracle_key(name, True)]["sparse_cut"]
        for budget in (0, LOCKSTEP_ALL):
            assert run_cut(graph, budget) == expected, (name, budget)
