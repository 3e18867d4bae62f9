"""The decomposition's ``repr`` rank, integer keys and string sort alike.

``expander._repr_rank`` gives every host label its place in ``repr`` order
(equal ``repr``\\ s share a place); the canonical piece order and every
stream and journal key come from it.  Labels that are all exactly ``int``
with |v| < 10¹⁷ are ranked by integer keys (``_int_repr_keys``) instead of
their strings.  These tests hold both paths to a ``repr``-sort oracle on the
inputs where integer keys could go wrong: signs, zero, digit-count
boundaries, the 10¹⁷ limit, values past int64, ``bool`` and numpy integers
(whose ``repr``\\ s differ from the int's), and labels of other types.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition.expander import _int_repr_keys, _repr_rank


def oracle(labels: list) -> list[int]:
    """Dense rank of each label's ``repr`` among the distinct ``repr``\\ s."""
    reprs = [repr(v) for v in labels]
    place = {s: k for k, s in enumerate(sorted(set(reprs)))}
    return [place[s] for s in reprs]


def check(labels: list) -> None:
    assert _repr_rank(labels).tolist() == oracle(labels)


#: Integers on both sides of every digit-count step up to the key's limit.
BOUNDARY = sorted(
    {sign * (10**k + delta) for k in range(18) for delta in (-1, 0, 1) for sign in (1, -1)}
)


def test_signs_zero_and_digit_boundaries():
    labels = [0, -1, 1, 10, -10, 9, -9, 100, 2, 19, 1, 0] + BOUNDARY
    check(labels)
    assert _int_repr_keys([v for v in labels if abs(v) < 10**17]) is not None


@pytest.mark.parametrize(
    "outlier", [10**17 - 1, 10**17, -(10**17), 2**63 - 1, 2**63, -(2**63) - 1, 10**30]
)
def test_limit_and_values_past_int64(outlier):
    labels = [5, -3, 0, 99, outlier, 12]
    check(labels)
    takes_keys = abs(outlier) < 10**17
    assert (_int_repr_keys(labels) is not None) == takes_keys


def test_bools_beside_ints_take_the_string_sort():
    labels = [True, 1, False, 0, 2, True]
    assert _int_repr_keys(labels) is None
    check(labels)
    rank = _repr_rank(labels)
    # 'True' and '1' are different reprs, so the bool and the int differ.
    assert rank[0] != rank[1] and rank[2] != rank[3] and rank[0] == rank[5]


def test_numpy_integers_take_the_string_sort():
    labels = [np.int64(v) for v in (3, -20, 100, 7, 3)]
    assert _int_repr_keys(labels) is None
    check(labels)
    check(labels + [4, 5])


def test_strings_tuples_and_mixed_types():
    check(["b", "a", "10", "9", "", "a"])
    check([(1, 2), (1, 10), (0,), (1, 2)])
    check([3, "3", (3,), 3.0, None, -1])


class SameRepr:
    def __init__(self, tag):
        self.tag = tag

    def __repr__(self) -> str:
        return "Same"


def test_distinct_objects_sharing_a_repr_share_a_rank():
    labels = [SameRepr(1), "Same", SameRepr(2), "A", "Z"]
    check(labels)
    rank = _repr_rank(labels)
    assert rank[0] == rank[2]


def test_empty_and_single():
    assert _repr_rank([]).tolist() == []
    check([7])
    check([-(10**16)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-(10**18), max_value=10**18), max_size=60))
def test_random_ints_match_the_oracle(labels):
    check(labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(BOUNDARY) | st.integers(-1000, 1000), max_size=60))
def test_random_boundary_ints_match_the_oracle(labels):
    check(labels)
