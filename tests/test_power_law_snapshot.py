"""``power_law_csr`` builds the same snapshot, byte for byte, as it always has.

The generator's tail (collapsing parallel pairs and filling the rows) may be
rewritten for speed, but every array it returns — ``indptr``, ``indices``,
``loops`` — must keep its bytes and its dtype, and the labels must stay
``0 .. n-1``: benchmark inputs, journal keys and frozen signatures all
start from these snapshots.

``tests/data/power_law_csr/digests.json`` holds one SHA-256 digest per
configuration, written by the ``np.unique`` + ``lexsort`` build
(``python tests/test_power_law_snapshot.py <file>`` run against that
code).  Writing it again with the current code would only re-pin the
current build, so it is never rewritten.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.graphs import csr as csr_backend
from repro.graphs.generators import power_law_csr

FIXTURE = Path(__file__).resolve().parent / "data" / "power_law_csr" / "digests.json"

SIZES = (1, 2, 3, 5, 17, 100, 1000, 5000)
EXPONENTS = (1.5, 2.0, 2.5, 3.0)
MAX_DEGREES = (None, 1, 2, 7)
SEEDS = tuple(range(6))
# Snapshots built with INDEX32_LIMIT = 0, so every index array is int64.
WIDE_SIZES = (1, 17, 1000, 5000)


def snapshot_digest(graph) -> str:
    """SHA-256 over each array's dtype and bytes, then the labels."""
    digest = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.loops):
        digest.update(array.dtype.str.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    digest.update(repr(list(graph.vertices)).encode())
    return digest.hexdigest()


def config_key(n, exponent, max_degree, seed, wide=False) -> str:
    return f"n={n} exponent={exponent} max_degree={max_degree} seed={seed}" + (
        " int64" if wide else ""
    )


def configurations():
    """Every ``(n, exponent, max_degree, seed, wide)`` the fixture pins."""
    for n, exponent, max_degree, seed in itertools.product(
        SIZES, EXPONENTS, MAX_DEGREES, SEEDS
    ):
        yield n, exponent, max_degree, seed, False
    for exponent, seed in itertools.product(EXPONENTS, SEEDS[:2]):
        yield 0, exponent, None, seed, False
    for n, exponent in itertools.product(WIDE_SIZES, EXPONENTS):
        yield n, exponent, None, 0, True


def build(n, exponent, max_degree, seed, wide):
    if not wide:
        return power_law_csr(n, exponent=exponent, seed=seed, max_degree=max_degree)
    previous = csr_backend.INDEX32_LIMIT
    csr_backend.INDEX32_LIMIT = 0
    try:
        return power_law_csr(n, exponent=exponent, seed=seed, max_degree=max_degree)
    finally:
        csr_backend.INDEX32_LIMIT = previous


def write_fixture(target: Path) -> None:
    digests = {config_key(*config): snapshot_digest(build(*config)) for config in configurations()}
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_configuration(expected):
    assert sorted(expected) == sorted(config_key(*config) for config in configurations())


@pytest.mark.parametrize("n", SIZES)
def test_snapshots_are_byte_identical(expected, n):
    mismatched = [
        config_key(*config)
        for config in configurations()
        if config[0] == n and not config[4]
        and snapshot_digest(build(*config)) != expected[config_key(*config)]
    ]
    assert mismatched == []


def test_empty_snapshots_are_byte_identical(expected):
    for config in configurations():
        if config[0] == 0 and not config[4]:
            graph = build(*config)
            assert graph.n == 0 and len(graph.indptr) == 1
            assert snapshot_digest(graph) == expected[config_key(*config)]


def test_int64_snapshots_are_byte_identical(expected):
    for config in configurations():
        if config[4]:
            graph = build(*config)
            assert graph.indptr.dtype == graph.indices.dtype == "int64"
            assert snapshot_digest(graph) == expected[config_key(*config)]


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
