"""Record, or check, the frozen oracle signatures of the differential matrix.

``oracle_signatures.json`` holds, for every generator family of
:func:`diffharness.generator_families`, what the pipeline produced with
every working graph, batch and Remove-j on the dict engine — the oracle
the matrix compared every configuration against while that engine was
still part of the pipeline.  Per family and per pre-check setting it
keeps the decomposition (component sets with their certification flags
and estimates, the removed-edge multiset, the caller's RNG post-state,
the round total) and the sparse-cut harvest (cut, conductance, balance,
cut size, certificate, batch count, RNG post-state, round total).  It
also keeps the sparse cut of every random graph of the balance harness
(:func:`harness_graphs`) at each of :data:`HARNESS_PHIS`.
Floats are stored with :meth:`float.hex`, so a comparison is exact.

The committed file was recorded by this script on the commit before the
dict working graphs left the pipeline, with the engine's size threshold
raised above every family's size so that every working graph ran on the
dict engine.  The pre-check was then a ``fast_path`` parameter; the keys
keep its name (:func:`oracle_key`), and the ``fast_path=False`` entries
are now re-recorded under :func:`diffharness.precheck_off`.
:func:`diffharness.assert_pipeline_identical` checks every matrix cell
against it, so the pipeline is still checked against output that code
other than itself produced.  Usage, from the root of a checkout::

    PYTHONPATH=src python tests/differential/oracle_fixture.py --check

``--check`` re-records from the pipeline as it stands and exits non-zero
unless that reproduces the file exactly; without it the file is
rewritten.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs.generators import erdos_renyi_graph

FIXTURE = Path(__file__).with_name("oracle_signatures.json")

#: The arguments every recorded run uses (the matrix's defaults).
SEED, EPSILON, PHI = 7, 0.2, 0.1

#: The conductance targets the balance harness's random graphs run at.
HARNESS_PHIS = (0.15, 0.3)


def harness_graphs():
    """``(seed, graph)`` for the balance harness's random graphs.

    The same draws as ``small_random_graphs`` in
    ``tests/test_balance_harness.py``: G(n, 0.3) with n ≤ 16, edgeless
    draws skipped.  Each is cut with its own ``seed``.
    """
    graphs = []
    for seed in range(14):
        g = erdos_renyi_graph(10 + seed % 7, 0.3, seed=seed)
        if g.num_edges > 0:
            graphs.append((seed, g))
    return graphs


def harness_key(seed: int, phi: float) -> str:
    """The fixture key of one balance-harness sparse cut."""
    return f"harness/seed={seed}/phi={phi}"


def exact(value):
    """A float as its hex string (exact and JSON-safe); anything else as is."""
    return float.hex(value) if isinstance(value, float) else value


def oracle_key(name: str, precheck: bool) -> str:
    """The fixture key of one family's records with the pre-check on or off."""
    return f"{name}/fast_path={precheck}"


def labels(vertices) -> list[str]:
    """A vertex set as its sorted label ``repr``\\ s."""
    return sorted(map(repr, vertices))


def decomposition_record(result, rng_state) -> dict:
    """Everything output-relevant about one decomposition, JSON-ready."""
    edges = Counter(tuple(labels(edge)) for edge in result.cut_edges)
    return {
        "components": sorted(
            [labels(c.vertices), c.certified, exact(c.conductance_estimate)]
            for c in result.components
        ),
        "cut_edges": sorted([list(edge), count] for edge, count in edges.items()),
        "rng_state": rng_state,
        "rounds": exact(result.report.total_rounds),
    }


def sparse_cut_record(result, rng_state) -> dict:
    """Everything output-relevant about one sparse-cut harvest, JSON-ready."""
    return {
        "cut": labels(result.cut),
        "conductance": exact(result.conductance),
        "balance": exact(result.balance),
        "cut_size": result.cut_size,
        "certified_no_cut": result.certified_no_cut,
        "batches": result.batches,
        "rng_state": rng_state,
        "rounds": exact(result.report.total_rounds),
    }


def record() -> dict:
    """Run every family through both stages, pre-check on and off, and
    every balance-harness graph through the sparse cut."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from diffharness import generator_families, precheck_off

    out: dict = {"seed": SEED, "epsilon": exact(EPSILON), "phi": exact(PHI)}
    for name, graph in generator_families():
        for precheck in (True, False):
            with nullcontext() if precheck else precheck_off():
                rng = np.random.default_rng(SEED)
                result = expander_decomposition(graph, EPSILON, PHI, seed=rng)
                decomposition = decomposition_record(result, rng.bit_generator.state)
                rng = np.random.default_rng(SEED)
                cut = nearly_most_balanced_sparse_cut(graph, PHI, seed=rng)
            out[oracle_key(name, precheck)] = {
                "decomposition": decomposition,
                "sparse_cut": sparse_cut_record(cut, rng.bit_generator.state),
            }
    for seed, graph in harness_graphs():
        for phi in HARNESS_PHIS:
            rng = np.random.default_rng(seed)
            cut = nearly_most_balanced_sparse_cut(graph, phi, seed=rng)
            out[harness_key(seed, phi)] = sparse_cut_record(
                cut, rng.bit_generator.state
            )
    return out


def load() -> dict:
    """The committed fixture."""
    return json.loads(FIXTURE.read_text())


def dump(signatures: dict) -> str:
    """The fixture's canonical text."""
    return json.dumps(signatures, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh recording with the committed file instead of writing",
    )
    args = parser.parse_args(argv)
    text = dump(record())
    if args.check:
        if text != FIXTURE.read_text():
            print(f"{FIXTURE.name}: the pipeline no longer reproduces the fixture")
            return 1
        print(f"{FIXTURE.name}: reproduced exactly")
        return 0
    FIXTURE.write_text(text)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
