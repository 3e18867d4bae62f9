"""Journals written before subtrees carried index arrays still replay.

The recursion once carried each subtree as a set of vertex labels and
derived its journal key as ``(depth, component_stream_key(smallest
repr), size)`` from that set.  It now carries sorted index arrays and
takes the smallest ``repr`` from a rank computed once per run; the keys
must not move, or a journal written before the change would silently
re-run instead of resuming.

``tests/data/journal_compat/`` was written by the label-set recursion
(``python tests/test_journal_compat.py <dir>`` run against that code):
for each scenario, the set of keys a full run records and a journal of a
run killed part-way.  Writing the fixture again with the current code
would only re-pin the current keys, so it is never rewritten.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro.decomposition import expander_decomposition
from repro.graphs.generators import power_law_csr, ring_of_cliques
from repro.graphs.graph import Graph
from repro.resilience import RunJournal

FIXTURE = Path(__file__).resolve().parent / "data" / "journal_compat"
KILL_AFTER = 4


def relabeled_ring() -> Graph:
    """A ring of cliques with shuffled integer labels (repr ≠ numeric order)."""
    ring = ring_of_cliques(6, 6)
    order = sorted(ring.vertices())
    label = dict(zip(order, np.random.default_rng(5).permutation(len(order)).tolist()))
    graph = Graph()
    for v in order:
        graph.add_vertex(label[v])
    for u, v in ring.edges():
        graph.add_edge(label[u], label[v])
    return graph


SCENARIOS = {
    "ring": (relabeled_ring, {"epsilon": 0.1, "phi": 0.1, "seed": 3}),
    "powerlaw": (
        lambda: power_law_csr(600, exponent=2.0, seed=5),
        {
            "epsilon": 0.2,
            "phi": 0.01,
            "seed": 3,
            "max_depth": 4,
            "sparse_cut_kwargs": {"num_instances": 4, "params_overrides": {"max_t0": 60}},
        },
    ),
}


class _Kill(KeyboardInterrupt):
    pass


def kill_after(threshold):
    def callback(done):
        if done >= threshold:
            raise _Kill

    return callback


def signature(result):
    return (
        [
            (sorted(map(repr, c.vertices)), c.certified, c.conductance_estimate, c.level)
            for c in result.components
        ],
        [tuple(map(repr, e)) for e in result.cut_edges],
        result.report.total_rounds,
        result.precheck_skips,
    )


def journal_keys(journal: RunJournal) -> list:
    return sorted(list(key) for key in journal.keys())


def write_fixture(target: Path) -> None:
    """Record every scenario's full-run keys and a killed run's journal."""
    for name, (make, kwargs) in SCENARIOS.items():
        with RunJournal(target / name / "full") as journal:
            expander_decomposition(make(), journal=journal, **kwargs)
            keys = journal_keys(journal)
        shutil.rmtree(target / name / "full")
        (target / name / "keys.json").write_text(json.dumps(keys))
        try:
            with RunJournal(target / name / "killed") as journal:
                expander_decomposition(
                    make(), journal=journal, on_progress=kill_after(KILL_AFTER), **kwargs
                )
        except _Kill:
            pass


class TestJournalCompat:
    def test_full_run_records_the_same_keys(self, tmp_path):
        for name, (make, kwargs) in SCENARIOS.items():
            with RunJournal(tmp_path / name) as journal:
                expander_decomposition(make(), journal=journal, **kwargs)
                keys = journal_keys(journal)
            expected = json.loads((FIXTURE / name / "keys.json").read_text())
            assert keys == expected, name

    def test_killed_journal_resumes_unchanged(self, tmp_path):
        for name, (make, kwargs) in SCENARIOS.items():
            expected = signature(expander_decomposition(make(), **kwargs))
            shutil.copytree(FIXTURE / name / "killed", tmp_path / name)
            with RunJournal(tmp_path / name) as journal:
                written = set(journal.keys())
                assert written  # the killed run finished some subtrees
                resumed = expander_decomposition(make(), journal=journal, **kwargs)
                keys = journal_keys(journal)
            assert signature(resumed) == expected, name
            # resuming re-ran nothing the killed run had finished: every key
            # it added is one the full run records, and none is re-recorded
            assert keys == json.loads((FIXTURE / name / "keys.json").read_text()), name
            assert written <= {tuple(key) for key in keys}, name


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]))
