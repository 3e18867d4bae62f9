"""No Nibble, sparse-cut or decomposition path walks, sweeps or induces a dict graph.

Every working graph is a :class:`~repro.graphs.peel.PeeledCSR` view,
every ParallelNibble batch runs on one (lockstep rows or workspace
walks), and a single ``nibble`` / ``approximate_nibble`` call runs on its
input's view whatever the input's type.  The dict walk, the dict scan
and sweep, ``G{U}`` as a dict graph and the dict Remove-j stay in the
library only as the reference the tests compare against (and, for the
scan, the CONGEST program).  This guard makes each of them raise, then
drives dict-graph Nibble calls, a dict-hosted decomposition and a small
dict-graph sparse cut through the whole pipeline: none may touch them.
"""

import importlib
from contextlib import nullcontext

import pytest

from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs.generators import ring_of_cliques
from diffharness import precheck_off
from repro.graphs.graph import Graph
from repro.nibble.nibble import approximate_nibble, nibble
from repro.nibble.parameters import NibbleParameters
from repro.walks import lazy_walk

# By module path: ``repro.nibble`` re-exports a function named ``nibble``.
nibble_module = importlib.import_module("repro.nibble.nibble")
sweep_module = importlib.import_module("repro.nibble.sweep")


class DictPathTouched(AssertionError):
    """A pipeline path reached the dict engine."""


@pytest.fixture
def dict_engine_forbidden(monkeypatch):
    def forbidden(name):
        def trap(*args, **kwargs):
            raise DictPathTouched(name)

        return trap

    monkeypatch.setattr(lazy_walk, "truncated_walk_step", forbidden("walk"))
    monkeypatch.setattr(nibble_module, "scan_walk_sequence", forbidden("scan"))
    monkeypatch.setattr(nibble_module, "build_sweep", forbidden("sweep"))
    monkeypatch.setattr(sweep_module, "build_sweep", forbidden("sweep"))
    for method in ("induced_with_loops", "copy", "remove_edge_with_loops"):
        monkeypatch.setattr(Graph, method, forbidden(method))


def test_the_guard_bites(dict_engine_forbidden):
    """The dict reference, called directly, must trip the guard."""
    graph = ring_of_cliques(2, 5)
    params = NibbleParameters.practical(graph, 0.1)
    with pytest.raises(DictPathTouched):
        list(lazy_walk.truncated_walk_iter(graph, (0, 0), params.t0, 1e-4))
    with pytest.raises(DictPathTouched):
        nibble_module.scan_walk_sequence(graph, [], 1, params, (0, 0))
    with pytest.raises(DictPathTouched):
        sweep_module.build_sweep(graph, {(0, 0): 1.0})
    with pytest.raises(DictPathTouched):
        graph.induced_with_loops([(0, 0), (0, 1)])


@pytest.mark.parametrize("fn", [nibble, approximate_nibble])
def test_dict_graph_nibble(dict_engine_forbidden, fn):
    graph = ring_of_cliques(2, 5)
    params = NibbleParameters.practical(graph, 0.1)
    cut = fn(graph, (0, 0), 1, params)
    assert cut is not None and len(cut.vertices) == 5


def test_dict_hosted_decomposition(dict_engine_forbidden):
    result = expander_decomposition(ring_of_cliques(6, 8), 0.1, 0.1, seed=1)
    assert len(result.components) == 6
    assert result.certified_fraction == 1.0


@pytest.mark.parametrize("scope", [nullcontext, precheck_off], ids=["fast", "nofast"])
def test_ten_vertex_dict_sparse_cut(dict_engine_forbidden, scope):
    graph = ring_of_cliques(2, 5)
    assert graph.num_vertices == 10
    with scope():
        found = nearly_most_balanced_sparse_cut(graph, 0.1, seed=1)
    assert len(found.cut) == 5
