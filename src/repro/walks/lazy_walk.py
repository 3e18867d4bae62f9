"""Lazy random walks and their truncated variants (paper Appendix A).

The Nibble family works with the sequence

    p̃_0 = χ_v,      p̃_t = [M p̃_{t-1}]_{ε_b}

where ``M = (A D^{-1} + I) / 2`` is the lazy walk matrix and ``[p]_ε`` zeroes
any entry below ``2 ε deg(x)``.  Everything here operates on sparse
dictionaries (vertex -> mass) rather than dense vectors: the whole point of
the truncation is that the walk's support stays local (Lemma 3), and the
sparse representation is what makes the distributed implementation's
congestion argument meaningful.

This is the *reference* engine.  The vectorized twin in
:mod:`repro.graphs.csr` evaluates the same IEEE expressions in the same
canonical accumulation order (ascending ``repr``-sorted vertex order), so
the two engines produce bit-identical walk vectors; handing
:func:`repro.nibble.nibble.nibble` a ``CSRGraph`` instead of a ``Graph``
switches the hot path over without changing any output.
"""

from __future__ import annotations

from typing import Mapping

from ..graphs.graph import Graph, Vertex

MassVector = dict[Vertex, float]


def point_mass(vertex: Vertex) -> MassVector:
    """χ_v: all probability mass on one vertex."""
    return {vertex: 1.0}


def lazy_walk_step(graph: Graph, p: Mapping[Vertex, float]) -> MassVector:
    """One step of the lazy random walk: return ``M p``.

    Self loops keep their probability share at the vertex, matching the
    degree convention of G{S}.

    Mass is accumulated in a canonical order — incoming shares summed over
    sources in ascending ``repr`` order, the self-retained share added last
    — which is exactly the order the vectorized CSR kernel
    (:meth:`repro.graphs.csr.WalkWorkspace.truncated_step`) uses, so the
    two backends produce bit-identical vectors.  (Floating-point addition
    is not associative; without a pinned order the backends would drift by
    ULPs and could break sweep ties differently.)
    """
    # Internal adjacency access (no per-vertex set copies, no method
    # dispatch): this loop is the dict backend's hottest code.  The
    # accumulation order is fixed by the outer sort alone — each target
    # receives exactly one share per source — so touching `_adj` directly
    # cannot change a single bit of the result.
    adj = graph._adj
    loops = graph._loops
    incoming: MassVector = {}
    keep: MassVector = {}
    get = incoming.get
    for v, mass in sorted(p.items(), key=lambda item: repr(item[0])):
        if mass <= 0.0:
            continue
        neighbors = adj[v]
        self_loops = loops[v]
        deg = len(neighbors) + self_loops
        if deg == 0:
            keep[v] = mass
            continue
        keep[v] = mass * (0.5 + 0.5 * self_loops / deg)
        share = mass / (2.0 * deg)
        for u in neighbors:
            incoming[u] = get(u, 0.0) + share
    result: MassVector = incoming
    for v, mass in keep.items():
        result[v] = result.get(v, 0.0) + mass
    return result


def truncate(graph: Graph, p: Mapping[Vertex, float], epsilon: float) -> MassVector:
    """[p]_ε: zero every entry with ``p(x) < 2 ε deg(x)``."""
    adj = graph._adj
    loops = graph._loops
    threshold = 2.0 * epsilon
    return {
        v: mass
        for v, mass in p.items()
        if mass >= threshold * (len(adj[v]) + loops[v]) and mass > 0.0
    }


def truncated_walk_step(graph: Graph, p: Mapping[Vertex, float], epsilon: float) -> MassVector:
    """One truncated lazy walk step: ``[M p]_ε``."""
    return truncate(graph, lazy_walk_step(graph, p), epsilon)


def truncated_walk_sequence(
    graph: Graph, start: Vertex, steps: int, epsilon: float
) -> list[MassVector]:
    """The sequence p̃_0, ..., p̃_steps from a point mass at ``start``.

    Stepping stops early in two output-identical cases: when all mass falls
    below the truncation threshold (the rest of the sequence is identically
    zero) and when a step reproduces its predecessor bit-for-bit (the walk
    reached its IEEE fixpoint — on small well-mixed components this happens
    in a fraction of ``t0`` steps).  Either way the returned list still has
    ``steps + 1`` entries, padded with the terminal vector, so consumers
    that index by time (the CONGEST parity tests, the sweep scans) see the
    exact sequence a full run would produce.
    """
    if start not in graph:
        raise KeyError(f"start vertex {start!r} not in graph")
    sequence = [point_mass(start)]
    current = sequence[0]
    for _ in range(steps):
        previous = current
        current = truncated_walk_step(graph, current, epsilon)
        sequence.append(current)
        if not current:
            # All mass fell below the truncation threshold; the rest of the
            # sequence is identically zero, no need to keep stepping.
            remaining = steps - (len(sequence) - 1)
            sequence.extend({} for _ in range(remaining))
            break
        if current == previous:
            # Truncated fixpoint: every later vector equals this one.
            remaining = steps - (len(sequence) - 1)
            sequence.extend(current for _ in range(remaining))
            break
    return sequence


def truncated_walk_iter(graph: Graph, start: Vertex, steps: int, epsilon: float):
    """Lazily yield p̃_0, ..., p̃_steps, one vector per consumer request.

    The generator twin of :func:`truncated_walk_sequence`: identical vectors
    in identical order, but a step is computed only when the consumer asks
    for it, so certification scans that stop early (zero mass or the IEEE
    fixpoint) skip the remaining walk steps entirely.  No terminal padding is produced — time-indexed
    consumers (the CONGEST parity tests) keep using the list variant.
    """
    if start not in graph:
        raise KeyError(f"start vertex {start!r} not in graph")
    current = point_mass(start)
    yield current
    for _ in range(steps):
        current = truncated_walk_step(graph, current, epsilon)
        yield current
        if not current:
            return


def support(p: Mapping[Vertex, float]) -> set[Vertex]:
    """Vertices carrying strictly positive mass."""
    return {v for v, mass in p.items() if mass > 0.0}
