"""Nibble and ApproximateNibble (paper Appendix A / Spielman–Teng 2004).

Both algorithms run the truncated lazy random walk

    p̃_0 = χ_v,      p̃_t = [M p̃_{t-1}]_{ε_b}

for ``t0`` steps and sweep each vector's support ordered by
ρ̃_t(x) = p̃_t(x)/deg(x), looking for a prefix π̃_t(1..j) that satisfies the
certification conditions

    (C.1)  Φ(π̃_t(1..j)) ≤ φ
    (C.2)  ρ̃_t at position j  ≥  γ / Vol(π̃_t(1..j))
    (C.3)  (5/7)·2^{b-1}  ≤  Vol(π̃_t(1..j))  ≤  (5/6)·Vol(V)

``Nibble`` examines every prefix of every time step.  ``ApproximateNibble``
examines only the geometric candidate sequence of
:func:`repro.nibble.sweep.candidate_indices` and relaxes the upper bound of
(C.3) to 11/12 (condition (C.3*)), which is what makes the distributed
implementation's round complexity independent of the cut volume.

The shared certification scan, :func:`scan_walk_sequence`, is deliberately a
pure function of the walk vectors: the distributed implementation
(:mod:`repro.congest.nibble_program`) computes the same vectors with the
CONGEST diffusion program and feeds them through this exact code path, so
centralized and distributed cuts coincide whenever their walk vectors do
(the diffusion program's vectors are pinned to the centralized ones to
1e-12 by ``tests/test_congest.py``).  :func:`nibble` and
:func:`approximate_nibble` themselves run every input on its
:class:`~repro.graphs.peel.PeeledCSR` view and scan it with
:func:`scan_walk_sequence_csr`; the dict walk
(:func:`repro.walks.lazy_walk.truncated_walk_iter`) fed through
:func:`scan_walk_sequence` is the reference the tests hold them to, bit
for bit — same IEEE expressions, same canonical accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

from ..graphs import csr as csr_backend
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph, Vertex
from ..graphs.peel import PeeledCSR
from ..resilience.deadline import check_walk_deadline
from ..utils.rounds import RoundReport
from .parameters import NibbleParameters
from .sweep import (
    SweepState,
    build_sweep,
    candidate_indices,
    candidate_indices_from_profile,
)


@dataclass(frozen=True)
class NibbleCut:
    """A cut certified by the (C.1)–(C.3) conditions.

    ``conductance``/``volume``/``cut_size`` are measured in the graph the
    walk ran on (in the decomposition that graph is already ``G{U}``).
    """

    vertices: frozenset
    conductance: float
    volume: int
    cut_size: int
    time_step: int
    prefix_index: int
    scale: int
    start: Hashable

    @property
    def is_empty(self) -> bool:
        """Whether the cut contains no vertices (no prefix certified)."""
        return len(self.vertices) == 0


def conditions_hold(
    state: SweepState,
    j: int,
    scale: int,
    params: NibbleParameters,
    relaxed: bool = False,
) -> bool:
    """Check (C.1)–(C.3) for prefix ``j`` of one sweep at truncation scale ``b``.

    ``relaxed=True`` uses the (C.3*) upper bound (11/12 instead of 5/6),
    which is what ApproximateNibble certifies against.
    """
    vol = state.volume(j)
    if vol <= 0:
        return False
    if state.conductance(j) > params.phi:  # (C.1)
        return False
    if state.rho_at(j) < params.gamma / vol:  # (C.2)
        return False
    max_fraction = (
        params.relaxed_max_cut_volume_fraction
        if relaxed
        else params.max_cut_volume_fraction
    )
    return (  # (C.3) / (C.3*)
        params.min_cut_volume(scale) <= vol <= max_fraction * state.total_volume
    )


def scan_walk_sequence(
    graph: Graph,
    sequence: Iterable[Mapping[Vertex, float]],
    scale: int,
    params: NibbleParameters,
    start: Hashable,
    approximate: bool = False,
) -> Optional[NibbleCut]:
    """Sweep every time step of ``sequence`` and return a certified cut.

    With ``approximate=True`` only the geometric candidate prefixes are
    examined and (C.3*) replaces (C.3) — the ApproximateNibble scan.  The
    function is shared verbatim by the centralized and distributed Nibble so
    their outputs coincide whenever their walk vectors do.

    The *best* certified cut over all (t, j) is returned (lowest
    conductance, ties to larger volume then earlier time), not the paper's
    first certified prefix: EXPERIMENTS.md documents the deviation.

    ``sequence`` may be a lazy generator
    (:func:`repro.walks.lazy_walk.truncated_walk_iter`): the scan consumes
    one vector at a time and every break skips the remaining walk steps.
    The only breaks are exact: zero mass and the IEEE fixpoint, both read
    off the walk alone, so the sweep never changes which steps are walked.
    """
    best: Optional[NibbleCut] = None
    previous: Optional[Mapping[Vertex, float]] = None
    for t, mass in enumerate(sequence):
        check_walk_deadline()
        if t == 0:
            continue  # p̃_0 = χ_v is never certified (its prefix is trivial)
        if not mass:
            break  # all later vectors are identically zero
        if previous is not None and (mass is previous or mass == previous):
            # The walk hit its truncated fixpoint: every later sweep is a
            # copy of the one just scanned, and an identical certified
            # prefix at a later t always loses the (Φ, -Vol, t, j) tie.
            break
        previous = mass
        state = build_sweep(graph, mass)
        if state.jmax == 0:
            # All mass sits on zero-degree vertices; the next step repeats
            # this one bit-for-bit and the fixpoint rule above breaks.
            continue
        if approximate:
            indices = candidate_indices(state, params.phi)
        else:
            indices = range(1, state.jmax + 1)
        for j in indices:
            if not conditions_hold(state, j, scale, params, relaxed=approximate):
                continue
            cut = NibbleCut(
                vertices=frozenset(state.prefix(j)),
                conductance=state.conductance(j),
                volume=state.volume(j),
                cut_size=state.cut_size(j),
                time_step=t,
                prefix_index=j,
                scale=scale,
                start=start,
            )
            if best is None or (cut.conductance, -cut.volume) < (
                best.conductance,
                -best.volume,
            ):
                best = cut
    return best


def scan_walk_sequence_csr(
    graph: CSRGraph | PeeledCSR,
    sequence: Iterable[csr_backend.SparseMass],
    scale: int,
    params: NibbleParameters,
    start: Hashable,
    approximate: bool = False,
) -> Optional[NibbleCut]:
    """Vectorized twin of :func:`scan_walk_sequence` for the CSR backend.

    Each time step's (C.1)–(C.3) checks are evaluated as boolean masks over
    the whole sweep at once instead of prefix-by-prefix.  The integer sweep
    statistics, the candidate sequence, the condition thresholds, and the
    best-cut tie rule (lowest conductance, larger volume, earlier time,
    smaller prefix) replicate the dict scan exactly, so for bit-identical
    walk vectors — which the canonical accumulation order guarantees — the
    returned cut is identical too.  ``graph`` may be a
    :class:`~repro.graphs.peel.PeeledCSR` view: the kernels only reach the
    graph through the masked surface, so the scan then certifies prefixes
    of the peeled working graph.

    ``sequence`` may be a lazy generator
    (:meth:`repro.graphs.csr.WalkWorkspace.walk_iter`), and the scan stops
    on the same two exact rules as :func:`scan_walk_sequence`, so the two
    backends stop at the same time step for bit-identical walks.

    Sweeps run on ``graph``'s cached :class:`~repro.graphs.csr.WalkWorkspace`,
    whose gather cache a workspace-driven walk shares, so each time step
    pays for at most one adjacency gather.
    """
    workspace = csr_backend.get_workspace(graph)
    best: Optional[tuple] = None  # ((Φ, -Vol), t, j, cut_size, prefix indices)
    max_fraction = (
        params.relaxed_max_cut_volume_fraction
        if approximate
        else params.max_cut_volume_fraction
    )
    previous: Optional[csr_backend.SparseMass] = None
    for t, mass in enumerate(sequence):
        check_walk_deadline()
        if t == 0:
            continue  # p̃_0 = χ_v is never certified (its prefix is trivial)
        if mass[0].size == 0:
            break  # all later vectors are identically zero
        if previous is not None and (
            mass is previous
            or (
                np.array_equal(mass[0], previous[0])
                and np.array_equal(mass[1], previous[1])
            )
        ):
            # Truncated fixpoint: later sweeps are copies of this one and
            # can never win the (Φ, -Vol, t, j) tie; same rule as the dict
            # scan so the backends break at the same step.
            break
        previous = mass
        state = workspace.build_sweep(mass)
        if state.jmax == 0:
            # All mass sits on zero-degree vertices; the next step repeats
            # this one bit-for-bit and the fixpoint rule above breaks.
            continue
        if approximate:
            j_values = np.asarray(
                candidate_indices_from_profile(state.prefix_volume, params.phi),
                dtype=np.int64,
            )
        else:
            j_values = np.arange(1, state.jmax + 1, dtype=np.int64)
        vol = state.prefix_volume[j_values]
        cut = state.prefix_cut[j_values]
        cond = np.full(len(j_values), np.inf)
        denom = np.minimum(vol, state.total_volume - vol)
        ok = denom > 0
        cond[ok] = cut[ok] / denom[ok]
        certified = (
            (vol > 0)
            & (cond <= params.phi)  # (C.1)
            & (state.rho[j_values - 1] >= params.gamma / vol)  # (C.2)
            & (params.min_cut_volume(scale) <= vol)  # (C.3) / (C.3*)
            & (vol <= max_fraction * state.total_volume)
        )
        hit = np.flatnonzero(certified)
        if hit.size:
            # same tie rule as the dict scan: min (Φ, -Vol), then smallest j
            pick = hit[np.lexsort((j_values[hit], -vol[hit], cond[hit]))[0]]
            key = (float(cond[pick]), -int(vol[pick]))
            if best is None or key < best[0]:
                j = int(j_values[pick])
                best = (key, t, j, int(cut[pick]), state.prefix(j).copy())
    if best is None:
        return None
    (conductance, neg_volume), t, j, cut_size, prefix = best
    return NibbleCut(
        vertices=frozenset(graph.vertices[int(i)] for i in prefix),
        conductance=conductance,
        volume=-neg_volume,
        cut_size=cut_size,
        time_step=t,
        prefix_index=j,
        scale=scale,
        start=start,
    )


def _charge_rounds(
    report: Optional[RoundReport], label: str, params: NibbleParameters
) -> None:
    """Charge the paper's round cost for one Nibble instance.

    Lemma 9 accounting, simplified to its leading terms: ``t0`` diffusion
    rounds plus ``2ℓ`` rounds of sweep aggregation per examined scale.
    """
    if report is not None:
        report.subreport(label).charge(params.t0 + 2 * params.ell)


def _run_nibble(
    graph: Graph | CSRGraph | PeeledCSR,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport],
    approximate: bool,
) -> Optional[NibbleCut]:
    """Shared walk-then-scan body of Nibble and ApproximateNibble.

    Every input runs on its :class:`~repro.graphs.peel.PeeledCSR` view (a
    dict ``Graph`` is snapshotted, a view is used as it is), so on a
    peeled view the cut is measured in the peeled working graph — exactly
    what the dict reference measures on the materialised ``G{U}``.

    The walk is generated lazily and scanned step by step, so a scan that
    stops on zero mass or the fixpoint skips the remaining walk steps.
    """
    if not 1 <= scale <= params.ell:
        raise ValueError(f"scale b={scale} outside 1..ell={params.ell}")
    label = "approximate_nibble" if approximate else "nibble"
    _charge_rounds(report, f"{label}(b={scale})", params)
    view = PeeledCSR.from_graph(graph)
    if start not in view.index:
        raise KeyError(f"start vertex {start!r} not in graph")
    # walk_iter rejects a start that is peeled out of a view.
    sequence = csr_backend.get_workspace(view).walk_iter(
        view.index[start], params.t0, params.epsilon_b(scale)
    )
    return scan_walk_sequence_csr(
        view, sequence, scale, params, start, approximate=approximate
    )


def nibble(
    graph: Graph | CSRGraph | PeeledCSR,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport] = None,
) -> Optional[NibbleCut]:
    """Nibble(G, v, φ, b): exhaustive sweep certification (paper Appendix A).

    Returns the best prefix satisfying (C.1)–(C.3) over all time steps (see
    :func:`scan_walk_sequence` for the deviation from the paper's first-hit
    rule), or ``None`` when no prefix of any of the ``t0`` truncated walk
    vectors certifies.

    ``graph`` may be a dict ``Graph``, a
    :class:`~repro.graphs.csr.CSRGraph` or a
    :class:`~repro.graphs.peel.PeeledCSR` view; all run the vectorized
    :mod:`repro.graphs.csr` kernels on the view.
    """
    return _run_nibble(graph, start, scale, params, report, approximate=False)


def approximate_nibble(
    graph: Graph | CSRGraph | PeeledCSR,
    start: Vertex,
    scale: int,
    params: NibbleParameters,
    report: Optional[RoundReport] = None,
) -> Optional[NibbleCut]:
    """ApproximateNibble: candidate prefixes only, relaxed volume bound (C.3*).

    The O(φ⁻¹ log Vol) candidate prefixes are the only ones a CONGEST node
    set can afford to evaluate; Lemma 4 of the paper shows the relaxation
    preserves the output guarantees up to constants.  ``graph`` is
    handled as in :func:`nibble`.
    """
    return _run_nibble(graph, start, scale, params, report, approximate=True)
