"""Lockstep ParallelNibble: a batch as one multi-row walk on a peeled view.

The paper runs a ParallelNibble batch's RandomNibble instances at the
same time (Lemma 10 charges the batch max-of-instances rounds).
:func:`lockstep_approximate_nibble` does the same in numpy: every
distinct ``(start, scale)`` draw of a batch on a
:class:`~repro.graphs.peel.PeeledCSR` view becomes one row of a dense
``(rows × n)`` float64 mass array over the view's ``n`` alive vertices.

ApproximateNibble's sweep only reads the walk — the two stop rules, zero
mass and the IEEE fixpoint, are read off the walk alone — so the kernel
walks a *block* of ``K`` lockstep steps first, keeping each step's mass
in a ``(K, rows, n)`` stack, and then sweeps every ``(step, row)`` pair
of the block in one vectorised pass: one stable ρ̃ argsort, one set of
prefix statistics, one (C.1)–(C.3*) test on the geometric candidate
prefixes and one best-cut selection.  A row that stops mid-block is
swept up to the step before its stop and dropped at the block's end.

Each row is bit-identical to ``approximate_nibble(view, start, scale,
params)`` by construction, not by tolerance:

* the columns are the view's alive base indices in ascending order —
  the order the :class:`~repro.graphs.csr.WalkWorkspace` accumulates
  sources in and the sweep breaks ρ̃ ties by (and, on a snapshot of a
  dict graph, its ``repr`` order);
* each target's incoming mass is one ``np.bincount`` over a row-major
  ``(row, source, target)`` gather, which adds shares sequentially in
  ascending source order — zero-mass sources add ``+0.0``, exact for
  these non-negative sums — and the retained share is added last; a
  compensating self loop of a peeled view enters only through that
  retained share, as in the workspace;
* every float expression is the single walk's, element-wise:
  ``m*(0.5+(0.5*loops)/deg)``, ``m/(2.0*deg)``, ``(2.0*ε_b)*deg``,
  ``m/deg``, ``cut/min(vol, Vol−vol)``, ``γ/vol``;
* the candidate chain compares integer volumes with ``(1+φ)·Vol``
  exactly, through ``floor`` of the threshold — never a float with an
  integer row offset added;
* a block's winner per draw is its least ``(Φ, −Vol, t, j)``, and it
  replaces the draw's best from earlier blocks only when strictly better
  in ``(Φ, −Vol)`` — together the single-walk scans' rule of a per-step
  winner that replaces the best only when strictly better.

Memory is linear: a block's arrays hold ``K × rows × (n + 2m)`` cells,
at most :data:`BLOCK_CELLS`, or one step's :func:`batch_cells` when a
single step is larger.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from ..graphs.peel import PeeledCSR
from ..resilience.deadline import check_walk_deadline
from .nibble import NibbleCut
from .parameters import NibbleParameters

#: A batch runs as lockstep rows while its :func:`batch_cells` stays at or
#: below this many cells, and one workspace walk per draw above it
#: (:func:`repro.parallel.worker.run_chunk`).  Set from the measured
#: crossover (EXPERIMENTS.md, "Kernel budget").
LOCKSTEP_CELL_BUDGET = 65_536

#: Cells one walk-then-sweep block spans: a block is
#: ``max(1, BLOCK_CELLS // batch_cells(view, rows))`` steps long (capped by
#: the steps left), for the rows still walking when it starts.  Set from
#: the measured latency/RSS trade-off (EXPERIMENTS.md, "Blocked sweep").
BLOCK_CELLS = 32_768


def batch_cells(view: PeeledCSR, rows: int) -> int:
    """``rows × (n + 2m)``: the cells of one lockstep step over ``view``.

    ``n`` alive vertices and ``2m`` directed alive edges per row — the size
    of the kernel's per-step arrays.
    """
    return rows * (view.num_vertices + 2 * view.num_edges)


def lockstep_approximate_nibble(
    view: PeeledCSR,
    draws: Sequence[tuple[Hashable, int]],
    params: NibbleParameters,
) -> list[Optional[NibbleCut]]:
    """ApproximateNibble for every ``(start, scale)`` of ``draws`` at once.

    Returns one cut (or ``None``) per draw, in order, each equal to
    ``approximate_nibble(view, start, scale, params)``.  A start must be
    an alive vertex of ``view``.  The ambient deadline is checked once per
    lockstep time step, t = 0 included.  Round accounting is the
    caller's: a batch charges rounds from its scales.
    """
    alive = view.alive_indices()
    starts = []
    for start, scale in draws:
        if not 1 <= scale <= params.ell:
            raise ValueError(f"scale b={scale} outside 1..ell={params.ell}")
        if start not in view.index or not view.alive[view.index[start]]:
            raise KeyError(f"start vertex {start!r} not in the view")
        starts.append(view.index[start])
    if not draws:
        return []

    n = len(alive)
    loops = view.loops[alive]
    proper = view.proper_degree[alive]
    deg = view.degree[alive]
    # Directed edges, row-major by ascending source: the accumulation order.
    src, flat = view.flat_adjacency(alive)
    tgt = np.searchsorted(alive, flat)
    lower = src < tgt  # each undirected edge once, for the prefix cuts
    edge_lo, edge_hi = src[lower], tgt[lower]
    positive = deg > 0
    safe_deg = np.where(positive, deg, 1)
    keep_factor = np.ones(n)
    keep_factor[positive] = 0.5 + (0.5 * loops[positive]) / deg[positive]
    share_divisor = np.where(positive, 2.0 * deg, 1.0)
    total = int(view.total_volume)
    max_volume = params.relaxed_max_cut_volume_fraction * total
    # Scatter bins for up to ``len(draws)`` rows, sliced to the live count.
    bins = (np.arange(len(draws))[:, None] * n + tgt).ravel()
    graph_arrays = (deg, proper, edge_lo, edge_hi, total, max_volume)

    columns = len(draws)
    # The walking rows: each row's draw, mass, truncation and (C.3*) bound.
    col = np.arange(columns)
    mass = np.zeros((columns, n))
    mass[col, np.searchsorted(alive, starts)] = 1.0
    threshold = np.array([2.0 * params.epsilon_b(b) for _, b in draws])[:, None] * deg
    min_volume = np.array([params.min_cut_volume(b) for _, b in draws])
    # Best cut per draw: its (Φ, -Vol) key — (inf, 0) loses to any
    # certified prefix — and (t, j, |∂|, prefix) once one certifies.
    best_conductance = np.full(columns, np.inf)
    best_neg_volume = np.zeros(columns, dtype=np.int64)
    best: list[Optional[tuple]] = [None] * columns

    check_walk_deadline()  # t = 0: p̃_0 = χ_v is never certified
    t = 0
    while t < params.t0 and len(col):
        count = len(col)
        steps = min(max(1, BLOCK_CELLS // batch_cells(view, count)), params.t0 - t)
        # -- walk the block ----------------------------------------------
        stack = np.empty((steps, count, n))
        swept = np.zeros((steps, count), dtype=bool)
        walking = np.ones(count, dtype=bool)
        for k in range(steps):
            check_walk_deadline()
            share = (mass / share_divisor)[:, src]
            walked = np.bincount(
                bins[: count * len(src)], weights=share.ravel(), minlength=count * n
            )
            walked = walked.reshape(count, n) + mass * keep_factor
            walked[walked < threshold] = 0.0
            # Zero mass and the fixpoint (from t = 2 on) stop a row before
            # its step is swept; a stopped row keeps walking to the block's
            # end unswept.
            walking &= walked.any(axis=1)
            if t + k >= 1:
                walking &= (walked != mass).any(axis=1)
            stack[k] = walked
            swept[k] = walking
            mass = walked
            if not walking.any():
                steps = k + 1
                break
        # -- sweep the block ---------------------------------------------
        pair_step, pair_row = np.nonzero(swept[:steps])
        if pair_row.size:
            pair_mass = stack[pair_step, pair_row]
            support = (pair_mass > 0.0) & positive
            rho = np.where(support, pair_mass / safe_deg, 0.0)
            order = np.argsort(np.where(support, -rho, np.inf), axis=1, kind="stable")
            prefixes = _Prefixes(
                order, support.sum(axis=1), min_volume[pair_row], params, *graph_arrays
            )
            certified = prefixes.static & (
                rho.ravel()[prefixes.rho_at] >= prefixes.gamma_over_volume  # (C.2)
            )
            hit = np.flatnonzero(certified)
            if hit.size:
                _update_best(
                    prefixes, hit, t + 1 + pair_step, col[pair_row],
                    best_conductance, best_neg_volume, best,
                )
        t += steps
        col, mass = col[walking], mass[walking]
        threshold, min_volume = threshold[walking], min_volume[walking]

    labels = view.vertices
    cuts: list[Optional[NibbleCut]] = []
    for (start, scale), conductance, neg_volume, found in zip(
        draws, best_conductance.tolist(), best_neg_volume.tolist(), best
    ):
        if found is None:
            cuts.append(None)
            continue
        t, j, boundary, prefix = found
        cuts.append(
            NibbleCut(
                vertices=frozenset(labels[i] for i in alive[prefix].tolist()),
                conductance=conductance,
                volume=-neg_volume,
                cut_size=boundary,
                time_step=t,
                prefix_index=j,
                scale=scale,
                start=start,
            )
        )
    return cuts


class _Prefixes:
    """Prefix statistics of a block's orderings, and their candidates.

    Everything here depends on the ``(pairs × n)`` ordering, jmax and the
    pairs' scales only: prefix volumes and cuts, the geometric candidate
    chain, and the candidates' (C.1), (C.3*) and γ/Vol values.  Flat
    indices address the row-major ``(pairs × (n+1))`` prefix grid
    (``candidates``) and the ``(pairs × n)`` ρ̃ grid (``rho_at``, each
    candidate's last vertex).
    """

    def __init__(
        self, order, jmax, min_volume, params, deg, proper, edge_lo, edge_hi,
        total, max_volume,
    ) -> None:
        count, n = order.shape
        row = np.arange(count)[:, None]
        self.order = order
        volume = np.zeros((count, n + 1), dtype=np.int64)
        np.cumsum(deg[order], axis=1, out=volume[:, 1:])
        # An edge is inside a prefix from its later endpoint's position on.
        position = np.argsort(order, axis=1)  # the inverse permutation
        closes = np.maximum(position[:, edge_lo], position[:, edge_hi]) + row * n
        internal = np.bincount(closes.ravel(), minlength=count * n).reshape(count, n)
        cut = np.zeros((count, n + 1), dtype=np.int64)
        np.cumsum(proper[order] - 2 * internal, axis=1, out=cut[:, 1:])
        # The geometric candidate chain, by pointer doubling:
        # next(j) = min(max(j+1, largest j' with Vol(j') <= (1+φ)Vol(j)), jmax).
        # Rows are offset by Vol+1 so one searchsorted serves them all; both
        # sides are integers (Vol(j') <= x iff Vol(j') <= floor(x)), so
        # every comparison is exact.
        offset = row * (total + 1)
        limit = np.minimum(np.floor((1.0 + params.phi) * volume), total)
        reach = np.searchsorted(
            (volume + offset).ravel(),
            (limit.astype(np.int64) + offset).ravel(),
            side="right",
        ).reshape(count, n + 1) - 1 - row * (n + 1)
        hop = np.minimum(np.maximum(np.arange(1, n + 2), reach), jmax[:, None])
        hop = (hop + row * (n + 1)).ravel()
        on_chain = np.zeros(count * (n + 1), dtype=bool)
        on_chain[row[:, 0] * (n + 1) + 1] = jmax >= 1
        # After k rounds on_chain holds next^i(1) for i < 2^k; a chain has
        # at most jmax members.
        for _ in range(max(int(jmax.max()) - 1, 0).bit_length()):
            on_chain[hop[on_chain]] = True
            hop = hop[hop]
        # (C.1) and (C.3*) on the candidates; (C.2) needs the pair's ρ̃.
        self.candidates = np.flatnonzero(on_chain)
        self.cand_row, self.cand_j = np.divmod(self.candidates, n + 1)
        last = order.ravel()[self.cand_row * n + self.cand_j - 1]
        self.rho_at = self.cand_row * n + last
        self.vol = volume.ravel()[self.candidates]
        self.boundary = cut.ravel()[self.candidates]
        denom = np.minimum(self.vol, total - self.vol)
        self.conductance = np.full(len(self.candidates), np.inf)
        ok = denom > 0
        self.conductance[ok] = self.boundary[ok] / denom[ok]
        self.static = (
            (self.vol > 0)
            & (self.conductance <= params.phi)  # (C.1)
            & (min_volume[self.cand_row] <= self.vol)  # (C.3*)
            & (self.vol <= max_volume)
        )
        # Candidates have vol >= 1 (their first vertex has positive degree).
        self.gamma_over_volume = params.gamma / self.vol


def _update_best(
    prefixes, hit, pair_t, pair_draw, best_conductance, best_neg_volume, best
):
    """Fold one block's certified candidates ``hit`` into the per-draw best.

    Per draw the block's winner is the least ``(Φ, −Vol, t, j)``; it
    replaces the draw's best only if strictly better in ``(Φ, −Vol)``, so
    ties go to the earlier block.
    """
    p = prefixes
    draw, t = pair_draw[p.cand_row[hit]], pair_t[p.cand_row[hit]]
    rank = np.lexsort((p.cand_j[hit], t, -p.vol[hit], p.conductance[hit], draw))
    draw, ranked = draw[rank], hit[rank]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = draw[1:] != draw[:-1]
    win, draw = ranked[first], draw[first]
    conductance, neg_volume = p.conductance[win], -p.vol[win]
    better = (conductance < best_conductance[draw]) | (
        (conductance == best_conductance[draw])
        & (neg_volume < best_neg_volume[draw])
    )
    best_conductance[draw[better]] = conductance[better]
    best_neg_volume[draw[better]] = neg_volume[better]
    for pick, d in zip(win[better].tolist(), draw[better].tolist()):
        row, j = int(p.cand_row[pick]), int(p.cand_j[pick])
        best[d] = (int(pair_t[row]), j, int(p.boundary[pick]), p.order[row, :j].copy())
