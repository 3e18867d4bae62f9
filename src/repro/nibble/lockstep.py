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
prefix statistics per *fresh* pair, one (C.2) test per pair and one
best-cut selection.  A pair is fresh when it is its row's first step in
the block or its ordering or jmax differs from the row's previous step;
late in a walk most steps repeat the previous ordering, and every other
pair shares the (C.1)/(C.3*)-passing candidates of its row's latest
fresh pair.  A row that stops mid-block is swept up to the step before
its stop and dropped at the block's end.  The walk's share and gather
buffers are allocated once per call, and each step's mass is written
straight into its stack slot.

Each row is bit-identical to ``approximate_nibble(view, start, scale,
params)`` by construction, not by tolerance:

* the columns are the view's alive base indices in ascending order —
  the order the :class:`~repro.graphs.csr.WalkWorkspace` accumulates
  sources in and the sweep breaks ρ̃ ties by (and, on a snapshot of a
  dict graph, its ``repr`` order);
* each target's incoming mass is one ``np.bincount`` over a row-major
  ``(row, source, target)`` gather, which adds shares sequentially in
  ascending source order — zero-mass sources add ``+0.0``, exact for
  these non-negative sums — and the retained share is added last
  (``retained += incoming``: IEEE addition commutes); a
  compensating self loop of a peeled view enters only through that
  retained share, as in the workspace;
* every float expression is the single walk's, element-wise:
  ``m*(0.5+(0.5*loops)/deg)``, ``m/(2.0*deg)``, ``(2.0*ε_b)*deg``,
  ``m/deg``, ``cut/min(vol, Vol−vol)``, ``γ/vol``;
* prefix volumes and cuts, the candidate chain, (C.1) and (C.3*) are a
  function of the ordering, jmax and the row's scale alone, so a pair
  that repeats its row's previous ordering and jmax has its fresh pair's
  candidates exactly; (C.2), the one test that reads ρ̃, is evaluated for
  every pair against its own ρ̃, and a winning prefix is cut out of its
  own pair's ordering;
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
#: the measured latency/RSS trade-off (EXPERIMENTS.md, "Blocked sweep",
#: re-measured in "Sweep each ordering once").
BLOCK_CELLS = 65_536


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
    # The per-step share and gather buffers, sliced to the live rows.
    quotient = np.empty(columns * n)
    gather = np.empty(columns * len(src))

    check_walk_deadline()  # t = 0: p̃_0 = χ_v is never certified
    t = 0
    while t < params.t0 and len(col):
        count = len(col)
        steps = min(max(1, BLOCK_CELLS // batch_cells(view, count)), params.t0 - t)
        divided = quotient[: count * n].reshape(count, n)
        shares = gather[: count * len(src)].reshape(count, len(src))
        block_bins = bins[: count * len(src)]
        # -- walk the block ----------------------------------------------
        stack = np.empty((steps, count, n))
        swept = np.zeros((steps, count), dtype=bool)
        walking = np.ones(count, dtype=bool)
        for k in range(steps):
            check_walk_deadline()
            np.divide(mass, share_divisor, out=divided)
            # mode="clip" lets take write into ``out`` unbuffered; every
            # index is in range, so it gathers exactly what "raise" would.
            np.take(divided, src, axis=1, out=shares, mode="clip")
            walked = np.multiply(mass, keep_factor, out=stack[k])
            walked += np.bincount(
                block_bins, weights=shares.ravel(), minlength=count * n
            ).reshape(count, n)
            walked[walked < threshold] = 0.0
            # Zero mass and the fixpoint (from t = 2 on) stop a row before
            # its step is swept; a stopped row keeps walking to the block's
            # end unswept.
            walking &= walked.any(axis=1)
            if t + k >= 1:
                walking &= (walked != mass).any(axis=1)
            swept[k] = walking
            mass = walked
            if not walking.any():
                steps = k + 1
                break
        # -- sweep the block ---------------------------------------------
        pair_row, pair_step = np.nonzero(swept[:steps].T)  # row by row
        if pair_row.size:
            pair_mass = stack[pair_step, pair_row]
            support = (pair_mass > 0.0) & positive
            rho = np.where(support, pair_mass / safe_deg, 0.0)
            order = np.argsort(np.where(support, -rho, np.inf), axis=1, kind="stable")
            jmax = support.sum(axis=1)
            fresh, source = _fresh_pairs(pair_step, order, jmax)
            prefixes = _Prefixes(
                order[fresh], jmax[fresh], min_volume[pair_row[fresh]], params,
                *graph_arrays,
            )
            pair, cand = prefixes.static_per_pair(source)
            certified = (
                rho[pair, prefixes.last[cand]] >= prefixes.gamma_over_volume[cand]
            )  # (C.2), on each pair's own ρ̃
            if certified.any():
                _update_best(
                    prefixes, pair[certified], cand[certified], order,
                    t + 1 + pair_step, col[pair_row],
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


def _fresh_pairs(pair_step, order, jmax):
    """Which pairs get their own prefix statistics, and whose each pair uses.

    The pairs come row by row, each row's swept steps in ascending order
    (a row stops for good, so they are the block's first steps), with
    their orderings and jmax.  A pair is fresh when it is its row's first
    step in the block, or when its ordering or jmax differs from the pair
    before it — the same row one step earlier.  Returns the fresh mask and,
    per pair, the rank among the fresh pairs of its row's latest fresh
    pair (itself when fresh): a forward fill along the rows, which a
    running count of the fresh pairs is, since every row starts fresh.
    """
    fresh = pair_step == 0
    fresh[1:] |= (jmax[1:] != jmax[:-1]) | (order[1:] != order[:-1]).any(axis=1)
    return fresh, np.cumsum(fresh) - 1


class _Prefixes:
    """Prefix statistics of a block's distinct orderings, and their candidates.

    Everything here is a function of an ordering, its jmax and its row's
    scale alone: prefix volumes and cuts, the geometric candidate chain,
    and the candidates' (C.1), (C.3*) and γ/Vol values.  So a block builds
    it once per fresh pair (:func:`_fresh_pairs`), each of the
    ``(fresh × n)`` orderings one row here, and every pair that repeats
    its predecessor's ordering and jmax shares its fresh pair's
    candidates; only (C.2) reads the pair's own ρ̃.  Candidates are listed
    by flat index into the row-major ``(fresh × (n+1))`` prefix grid
    (``candidates``), with their row, prefix length ``j`` and last vertex.
    """

    def __init__(
        self, order, jmax, min_volume, params, deg, proper, edge_lo, edge_hi,
        total, max_volume,
    ) -> None:
        count, n = order.shape
        row = np.arange(count)[:, None]
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
        # (C.1) and (C.3*) on the candidates; (C.2) needs each pair's ρ̃.
        self.candidates = np.flatnonzero(on_chain)
        self.cand_row, self.cand_j = np.divmod(self.candidates, n + 1)
        self.last = order[self.cand_row, self.cand_j - 1]
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
        self.rows = count

    def static_per_pair(self, source):
        """Every ``(pair, candidate)`` whose candidate passes (C.1) and
        (C.3*), for pairs whose fresh row is ``source``: the fresh rows'
        static candidates repeated for each pair that shares them."""
        static = np.flatnonzero(self.static)  # ascending row, then j
        per_row = np.bincount(self.cand_row[static], minlength=self.rows)
        first = np.cumsum(per_row) - per_row
        repeats = per_row[source]
        pair = np.repeat(np.arange(len(source)), repeats)
        offset = np.cumsum(repeats) - repeats
        at = np.repeat(first[source] - offset, repeats) + np.arange(len(pair))
        return pair, static[at]


def _update_best(
    prefixes, pair, cand, order, pair_t, pair_draw,
    best_conductance, best_neg_volume, best,
):
    """Fold one block's certified ``(pair, candidate)`` hits into the best.

    Per draw the block's winner is the least ``(Φ, −Vol, t, j)``; it
    replaces the draw's best only if strictly better in ``(Φ, −Vol)``, so
    ties go to the earlier block.  The winner's prefix is cut out of its
    pair's own ordering.
    """
    p = prefixes
    draw, t, j = pair_draw[pair], pair_t[pair], p.cand_j[cand]
    vol, conductance = p.vol[cand], p.conductance[cand]
    rank = np.lexsort((j, t, -vol, conductance, draw))
    first = np.ones(len(rank), dtype=bool)
    first[1:] = draw[rank[1:]] != draw[rank[:-1]]
    win = rank[first]
    draw, conductance, neg_volume = draw[win], conductance[win], -vol[win]
    better = (conductance < best_conductance[draw]) | (
        (conductance == best_conductance[draw])
        & (neg_volume < best_neg_volume[draw])
    )
    best_conductance[draw[better]] = conductance[better]
    best_neg_volume[draw[better]] = neg_volume[better]
    for w, d in zip(win[better].tolist(), draw[better].tolist()):
        length = int(j[w])
        best[d] = (
            int(t[w]), length, int(p.boundary[cand[w]]),
            order[pair[w], :length].copy(),
        )
