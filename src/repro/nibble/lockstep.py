"""Lockstep ParallelNibble: batches as one multi-row walk on peeled views.

The paper runs a ParallelNibble batch's RandomNibble instances at the
same time (Lemma 10 charges the batch max-of-instances rounds), and the
recursion searches every component of a level at once.
:func:`lockstep_approximate_nibble` does the same in numpy: every
distinct ``(start, scale)`` draw of a batch on a
:class:`~repro.graphs.peel.PeeledCSR` view becomes one row of a dense
float64 mass array over the view's ``n`` alive vertices, and several
batches — *groups*, each ``(view, draws, params)`` on its own view —
can share one call, their rows padded to the widest view.

ApproximateNibble's sweep only reads the walk — the two stop rules, zero
mass and the IEEE fixpoint, are read off the walk alone — so the kernel
walks a *block* of ``K`` lockstep steps first, keeping each step's mass
in a ``(K, rows, width)`` stack, and then sweeps every ``(step, row)``
pair of the block in one vectorised pass: one stable ρ̃ argsort, one set
of prefix statistics per *fresh* pair, one (C.2) test per pair and one
best-cut selection.  A pair is fresh when it is its row's first step in
the block or its ordering or jmax differs from the row's previous step;
late in a walk most steps repeat the previous ordering, and every other
pair shares the (C.1)/(C.3*)-passing candidates of its row's latest
fresh pair.  A row that stops mid-block — or reaches its own group's t0
— is swept up to the step before its stop and dropped at the block's
end.  The walk's share and gather buffers are allocated once per call,
and each step's mass is written straight into its stack slot.

Each row is bit-identical to ``approximate_nibble(view, start, scale,
params)`` for its own group by construction, not by tolerance:

* a row's columns are its view's alive base indices in ascending order —
  the order the :class:`~repro.graphs.csr.WalkWorkspace` accumulates
  sources in and the sweep breaks ρ̃ ties by (and, on a snapshot of a
  dict graph, its ``repr`` order) — then padding columns up to the
  call's width.  A padding column has degree 0, keep factor 1, share
  divisor 1 and threshold 0, and no edge reaches it, so it never holds
  mass, is never in the support, and sorts after every real column
  under the stable argsort: it is never in a candidate prefix, whose
  length is at most jmax;
* each target's incoming mass is one ``np.bincount`` over a flat gather
  of the row's own view's directed edges, row-major by source, which
  adds shares sequentially in ascending source order — zero-mass
  sources add ``+0.0``, exact for these non-negative sums — and the
  retained share is added last (``retained += incoming``: IEEE addition
  commutes); no share crosses rows, so the other groups in the call
  cannot reach a row's sums; a compensating self loop of a peeled view
  enters only through that retained share, as in the workspace;
* every float expression is the single walk's, element-wise, with the
  row's own group's constants: ``m*(0.5+(0.5*loops)/deg)``,
  ``m/(2.0*deg)``, ``(2.0*ε_b)*deg``, ``m/deg``, ``cut/min(vol, Vol−vol)``,
  ``γ/vol``, and (C.1)–(C.3*) against the row's φ, ``min_volume`` and
  ``(11/12)·Vol``;
* prefix volumes and cuts, the candidate chain, (C.1) and (C.3*) are a
  function of the ordering, jmax and the row alone, so a pair that
  repeats its row's previous ordering and jmax has its fresh pair's
  candidates exactly; (C.2), the one test that reads ρ̃, is evaluated for
  every pair against its own ρ̃, and a winning prefix is cut out of its
  own pair's ordering;
* the candidate chain compares integer volumes with ``(1+φ)·Vol``
  exactly, through ``floor`` of the threshold — never a float with an
  integer row offset added; padding only extends a row's prefix volumes
  flat at ``Vol`` past its ``n``, where the chain is already capped at
  jmax;
* a block's winner per draw is its least ``(Φ, −Vol, t, j)``, and it
  replaces the draw's best from earlier blocks only when strictly better
  in ``(Φ, −Vol)`` — together the single-walk scans' rule of a per-step
  winner that replaces the best only when strictly better.

Where blocks end moves no row (pinned by the block-length tests), so a
fused call's blocks are as long as its largest group's own call would
walk: ``max(1, BLOCK_CELLS // cells)`` steps for that group's cells.
Memory is linear: a block's arrays hold ``K`` steps of every live row,
``K × rows × (width + 2m)`` cells — for one group at most
:data:`BLOCK_CELLS`, or one step's :func:`batch_cells` when a single step
is larger, and for a fused call at most that many steps of its
:func:`fused_cells`.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from ..graphs.peel import PeeledCSR
from ..resilience.deadline import check_walk_deadline
from .nibble import NibbleCut
from .parameters import NibbleParameters

#: A batch runs as lockstep rows while its :func:`batch_cells` stays at or
#: below this many cells, and one workspace walk per draw above it; such
#: batches of one round share a call while its :func:`fused_cells` stay
#: within the same budget (:func:`repro.parallel.worker.run_chunks`).  Set
#: from the measured crossover (EXPERIMENTS.md, "Kernel budget"); the
#: fused-call cap from "Sibling searches in lockstep".
LOCKSTEP_CELL_BUDGET = 65_536

#: Cells one walk-then-sweep block spans: a block is
#: ``max(1, BLOCK_CELLS // batch_cells(view, rows))`` steps long (capped by
#: the steps left), for the rows still walking when it starts — in a fused
#: call, for the largest group's live rows.  Set from the measured
#: latency/RSS trade-off (EXPERIMENTS.md, "Blocked sweep", re-measured in
#: "Sweep each ordering once").
BLOCK_CELLS = 65_536


def batch_cells(view: PeeledCSR, rows: int) -> int:
    """``rows × (n + 2m)``: the cells of one lockstep step over ``view``.

    ``n`` alive vertices and ``2m`` directed alive edges per row — the size
    of the kernel's per-step arrays.
    """
    return rows * (view.num_vertices + 2 * view.num_edges)


def fused_cells(groups: Sequence[tuple[PeeledCSR, int]]) -> int:
    """The cells of one lockstep step over ``(view, rows)`` groups fused in one call.

    Every row is padded to the widest view, so a row costs that width plus
    its own view's ``2m``; a single group's cells are its
    :func:`batch_cells`.
    """
    width = max((view.num_vertices for view, rows in groups if rows), default=0)
    return sum(rows * (width + 2 * view.num_edges) for view, rows in groups)


def lockstep_approximate_nibble(
    view: PeeledCSR,
    draws: Sequence[tuple[Hashable, int]],
    params: NibbleParameters,
    *groups: tuple[PeeledCSR, Sequence[tuple[Hashable, int]], NibbleParameters],
) -> list[Optional[NibbleCut]]:
    """ApproximateNibble for every ``(start, scale)`` of ``draws`` at once.

    Returns one cut (or ``None``) per draw, in order, each equal to
    ``approximate_nibble(view, start, scale, params)``.  Further
    ``(view, draws, params)`` ``groups`` — other batches, on other views
    and with their own parameters — run as more rows of the same walk;
    their cuts follow, group by group, each equal to its group's own
    call.  A start must be an alive vertex of its view.  The ambient
    deadline is checked once per lockstep time step, t = 0 included.
    Round accounting is the caller's: a batch charges rounds from its
    scales.
    """
    rows = _Rows([(view, draws, params), *groups])
    if not rows.count:
        return []
    # Best cut per row: its (Φ, -Vol) key — (inf, 0) loses to any
    # certified prefix — and (t, j, |∂|, prefix) once one certifies.
    best_conductance = np.full(rows.count, np.inf)
    best_neg_volume = np.zeros(rows.count, dtype=np.int64)
    best: list[Optional[tuple]] = [None] * rows.count
    # The per-step share and gather buffers, sliced to the live rows.
    quotient = np.empty(rows.count * rows.width)
    gather = np.empty(int(rows.edges.sum()))

    live = np.arange(rows.count)  # the walking rows, ascending
    mass = rows.start_mass()
    block = None
    check_walk_deadline()  # t = 0: p̃_0 = χ_v is never certified
    t = 0
    while len(live):
        if block is None or len(block.t0) != len(live):  # live rows only leave
            block = _Block(rows, live)
        mass = mass[:, : block.width]  # past every live row's view: padding only
        steps = min(
            max(1, BLOCK_CELLS // block.group_cells), int(block.t0.max()) - t
        )
        stack, swept, walking = _walk(block, mass, t, steps, quotient, gather)
        steps, mass = len(stack), stack[-1]
        # A row past its own t0 — in a fused call, t0 differs by group —
        # is not swept and leaves at the block's end.
        swept &= t + np.arange(steps)[:, None] < block.t0
        walking &= block.t0 > t + steps
        # -- sweep the block ---------------------------------------------
        pair_row, pair_step = np.nonzero(swept.T)  # row by row
        if pair_row.size:
            pair_mass = stack[pair_step, pair_row]
            positive, safe_deg = block.positive, block.safe_deg
            if len(positive) > 1:  # a fused block: each pair's own row
                positive, safe_deg = positive[pair_row], safe_deg[pair_row]
            support = (pair_mass > 0.0) & positive
            rho = np.where(support, pair_mass / safe_deg, 0.0)
            order = np.argsort(np.where(support, -rho, np.inf), axis=1, kind="stable")
            jmax = support.sum(axis=1)
            pair_row = live[pair_row]
            fresh, source = _fresh_pairs(pair_step, order, jmax)
            prefixes = _Prefixes(order[fresh], jmax[fresh], pair_row[fresh], rows)
            pair, cand = prefixes.static_per_pair(source)
            certified = (
                rho[pair, prefixes.last[cand]] >= prefixes.gamma_over_volume[cand]
            )  # (C.2), on each pair's own ρ̃
            if certified.any():
                _update_best(
                    prefixes, pair[certified], cand[certified], order,
                    t + 1 + pair_step, pair_row,
                    best_conductance, best_neg_volume, best,
                )
        t += steps
        live, mass = live[walking], mass[walking]
    return rows.cuts(best_conductance, best_neg_volume, best)


def _walk(block: "_Block", mass, t: int, steps: int, quotient, gather):
    """Walk the live rows ``steps`` lockstep steps from ``p̃_t`` = ``mass``.

    Returns the ``(steps, live, width)`` stack of ``p̃_{t+1} …``, which
    steps of which rows to sweep, and which rows still walk; the stack is
    cut short at the step where the last row stopped.  ``quotient`` and
    ``gather`` are the call's share and gather buffers.
    """
    count, width = mass.shape
    divided = quotient[: count * width].reshape(count, width)
    shares = gather[: len(block.source)]
    stack = np.empty((steps, count, width))
    swept = np.zeros((steps, count), dtype=bool)
    walking = np.ones(count, dtype=bool)
    for k in range(steps):
        check_walk_deadline()
        np.divide(mass, block.share_divisor, out=divided)
        # mode="clip" lets take write into ``out`` unbuffered; every
        # index is in range, so it gathers exactly what "raise" would.
        np.take(divided.ravel(), block.source, out=shares, mode="clip")
        walked = np.multiply(mass, block.keep_factor, out=stack[k])
        walked += np.bincount(
            block.target, weights=shares, minlength=count * width
        ).reshape(count, width)
        walked[walked < block.threshold] = 0.0
        # Zero mass and the fixpoint (from t = 2 on) stop a row before its
        # step is swept; a stopped row keeps walking to the block's end
        # unswept.
        walking &= np.logical_or.reduce(walked, axis=1)
        if t + k >= 1:
            walking &= np.logical_or.reduce(walked != mass, axis=1)
        swept[k] = walking
        mass = walked
        if not np.count_nonzero(walking):
            return stack[: k + 1], swept[: k + 1], walking
    return stack, swept, walking


class _Group:
    """One ``(view, draws, params)`` group: its draws and its view's arrays.

    The per-column arrays are padded with degree-0 columns to ``width``,
    the widest view of the call, so any live row's ordering indexes them.
    """

    def __init__(self, view: PeeledCSR, draws, params: NibbleParameters) -> None:
        alive = view.alive_indices()
        starts = []
        for start, scale in draws:
            if not 1 <= scale <= params.ell:
                raise ValueError(f"scale b={scale} outside 1..ell={params.ell}")
            if start not in view.index or not view.alive[view.index[start]]:
                raise KeyError(f"start vertex {start!r} not in the view")
            starts.append(view.index[start])
        self.view, self.draws, self.params, self.alive = view, draws, params, alive
        self.starts = np.searchsorted(alive, starts)
        self.n = len(alive)
        # Directed edges, row-major by ascending source: the accumulation order.
        self.src, flat = view.flat_adjacency(alive)
        self.tgt = np.searchsorted(alive, flat)
        lower = self.src < self.tgt  # each undirected edge once, for the prefix cuts
        self.edge_lo, self.edge_hi = self.src[lower], self.tgt[lower]

    def pad(self, width: int) -> None:
        """Build the per-column arrays, ``width`` columns long."""
        n, view, alive = self.n, self.view, self.alive
        self.deg = np.zeros(width, dtype=np.int64)
        self.deg[:n] = view.degree[alive]
        self.proper = np.zeros(width, dtype=np.int64)
        self.proper[:n] = view.proper_degree[alive]
        self.positive = self.deg > 0
        self.safe_deg = np.where(self.positive, self.deg, 1)
        loops = view.loops[alive]
        deg, positive = self.deg[:n], self.positive[:n]
        self.keep_factor = np.ones(width)
        self.keep_factor[:n][positive] = 0.5 + (0.5 * loops[positive]) / deg[positive]
        self.share_divisor = np.where(self.positive, 2.0 * self.deg, 1.0)


class _Rows:
    """Every row of a call: one per draw, group after group.

    Row ``r``'s columns are its view's alive base indices in ascending
    order, then padding up to the widest view of the call.  A padding
    column has degree 0 — keep factor 1, share divisor 1, threshold 0 —
    and no edge reaches it, so it never holds mass and sorts after every
    real column under the stable ρ̃ argsort.  Everything else is the row's
    own: its view's edges, its walk's t0, and its group's total volume and
    (C.1)–(C.3*) constants.
    """

    def __init__(self, groups) -> None:
        self.groups = [_Group(*group) for group in groups if group[1]]
        sizes = [len(g.draws) for g in self.groups]
        #: The first row of each group, then the row count.
        self.first = np.cumsum([0] + sizes)
        self.count = int(self.first[-1])
        self.width = max((g.n for g in self.groups), default=0)
        for g in self.groups:
            g.pad(self.width)

        # Each group's integers and floats, repeated for its rows.
        ints = np.repeat(
            [[g.n, len(g.src), g.params.t0, int(g.view.total_volume)] for g in self.groups],
            sizes,
            axis=0,
        ).reshape(-1, 4)
        self.n, self.edges, self.t0, self.total = ints.T.astype(np.int64)
        floats = np.repeat(
            [
                [
                    g.params.relaxed_max_cut_volume_fraction * int(g.view.total_volume),
                    g.params.phi,
                    g.params.gamma,
                ]
                for g in self.groups
            ],
            sizes,
            axis=0,
        ).reshape(-1, 3)
        self.max_volume, self.phi, self.gamma = floats.T.astype(float)
        draws = [(g, b) for g in self.groups for _, b in g.draws]
        self.min_volume = np.array([g.params.min_cut_volume(b) for g, b in draws])
        self.threshold_scale = np.array([2.0 * g.params.epsilon_b(b) for g, b in draws])

    def segments(self, row_ids: np.ndarray):
        """``(group, slice)`` for each group with rows among the ascending
        ``row_ids``: the positions of its rows there."""
        bounds = np.searchsorted(row_ids, self.first).tolist()
        return [
            (g, slice(lo, hi))
            for g, lo, hi in zip(self.groups, bounds, bounds[1:])
            if hi > lo
        ]

    def start_mass(self) -> np.ndarray:
        """``p̃_0``: each row's unit mass on its start column."""
        mass = np.zeros((self.count, self.width))
        for g, first in zip(self.groups, self.first.tolist()):
            mass[first + np.arange(len(g.starts)), g.starts] = 1.0
        return mass

    def cuts(self, best_conductance, best_neg_volume, best) -> list[Optional[NibbleCut]]:
        """Every row's best cut as a :class:`NibbleCut`, in row order."""
        cuts: list[Optional[NibbleCut]] = []
        found_by_row = iter(zip(best_conductance.tolist(), best_neg_volume.tolist(), best))
        for g in self.groups:
            labels = g.view.vertices
            for (start, scale), (conductance, neg_volume, found) in zip(
                g.draws, found_by_row
            ):
                if found is None:
                    cuts.append(None)
                    continue
                t, j, boundary, prefix = found
                cuts.append(
                    NibbleCut(
                        vertices=frozenset(labels[i] for i in g.alive[prefix].tolist()),
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


class _Block:
    """The walk arrays of one block's live rows, cut to their widest view.

    A per-column array is one ``(1 × width)`` row, broadcast over the live
    rows, when they all belong to one group, and ``(live × width)``
    otherwise, picked per swept pair.  ``source`` and
    ``target`` are the flat gather and scatter indices into the
    ``(live × width)`` mass: each row's own view's directed edges, in
    ascending source order, offset to the row.  A target cell receives
    shares from its own row only, so the bincount adds each cell's shares
    in ascending source order.
    """

    def __init__(self, rows: _Rows, live: np.ndarray) -> None:
        segments = rows.segments(live)
        #: Each live row's own view's column count; columns past it are
        #: padding, up to the widest live view.
        self.n = rows.n[live]
        self.width = width = int(self.n.max())
        self.t0 = rows.t0[live]
        #: The cells of the largest group's live rows: a block is as many
        #: steps long as that group's own call would walk.
        self.group_cells = max(
            int((width + rows.edges[live][at]).sum()) for _, at in segments
        )

        def per_column(name):
            if len(segments) == 1:
                return getattr(segments[0][0], name)[None, :width]
            return np.concatenate([
                np.broadcast_to(getattr(g, name)[:width], (at.stop - at.start, width))
                for g, at in segments
            ])

        self.keep_factor = per_column("keep_factor")
        self.share_divisor = per_column("share_divisor")
        self.positive = per_column("positive")
        self.safe_deg = per_column("safe_deg")
        self.threshold = rows.threshold_scale[live][:, None] * per_column("deg")
        source, target = [], []
        for g, at in segments:
            offset = np.arange(at.start, at.stop)[:, None] * width
            source.append((offset + g.src).ravel())
            target.append((offset + g.tgt).ravel())
        self.source = np.concatenate(source)
        self.target = np.concatenate(target)


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

    Everything here is a function of an ordering, its jmax and its row —
    the row's view and scale — alone: prefix volumes and cuts, the
    geometric candidate chain, and the candidates' (C.1), (C.3*) and γ/Vol
    values.  So a block builds it once per fresh pair (:func:`_fresh_pairs`),
    each of the ``(fresh × width)`` orderings one row here, and every pair
    that repeats its predecessor's ordering and jmax shares its fresh
    pair's candidates; only (C.2) reads the pair's own ρ̃.  Candidates are
    listed by flat index into the row-major ``(fresh × (width+1))`` prefix
    grid (``candidates``), with their row, prefix length ``j`` and last
    vertex.  ``row_of`` names each ordering's row of the call, ascending.
    """

    def __init__(self, order, jmax, row_of, rows: _Rows) -> None:
        count, n = order.shape
        row = np.arange(count)[:, None]
        volume = np.zeros((count, n + 1), dtype=np.int64)
        cut = np.zeros((count, n + 1), dtype=np.int64)
        # An edge is inside a prefix from its later endpoint's position on.
        position = np.argsort(order, axis=1)  # the inverse permutation
        segments = rows.segments(row_of)
        closes = [
            (np.maximum(position[at, g.edge_lo], position[at, g.edge_hi]) + row[at] * n)
            .ravel()
            for g, at in segments
        ]
        internal = np.bincount(
            np.concatenate(closes), minlength=count * n
        ).reshape(count, n)
        for g, at in segments:
            np.cumsum(g.deg[order[at]], axis=1, out=volume[at, 1:])
            np.cumsum(
                g.proper[order[at]] - 2 * internal[at], axis=1, out=cut[at, 1:]
            )
        # The geometric candidate chain, by pointer doubling:
        # next(j) = min(max(j+1, largest j' with Vol(j') <= (1+φ)Vol(j)), jmax).
        # Each row is offset by the Vol+1 of the rows before it, so one
        # searchsorted serves them all; both sides are integers (Vol(j') <= x
        # iff Vol(j') <= floor(x)), so every comparison is exact.
        total = rows.total[row_of][:, None]
        offset = np.cumsum(total + 1) - (total[:, 0] + 1)
        offset = offset[:, None]
        limit = np.minimum(
            np.floor((1.0 + rows.phi[row_of])[:, None] * volume), total
        )
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
        of = row_of[self.cand_row]  # each candidate's row of the call
        denom = np.minimum(self.vol, rows.total[of] - self.vol)
        self.conductance = np.full(len(self.candidates), np.inf)
        ok = denom > 0
        self.conductance[ok] = self.boundary[ok] / denom[ok]
        self.static = (
            (self.vol > 0)
            & (self.conductance <= rows.phi[of])  # (C.1)
            & (rows.min_volume[of] <= self.vol)  # (C.3*)
            & (self.vol <= rows.max_volume[of])
        )
        # Candidates have vol >= 1 (their first vertex has positive degree).
        self.gamma_over_volume = rows.gamma[of] / self.vol
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
