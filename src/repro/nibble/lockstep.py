"""Lockstep ParallelNibble: a batch as one multi-row walk on a peeled view.

The paper runs a ParallelNibble batch's RandomNibble instances at the
same time (Lemma 10 charges the batch max-of-instances rounds).
:func:`lockstep_approximate_nibble` does the same in numpy: every
distinct ``(start, scale)`` draw of a batch on a
:class:`~repro.graphs.peel.PeeledCSR` view becomes one row of a dense
``(rows × n)`` float64 mass array over the view's ``n`` alive vertices,
and each lockstep time step runs, for all live rows at once, the
truncated lazy-walk step, the ρ̃ sweep, (C.1)–(C.3*) on the geometric
candidate prefixes, the best-cut update and the three stop rules of the
single-walk scans (zero mass, IEEE fixpoint, adaptive stop).  Rows
retire one by one.

Each row is bit-identical to ``approximate_nibble(view, start, scale,
params, adaptive=adaptive)`` by construction, not by tolerance:

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
* the best-cut tie rule (min (Φ, −Vol), earlier t, smaller j) and the
  adaptive stop signature (ordering, certified set, float32 ρ̃) are
  those of the single-walk scans;
* work is skipped only where its result is already known: prefix
  statistics are reused while every row's ordering and jmax repeat, and
  the best-cut update is skipped while the same prefixes certify.

Memory is linear: every per-step array is ``rows × (n + 2m)`` at most,
which is what :data:`repro.parallel.worker.LOCKSTEP_CELL_BUDGET` bounds.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from ..graphs.peel import PeeledCSR
from ..resilience.deadline import check_walk_deadline
from .nibble import NibbleCut
from .parameters import NibbleParameters
from .sweep import ADAPTIVE_STABLE_STEPS


def lockstep_approximate_nibble(
    view: PeeledCSR,
    draws: Sequence[tuple[Hashable, int]],
    params: NibbleParameters,
    adaptive: bool = True,
) -> list[Optional[NibbleCut]]:
    """ApproximateNibble for every ``(start, scale)`` of ``draws`` at once.

    Returns one cut (or ``None``) per draw, in order, each equal to
    ``approximate_nibble(view, start, scale, params, adaptive=adaptive)``.
    A start must be an alive vertex of ``view``.  The ambient deadline is
    checked once per lockstep time step.  Round accounting is the
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
    stable = ADAPTIVE_STABLE_STEPS if adaptive else None
    # Scatter bins for up to ``len(draws)`` rows, sliced to the live count.
    bins = (np.arange(len(draws))[:, None] * n + tgt).ravel()
    graph_arrays = (deg, proper, edge_lo, edge_hi, total, max_volume)

    columns = len(draws)
    rows = _Rows(
        col=np.arange(columns),
        mass=np.zeros((columns, n)),
        threshold=np.array([2.0 * params.epsilon_b(b) for _, b in draws])[:, None]
        * deg,
        min_volume=np.array([params.min_cut_volume(b) for _, b in draws]),
        repeats=np.zeros(columns, dtype=np.int64),
        # No swept step yet: a jmax of -1 matches no signature.
        last_signature=np.full((columns, 1), -1, dtype=np.int64),
    )
    rows.mass[np.arange(columns), np.searchsorted(alive, starts)] = 1.0
    # Best cut per draw: its (Φ, -Vol) key — (inf, 0) loses to any
    # certified prefix — and (t, j, |∂|, prefix) once one certifies.
    best_conductance = np.full(columns, np.inf)
    best_neg_volume = np.zeros(columns, dtype=np.int64)
    best: list[Optional[tuple]] = [None] * columns
    prefixes: Optional[_Prefixes] = None
    last_hit = None

    for t in range(params.t0 + 1):
        check_walk_deadline()
        if t == 0:
            continue  # p̃_0 = χ_v is never certified (its prefix is trivial)
        # -- truncated lazy-walk step ------------------------------------
        count = len(rows.col)
        mass = rows.mass
        share = (mass / share_divisor)[:, src]
        walked = np.bincount(
            bins[: count * len(src)], weights=share.ravel(), minlength=count * n
        )
        walked = walked.reshape(count, n) + mass * keep_factor
        walked[walked < rows.threshold] = 0.0
        rows.mass = walked
        # -- zero-mass and fixpoint stops --------------------------------
        live = walked.any(axis=1)
        if t >= 2:
            live &= (walked != mass).any(axis=1)
        if not live.all():
            rows.keep(live)
            prefixes = None
            if len(rows.col) == 0:
                break
        mass = rows.mass
        # -- ρ̃ sweep -----------------------------------------------------
        support = (mass > 0.0) & positive
        rho = np.where(support, mass / safe_deg, 0.0)
        order = np.argsort(np.where(support, -rho, np.inf), axis=1, kind="stable")
        jmax = support.sum(axis=1)
        # Everything but (C.2) is a function of the ordering and jmax alone,
        # and late in a walk the ordering rarely moves: reuse it then.
        reused = (
            prefixes is not None
            and np.array_equal(order, prefixes.order)
            and np.array_equal(jmax, prefixes.jmax)
        )
        if not reused:
            prefixes = _Prefixes(order, jmax, rows.min_volume, params, *graph_arrays)
        rho_sorted = rho.ravel()[prefixes.flat_order]
        certified = prefixes.static & (
            rho_sorted[prefixes.rho_at] >= prefixes.gamma_over_volume  # (C.2)
        )
        hit = np.flatnonzero(certified)
        # -- best-cut update ---------------------------------------------
        # Per row the step's winner is min (Φ, -Vol), then smallest j; it
        # replaces the row's best only if strictly better, so ties go to
        # the earlier time step — the single-walk scans' rule.  The same prefixes
        # certifying as last step means the same winners, which cannot
        # beat themselves.
        if hit.size and not (reused and np.array_equal(hit, last_hit)):
            _update_best(
                prefixes, hit, t, rows.col, best_conductance, best_neg_volume, best
            )
        last_hit = hit
        if stable is None:
            continue
        # -- adaptive stop: stable signature and closed support ----------
        # Signature row: jmax, the ordering, the float32 ρ̃ bits and the
        # certified-prefix mask.  With jmax equal, equal full-length rows
        # mean equal supports, orderings, ρ̃ values and certified sets.  A
        # row with jmax == 0 holds all its mass on degree-0 vertices, so it
        # is a fixpoint and retires next step; its tracker is never read.
        certified_at = np.zeros(len(rows.col) * (n + 1), dtype=np.int64)
        certified_at[prefixes.candidates[hit]] = 1
        signature = np.concatenate(
            (
                jmax[:, None],
                order,
                rho_sorted.astype(np.float32).view(np.int32).reshape(order.shape),
                certified_at.reshape(len(rows.col), n + 1),
            ),
            axis=1,
        )
        rows.repeats = np.where(
            (signature == rows.last_signature).all(axis=1), rows.repeats + 1, 0
        )
        rows.last_signature = signature
        done = (jmax > 0) & (rows.repeats >= stable) & prefixes.closed
        if done.any():
            rows.keep(~done)
            prefixes = None
            if len(rows.col) == 0:
                break

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


class _Rows:
    """The live rows' state; :meth:`keep` drops retired rows from every array.

    ``col`` maps a row to its draw; ``threshold`` and ``min_volume`` are
    the row's truncation and (C.3*) bounds; ``last_signature`` and
    ``repeats`` are the row's :class:`~repro.nibble.sweep.WalkBudgetTracker`
    — the previous swept step's signature and how often it has repeated.
    """

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def keep(self, live: np.ndarray) -> None:
        """Keep only the rows where ``live`` is set."""
        for name in list(self.__dict__):
            setattr(self, name, getattr(self, name)[live])


class _Prefixes:
    """Prefix statistics of one step's orderings, and their candidates.

    Everything here depends on the ``(rows × n)`` ordering, jmax and the
    rows' scales only: prefix volumes and cuts, the geometric candidate
    chain, and the candidates' (C.1), (C.3*) and γ/Vol values.  Flat
    indices address the row-major ``(rows × (n+1))`` prefix grid
    (``candidates``) and the ``(rows × n)`` ordered ρ̃ (``flat_order``,
    ``rho_at``).
    """

    def __init__(
        self, order, jmax, min_volume, params, deg, proper, edge_lo, edge_hi,
        total, max_volume,
    ) -> None:
        count, n = order.shape
        row = np.arange(count)[:, None]
        self.order, self.jmax = order, jmax
        self.flat_order = (order + row * n).ravel()
        volume = np.zeros((count, n + 1), dtype=np.int64)
        np.cumsum(deg[order], axis=1, out=volume[:, 1:])
        # An edge is inside a prefix from its later endpoint's position on.
        position = np.argsort(order, axis=1)  # the inverse permutation
        closes = np.maximum(position[:, edge_lo], position[:, edge_hi]) + row * n
        internal = np.bincount(closes.ravel(), minlength=count * n).reshape(count, n)
        cut = np.zeros((count, n + 1), dtype=np.int64)
        np.cumsum(proper[order] - 2 * internal, axis=1, out=cut[:, 1:])
        self.closed = cut[row[:, 0], jmax] == 0
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
        # (C.1) and (C.3*) on the candidates; (C.2) needs the step's ρ̃.
        self.candidates = np.flatnonzero(on_chain)
        self.cand_row, self.cand_j = np.divmod(self.candidates, n + 1)
        self.rho_at = self.cand_row * n + self.cand_j - 1
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


def _update_best(prefixes, hit, t, col, best_conductance, best_neg_volume, best):
    """Fold one step's certified candidates ``hit`` into the per-draw best."""
    p = prefixes
    ranked = hit[
        np.lexsort((p.cand_j[hit], -p.vol[hit], p.conductance[hit], p.cand_row[hit]))
    ]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = p.cand_row[ranked[1:]] != p.cand_row[ranked[:-1]]
    win = ranked[first]
    draw = col[p.cand_row[win]]
    conductance, neg_volume = p.conductance[win], -p.vol[win]
    better = (conductance < best_conductance[draw]) | (
        (conductance == best_conductance[draw])
        & (neg_volume < best_neg_volume[draw])
    )
    best_conductance[draw[better]] = conductance[better]
    best_neg_volume[draw[better]] = neg_volume[better]
    for pick, d in zip(win[better].tolist(), draw[better].tolist()):
        j = int(p.cand_j[pick])
        prefix = p.order[p.cand_row[pick], :j].copy()
        best[d] = (t, j, int(p.boundary[pick]), prefix)
