"""Lockstep ParallelNibble kernel vs the dict oracle and the workspace, row by row.

:func:`repro.nibble.lockstep.lockstep_approximate_nibble` runs a whole
batch on a :class:`~repro.graphs.peel.PeeledCSR` view as the rows of one
dense walk-and-sweep.  Every row must equal — bit for bit, every
:class:`NibbleCut` field — both what the dict walk
(:func:`~repro.walks.lazy_walk.truncated_walk_iter`) fed through the dict
scan (:func:`~repro.nibble.nibble.scan_walk_sequence`) returns for the
same ``(start, scale)`` on the materialised view (``view.to_graph()``),
and what one :class:`~repro.graphs.csr.WalkWorkspace` walk on the view
(:func:`~repro.nibble.nibble.approximate_nibble`) returns.  The cases
below cover the benchmark families' small pieces at every scale, views
with gaps, views after peels, int32 and int64 bases, a memory-mapped
base, degenerate rows, rows that retire at each stop rule while others
keep walking, block boundaries at several block lengths, the deadline,
a graph large enough that a superlinear table would show, and the reuse
of one fresh pair's prefix statistics by the steps that repeat its
ordering.
"""

import dataclasses

import numpy as np
import pytest

from diffharness import decomposition_signature, generator_families, index_width
from repro.decomposition import expander_decomposition, nearly_most_balanced_sparse_cut
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    erdos_renyi_graph,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR
from repro.nibble import lockstep
from repro.nibble.lockstep import batch_cells, lockstep_approximate_nibble
from repro.nibble.nibble import approximate_nibble, scan_walk_sequence
from repro.nibble.parameters import NibbleParameters
from repro.parallel.executor import sequential_batch
from repro.resilience.deadline import Deadline, DeadlineExpired, deadline_scope
from repro.walks.lazy_walk import truncated_walk_iter


def oracle(graph, start, scale, params):
    """The dict walk and scan for one draw: ``(cut, steps, stop reason)``."""
    seen = []

    def walk():
        for mass in truncated_walk_iter(
            graph, start, params.t0, params.epsilon_b(scale)
        ):
            seen.append(mass)
            yield mass

    cut = scan_walk_sequence(graph, walk(), scale, params, start, approximate=True)
    if not seen[-1]:
        reason = "zero"
    elif len(seen) > 2 and seen[-1] == seen[-2]:
        reason = "fixpoint"
    else:
        assert len(seen) == params.t0 + 1  # the only other stop is t0
        reason = "t0"
    return cut, len(seen) - 1, reason


def assert_rows_match(view, draws, params):
    """Every lockstep row equals the dict oracle and the workspace walk."""
    graph = view.to_graph()
    got = lockstep_approximate_nibble(view, draws, params)
    assert len(got) == len(draws)
    reasons = set()
    for (start, scale), cut in zip(draws, got):
        expected, _, reason = oracle(graph, start, scale, params)
        assert cut == expected, (start, scale)
        assert cut == approximate_nibble(view, start, scale, params), (start, scale)
        reasons.add(reason)
    return reasons


def every_draw(view, params, stride=3):
    """Every ``stride``-th alive vertex at every scale."""
    alive = view.alive_indices()
    return [
        (view.vertices[int(i)], b)
        for i in alive[::stride]
        for b in range(1, params.ell + 1)
    ]


#: Block lengths the boundary tests force: single steps, short blocks, a
#: length that leaves ragged blocks, and one block for the whole walk.
BLOCK_STEPS = [1, 2, 7, None]


def block_cells(view, rows, steps):
    """A :data:`~repro.nibble.lockstep.BLOCK_CELLS` whose first block over
    ``rows`` rows is ``steps`` long (``None``: the whole walk)."""
    return 10**12 if steps is None else steps * batch_cells(view, rows)


def subset_view(graph, keep):
    """The uncompacted view of ``keep`` (labels) over a snapshot of ``graph``."""
    base = CSRGraph.from_graph(graph)
    return PeeledCSR.for_subset(base, (base.index[v] for v in keep))


def small_pieces():
    """Pieces of the benchmark families as the recursion hands them to a
    batch: G{S} views over the host snapshot, with gaps in the index space."""
    ring = ring_of_cliques(6, 8)
    barbell = barbell_expanders(32, seed=7)
    planted = planted_partition_graph(4, 12, 0.7, 0.02, seed=7)
    ring_order = sorted(ring.vertices())
    yield "ring_2_cliques", subset_view(ring, ring_order[:16])
    yield "ring_3_cliques", subset_view(ring, ring_order[8:32])
    yield "barbell_side", subset_view(
        barbell, sorted(barbell.vertices(), key=repr)[:24]
    )
    yield "planted_2_blocks", subset_view(
        planted, sorted(planted.vertices(), key=repr)[:24]
    )
    for name, graph in generator_families():
        if graph.num_vertices < 32:
            yield name, PeeledCSR.from_graph(graph)


PIECES = list(small_pieces())


class TestRowParity:
    @pytest.mark.parametrize("name,view", PIECES, ids=[name for name, _ in PIECES])
    def test_every_scale_matches_the_dict_oracle(self, name, view):
        params = NibbleParameters.practical(view, 0.1, max_t0=150)
        assert_rows_match(view, every_draw(view, params), params)

    @pytest.mark.parametrize("steps", BLOCK_STEPS, ids=str)
    def test_each_row_stops_at_the_oracle_step(self, monkeypatch, steps):
        """A one-row batch consults the deadline once per lockstep step, t = 0
        included, so the count of consultations is the step the row stopped
        at; it must be the step the dict scan stopped at, for every stop rule
        and every block length."""
        cases = []
        for view in [v for _, v in PIECES[:4]] + [PeeledCSR.from_graph(mixed_graph())]:
            params = NibbleParameters.practical(view, 0.1, max_t0=150)
            params = dataclasses.replace(
                params, truncation_scale=params.truncation_scale * 40
            )
            starts = sorted(view.to_graph().vertices(), key=repr)[::5]
            draws = [(v, b) for v in starts for b in (1, params.ell)]
            cases.append((view, params, draws))
        view, params, draws = retiring_batch()  # adds rows that stop on zero mass
        starts = ("hub", "looped", ("path", 0), (0, 0), ("leaf", 3))
        cases.append((view, params, [(v, b) for v, b in draws if v in starts]))
        reasons = set()
        for view, params, draws in cases:
            graph = view.to_graph()
            monkeypatch.setattr(lockstep, "BLOCK_CELLS", block_cells(view, 1, steps))
            for start, scale in draws:
                _, stop, reason = oracle(graph, start, scale, params)
                reasons.add(reason)
                ticks = counting_deadline(10**9)
                with deadline_scope(ticks):
                    lockstep_approximate_nibble(view, [(start, scale)], params)
                assert ticks.elapsed() - 1 == stop + 1, (start, scale)
        assert reasons == {"zero", "fixpoint", "t0"}

    def test_heavy_start_walks_to_t0_and_matches_the_oracle(self):
        """A heavy start whose truncated leak is below float32 resolution
        keeps an open support whose ordering stops moving long before t0;
        the row walks every step to t0, as the dict scan does, and returns
        the oracle's cut."""
        graph = ring_of_cliques(2, 8)
        graph.add_edge("heavy", (0, 0))
        graph.add_edge("heavy", (0, 1))
        graph.add_self_loops("heavy", 125_000_000)
        view = PeeledCSR.from_graph(graph)
        params = dataclasses.replace(
            NibbleParameters.practical(graph, 0.1, max_t0=150), truncation_scale=2e-9
        )
        cut, steps, reason = oracle(graph, "heavy", 1, params)
        assert (steps, reason) == (params.t0, "t0")
        ticks = counting_deadline(10**9)
        with deadline_scope(ticks):
            got = lockstep_approximate_nibble(view, [("heavy", 1)], params)
        assert got == [cut]
        assert ticks.elapsed() - 1 == steps + 1

    def test_two_thousand_vertices_match(self):
        """Linear memory: a ~2000-vertex view fits (no n×n table)."""
        view = PeeledCSR.from_graph(ring_of_cliques(250, 8))
        params = NibbleParameters.practical(view, 0.1, max_t0=40)
        vertices = view.vertices
        draws = [(vertices[0], 1), (vertices[777], 2), (vertices[1999], params.ell)]
        assert_rows_match(view, draws, params)


def gapped_views(seed):
    """Views the recursion builds: ⅔ subsets with gaps, then peeled further."""
    rng = np.random.default_rng(seed)
    for graph in (
        ring_of_cliques(5, 6),
        erdos_renyi_graph(36, 0.15, seed=seed),
        barbell_expanders(12, seed=seed),
    ):
        keep = [v for v in sorted(graph.vertices(), key=repr) if rng.random() < 2 / 3]
        view = subset_view(graph, keep)
        yield view
        peeled = view.clone()
        alive = peeled.alive_indices()
        peeled.peel(alive[rng.random(alive.size) < 0.2])
        yield peeled


class TestViewShapes:
    """The kernel reads a view only through its alive rows: gaps in the
    index space, compensating loops from peels, the index width and the
    base's residency must not reach a row."""

    def test_subset_and_peeled_views(self):
        for view in gapped_views(seed=5):
            params = NibbleParameters.practical(view, 0.1, max_t0=120)
            assert view.num_vertices < view.n  # the index space has gaps
            assert_rows_match(view, every_draw(view, params), params)

    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    def test_index_widths(self, index_dtype):
        with index_width(index_dtype):
            views = list(gapped_views(seed=9))
        for view in views:
            assert view.base.indices.dtype == np.dtype(index_dtype)
            params = NibbleParameters.practical(view, 0.1, max_t0=120)
            assert_rows_match(view, every_draw(view, params), params)

    def test_mmap_base(self, tmp_path):
        graph = planted_partition_graph(3, 10, 0.7, 0.05, seed=3)
        path = CSRGraph.from_graph(graph).to_mmap(tmp_path / "snapshot")
        base = CSRGraph.from_mmap(path)
        assert isinstance(base.indices, np.memmap)
        view = PeeledCSR.for_subset(base, range(2, base.n - 3))
        view.peel([5, 9])
        params = NibbleParameters.practical(view, 0.1, max_t0=120)
        assert_rows_match(view, every_draw(view, params, stride=2), params)


def mixed_graph():
    """Several components: a clique ring, a star, a loop-only vertex, an
    isolated vertex and an open path long enough to keep walking."""
    g = ring_of_cliques(3, 5)
    for leaf in range(12):
        g.add_edge("hub", ("leaf", leaf))
    g.add_self_loops("looped", 3)
    g.add_vertex("isolated")
    for i in range(29):
        g.add_edge(("path", i), ("path", i + 1))
    return g


def retiring_batch():
    """A batch on :func:`mixed_graph` whose rows stop on zero mass, on the
    IEEE fixpoint and at t0, each at its own step."""
    view = PeeledCSR.from_graph(mixed_graph())
    base = NibbleParameters.practical(view, 0.2, max_t0=80)
    # A coarse truncation so the star's mass dies out at scale 1.
    params = dataclasses.replace(base, truncation_scale=0.05)
    draws = [(v, b) for v in view.vertices for b in (1, 2, params.ell)]
    return view, params, draws


class TestAdversarialRows:
    def test_degenerate_starts_and_duplicate_draws(self):
        view = PeeledCSR.from_graph(mixed_graph())
        params = NibbleParameters.practical(view, 0.2, max_t0=60)
        draws = [
            ("isolated", 1),  # degree-0 start: all mass stays, never swept
            ("looped", 1),  # loops only: a fixpoint from the first step
            ("hub", 1),
            ((0, 0), 2),
            ((0, 0), 2),  # a duplicate draw gets the same answer
            (("path", 0), params.ell),
        ]
        got = lockstep_approximate_nibble(view, draws, params)
        assert got[3] == got[4]
        assert got[0] is None
        assert_rows_match(view, draws, params)

    def test_rows_retire_at_every_stop_rule_while_others_walk(self):
        """One batch whose rows stop on zero mass, on the IEEE fixpoint and
        at t0 — at different steps — each still matching the oracle."""
        view, params, draws = retiring_batch()
        graph = view.to_graph()
        reasons = assert_rows_match(view, draws, params)
        assert reasons == {"zero", "fixpoint", "t0"}
        steps = {oracle(graph, v, b, params)[1] for v, b in draws}
        assert len(steps) > 3  # rows retire at many different steps

    def test_out_of_range_scale_and_foreign_start_raise(self):
        view = PeeledCSR.from_graph(ring_of_cliques(2, 4))
        params = NibbleParameters.practical(view, 0.1)
        with pytest.raises(ValueError, match="scale"):
            lockstep_approximate_nibble(view, [((0, 0), params.ell + 1)], params)
        with pytest.raises(KeyError):
            lockstep_approximate_nibble(view, [("missing", 1)], params)
        view.peel([view.index[(1, 0)]])
        with pytest.raises(KeyError):  # a peeled start is not in the view
            lockstep_approximate_nibble(view, [((1, 0), 1)], params)
        assert lockstep_approximate_nibble(view, [], params) == []

    def test_empty_graph_batch_draws_nothing(self):
        view = PeeledCSR.from_graph(Graph(vertices=["a", "b"]))
        params = NibbleParameters.practical(view, 0.1)
        assert sequential_batch(view, params, 1, 0, 4) == [
            (i, None, None) for i in range(4)
        ]


def counting_deadline(budget):
    """A deadline whose clock advances by one per reading: ``elapsed()`` is
    the number of ``expired()`` checks so far plus one (its own reading)."""
    ticks = iter(range(10**9))
    return Deadline(budget, clock=lambda: float(next(ticks)))


class TestDeadline:
    def test_expiry_mid_batch_raises(self):
        view = PeeledCSR.from_graph(ring_of_cliques(3, 8))
        params = NibbleParameters.practical(view, 0.1, max_t0=150)
        with deadline_scope(counting_deadline(40)):
            with pytest.raises(DeadlineExpired):
                sequential_batch(view, params, 7, 0, 6)

    def test_sparse_cut_returns_interrupted(self):
        graph = ring_of_cliques(3, 8)  # every batch runs as lockstep rows
        result = nearly_most_balanced_sparse_cut(
            graph, 0.1, seed=3, deadline=counting_deadline(60)
        )
        assert result.interrupted
        assert not result.certified_no_cut
        assert result.cut == frozenset()


def block_schedule(view, stops, t0):
    """The kernel's blocks as ``(first, last)`` steps, for rows that stop
    walking at ``stops`` (t0 for a row that walks to the end)."""
    blocks, t, walking = [], 0, list(stops)
    while t < t0 and walking:
        steps = max(1, lockstep.BLOCK_CELLS // batch_cells(view, len(walking)))
        last = min(t + steps, t0, max(walking))
        blocks.append((t + 1, last))
        walking = [stop for stop in walking if stop > last]
        t = last
    return blocks


class TestBlockBoundaries:
    """A block walks K steps, then sweeps them; no block length may move a
    row, a stop or a deadline consultation."""

    @pytest.mark.parametrize("steps", BLOCK_STEPS, ids=str)
    def test_rows_retiring_mid_block_match(self, monkeypatch, steps):
        """Rows stop on zero mass and on the fixpoint inside a block while
        other rows walk on across its boundary; every row still equals the
        dict oracle and the per-draw workspace."""
        view, params, draws = retiring_batch()
        monkeypatch.setattr(
            lockstep, "BLOCK_CELLS", block_cells(view, len(draws), steps)
        )
        graph = view.to_graph()
        stops = [oracle(graph, v, b, params)[1] for v, b in draws]
        if steps not in (1, None):
            assert any(
                first <= stop < last and max(stops) > last
                for first, last in block_schedule(view, stops, params.t0)
                for stop in stops
            ), "no row retires mid-block while another walks on"
        assert assert_rows_match(view, draws, params) == {"zero", "fixpoint", "t0"}

    @pytest.mark.parametrize("steps", BLOCK_STEPS, ids=str)
    def test_pieces_match(self, monkeypatch, steps):
        for name, view in PIECES[:4]:
            params = NibbleParameters.practical(view, 0.1, max_t0=150)
            draws = every_draw(view, params, stride=5)
            monkeypatch.setattr(
                lockstep, "BLOCK_CELLS", block_cells(view, len(draws), steps)
            )
            assert_rows_match(view, draws, params)

    @pytest.mark.parametrize("steps", [2, 7, None], ids=str)
    def test_expiry_mid_block_raises(self, monkeypatch, steps):
        view = PeeledCSR.from_graph(ring_of_cliques(3, 8))
        params = NibbleParameters.practical(view, 0.1, max_t0=150)
        draws = [((0, 0), 1), ((1, 3), params.ell)]
        monkeypatch.setattr(
            lockstep, "BLOCK_CELLS", block_cells(view, len(draws), steps)
        )
        # The 10th consultation is step 9: inside the fifth 2-step block,
        # the second 7-step block and the one whole-walk block.
        ticks = counting_deadline(10)
        with deadline_scope(ticks):
            with pytest.raises(DeadlineExpired):
                lockstep_approximate_nibble(view, draws, params)
        assert ticks.elapsed() - 1 == 10


def count_prefix_rows(monkeypatch):
    """Spy on the sweep: ``pairs`` swept, and ``rows`` of prefix statistics
    built — one per fresh pair."""
    counts = {"pairs": 0, "rows": 0}
    fresh_pairs, prefixes = lockstep._fresh_pairs, lockstep._Prefixes

    def count_pairs(pair_step, order, jmax):
        counts["pairs"] += len(order)
        return fresh_pairs(pair_step, order, jmax)

    def count_rows(order, *args):
        counts["rows"] += len(order)
        return prefixes(order, *args)

    monkeypatch.setattr(lockstep, "_fresh_pairs", count_pairs)
    monkeypatch.setattr(lockstep, "_Prefixes", count_rows)
    return counts


class TestPrefixReuse:
    """A pair that repeats its row's previous ordering and jmax shares that
    step's prefix statistics; (C.2) still reads its own ρ̃."""

    #: The ``ring`` benchmark workload's decomposition settings.
    RING = {
        "epsilon": 0.1,
        "phi": 0.1,
        "sparse_cut_kwargs": {"num_instances": 6, "params_overrides": {"max_t0": 150}},
    }

    def test_repeated_orderings_are_not_recomputed(self, monkeypatch):
        counts = count_prefix_rows(monkeypatch)
        result = expander_decomposition(ring_of_cliques(6, 8), seed=1, **self.RING)
        assert 0 < counts["rows"] < counts["pairs"]
        assert len(result.components) == 6

    def test_one_step_blocks_recompute_every_pair(self, monkeypatch):
        """With one-step blocks every pair is its row's first step in its
        block, so every pair is fresh — and the outputs do not move."""
        graph = ring_of_cliques(6, 8)
        view = PeeledCSR.from_graph(graph)
        params = NibbleParameters.practical(view, 0.1, max_t0=150)
        draws = every_draw(view, params, stride=7)
        blocked = lockstep_approximate_nibble(view, draws, params)
        expected = decomposition_signature(
            expander_decomposition(graph, seed=1, **self.RING)
        )
        monkeypatch.setattr(lockstep, "BLOCK_CELLS", 1)
        counts = count_prefix_rows(monkeypatch)
        assert lockstep_approximate_nibble(view, draws, params) == blocked
        got = decomposition_signature(expander_decomposition(graph, seed=1, **self.RING))
        assert got == expected
        assert counts["pairs"] > 0 and counts["rows"] == counts["pairs"]

    @pytest.mark.parametrize("steps", [7, None], ids=str)
    def test_c2_reads_each_pairs_own_rho(self, monkeypatch, steps):
        """On a path the ordering is fixed by the distance from the start,
        so most steps reuse their fresh pair's candidates while mass still
        creeps down the path; (C.2) first passes on such a reused step, so
        testing it on the fresh pair's ρ̃ would return a later cut."""
        graph = Graph()
        for i in range(29):
            graph.add_edge(i, i + 1)
        view = PeeledCSR.from_graph(graph)
        params = NibbleParameters.practical(view, 0.1, max_t0=60)
        draws = [(0, 1), (0, 2), (3, 4), (25, 5)]
        monkeypatch.setattr(
            lockstep, "BLOCK_CELLS", block_cells(view, len(draws), steps)
        )
        counts = count_prefix_rows(monkeypatch)
        assert_rows_match(view, draws, params)
        assert counts["rows"] < counts["pairs"]

    def test_same_ordering_with_another_jmax_is_fresh(self):
        """Hand-built pairs: row A's steps 0-3, row B's steps 0-1.  A's step
        1 keeps the ordering but loses a vertex from the support, so it is
        recomputed; A's steps 2-3 and B's step 1 repeat and are reused."""
        same = [2, 0, 1, 3]
        order = np.array([same, same, same, same, [1, 0, 2, 3], [1, 0, 2, 3]])
        jmax = np.array([3, 2, 2, 2, 4, 4])
        pair_step = np.array([0, 1, 2, 3, 0, 1])
        fresh, source = lockstep._fresh_pairs(pair_step, order, jmax)
        assert fresh.tolist() == [True, True, False, False, True, False]
        assert source.tolist() == [0, 1, 1, 1, 2, 2]
        order[3] = [0, 2, 1, 3]  # a moved ordering is fresh as well
        fresh, source = lockstep._fresh_pairs(pair_step, order, jmax)
        assert fresh.tolist() == [True, True, False, True, True, False]
        assert source.tolist() == [0, 1, 1, 2, 3, 3]


def fused_groups():
    """``(view, draws, params)`` groups that differ in n, m, t0, ell and φ:
    two ring pieces, a planted piece whose short t0 ends first, the
    retiring batch's mixed graph, and a one-row path."""
    ring = dict(PIECES)["ring_3_cliques"]
    small_ring = dict(PIECES)["ring_2_cliques"]
    planted = dict(PIECES)["planted_2_blocks"]
    path = Graph()
    for i in range(29):
        path.add_edge(i, i + 1)
    path_view = PeeledCSR.from_graph(path)
    mixed, mixed_params, mixed_draws = retiring_batch()
    groups = []
    for view, params, stride in (
        (ring, NibbleParameters.practical(ring, 0.1, max_t0=150), 4),
        (planted, NibbleParameters.practical(planted, 0.2, max_t0=40), 5),
        (small_ring, NibbleParameters.practical(small_ring, 0.15, max_t0=90), 3),
    ):
        groups.append((view, every_draw(view, params, stride), params))
    groups.append((mixed, mixed_draws[::4], mixed_params))
    path_params = NibbleParameters.practical(path_view, 0.1, max_t0=60)
    groups.append((path_view, [(0, 2)], path_params))
    return groups


def split_by_group(cuts, groups):
    """A fused call's cuts, one list per group."""
    cuts = iter(cuts)
    return [[next(cuts) for _ in draws] for _, draws, _ in groups]


class TestFusedGroups:
    """Several batches in one call: each group is exactly its own call."""

    def test_groups_differ_in_every_shape_parameter(self):
        groups = fused_groups()
        views = [view for view, _, _ in groups]
        params = [p for _, _, p in groups]
        assert len({v.num_vertices for v in views}) > 3
        assert len({v.num_edges for v in views}) == len(groups)
        assert len({p.t0 for p in params}) > 2
        assert len({p.ell for p in params}) > 1
        assert len({p.phi for p in params}) > 1
        assert min(p.t0 for p in params) == params[1].t0  # planted ends first
        assert len(groups[-1][1]) == 1  # a one-row group

    def test_each_group_equals_its_solo_call_and_the_walk(self):
        groups = fused_groups()
        fused = lockstep_approximate_nibble(*groups[0], *groups[1:])
        assert len(fused) == sum(len(draws) for _, draws, _ in groups)
        found = 0
        for (view, draws, params), cuts in zip(groups, split_by_group(fused, groups)):
            assert cuts == lockstep_approximate_nibble(view, draws, params)
            for (start, scale), cut in zip(draws, cuts):
                assert cut == approximate_nibble(view, start, scale, params)
                found += cut is not None
        assert found > 0

    def test_group_order_does_not_matter(self):
        groups = fused_groups()
        expected = split_by_group(lockstep_approximate_nibble(*groups[0], *groups[1:]), groups)
        turned = groups[::-1]
        got = split_by_group(lockstep_approximate_nibble(*turned[0], *turned[1:]), turned)
        assert got[::-1] == expected

    @pytest.mark.parametrize("steps", [1, 7, None], ids=str)
    def test_padding_never_holds_mass(self, monkeypatch, steps):
        """Every block's walk leaves zero mass past each row's own view, and
        the groups still equal their solo calls at every block length."""
        groups = fused_groups()
        solo = [lockstep_approximate_nibble(*group) for group in groups]
        view, draws, _ = groups[0]
        monkeypatch.setattr(lockstep, "BLOCK_CELLS", block_cells(view, len(draws), steps))
        walk, padded = lockstep._walk, []

        def checked(block, mass, *args):
            stack, swept, walking = walk(block, mass, *args)
            for row, n in enumerate(block.n.tolist()):
                assert not mass[row, n:].any()
                assert not stack[:, row, n:].any()
                padded.append(block.width > n)
            return stack, swept, walking

        monkeypatch.setattr(lockstep, "_walk", checked)
        fused = lockstep_approximate_nibble(*groups[0], *groups[1:])
        assert split_by_group(fused, groups) == solo
        assert any(padded)

    def test_a_single_group_is_the_plain_call(self):
        view, draws, params = fused_groups()[0]
        assert lockstep_approximate_nibble(view, draws, params) == (
            lockstep_approximate_nibble(view, draws, params, (view, [], params))
        )
