"""Tests for the scenario-world sweep: samplers, scoring, summaries, records.

The load-bearing property is the determinism contract: every non-timing
field of a world record is a pure function of ``(world_seed, axis,
index)`` — independent of the batch kernel, of which other points ran, and of
re-runs.  That is what lets CI diff a fresh smoke sweep against the
committed ``BENCH_world.json`` across machines.

The heavyweight cross-kernel and full-slice checks are marked ``slow``
(run with ``pytest -m slow``); the default run covers the samplers,
scoring, and summary arithmetic plus one cheap end-to-end record.
"""

from __future__ import annotations

import json

import pytest

from repro.worlds import (
    ALL_AXES,
    AXIS_IDS,
    RECOVERY_THRESHOLD,
    best_match_jaccard,
    community_recall,
    jaccard,
    marginal_effects,
    format_marginal_table,
    realize,
    run_point,
    run_sweep,
    sample_point,
    sample_world,
    strip_timing,
)


class TestSamplers:
    def test_same_world_seed_same_parameter_table(self):
        """The whole sampled table is byte-identical across re-runs."""
        assert sample_world(7, 4) == sample_world(7, 4)
        assert sample_world(7, 4) != sample_world(8, 4)

    def test_points_are_independent_of_sweep_shape(self):
        """Counter-addressed streams: point (axis, i) never depends on how
        many points or axes the sweep asked for."""
        full = sample_world(7, 5)
        for point in full:
            assert sample_point(point.axis, point.index, 7) == point
        narrow = sample_world(7, 2, axes=("bridge",))
        assert narrow == [p for p in full if p.axis == "bridge"][:2]

    def test_axis_ids_are_pinned(self):
        """Stream addresses are part of the determinism contract — changing
        one silently reshuffles every committed baseline."""
        assert AXIS_IDS == {
            "sbm": 0,
            "power_law": 1,
            "clique_ring": 2,
            "bridge": 3,
            "skew": 4,
            "disconnected": 5,
        }
        assert ALL_AXES == tuple(AXIS_IDS)

    def test_params_are_json_roundtrippable(self):
        for point in sample_world(3, 3):
            assert json.loads(json.dumps(point.params)) == point.params
            assert isinstance(point.seed, int) and 0 <= point.seed < 2**31
            assert point.name == f"{point.axis}[{point.index:02d}]"

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown world axis"):
            sample_point("mystery", 0, 7)

    @pytest.mark.parametrize("axis", ALL_AXES)
    def test_realize_matches_declared_params(self, axis):
        point = sample_point(axis, 0, world_seed=11)
        graph, metadata = realize(point)
        p = point.params
        if axis == "sbm":
            assert graph.num_vertices == p["num_communities"] * p["community_size"]
            assert metadata.num_communities == p["num_communities"]
        elif axis in ("power_law", "skew"):
            assert graph.num_vertices == p["n"]
            assert metadata.communities is None
        elif axis == "clique_ring":
            assert graph.num_vertices == p["num_cliques"] * p["clique_size"]
            assert metadata.num_communities == p["num_cliques"]
        elif axis == "bridge":
            assert graph.num_vertices == 2 * p["n_per_side"]
            assert metadata.num_communities == 2
        elif axis == "disconnected":
            assert graph.num_vertices == p["num_parts"] * p["part_size"]
            assert metadata.num_communities == p["num_parts"]
            if p["bridge_edges"] == 0:
                assert metadata.planted_cut_conductance == 0.0

    def test_skew_axis_honors_its_cap(self):
        point = sample_point("skew", 1, world_seed=11)
        graph, _ = realize(point)
        assert max(graph.degree(v) for v in graph.vertices()) <= point.params["max_degree"]

    def test_realize_is_deterministic(self):
        for axis in ALL_AXES:
            point = sample_point(axis, 2, world_seed=5)
            a, meta_a = realize(point)
            b, meta_b = realize(point)
            assert sorted(map(repr, a.vertices())) == sorted(map(repr, b.vertices()))
            assert a.num_edges == b.num_edges
            assert meta_a == meta_b


class TestScoring:
    def test_jaccard_basics(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0
        assert jaccard({1, 2}, {3, 4}) == 0.0
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5
        assert jaccard(set(), set()) == 0.0

    def test_best_match_over_components(self):
        community = frozenset({1, 2, 3, 4})
        components = [frozenset({9}), frozenset({1, 2, 3}), frozenset({1, 2, 3, 4, 5})]
        assert best_match_jaccard(community, components) == pytest.approx(4 / 5)
        assert best_match_jaccard(community, []) == 0.0

    def test_perfect_recovery(self):
        planted = [frozenset({1, 2, 3}), frozenset({4, 5, 6})]
        score = community_recall(planted, planted)
        assert score.recall == 1.0
        assert score.mean_jaccard == 1.0
        assert score.exact_matches == 2

    def test_merged_communities_are_rejected(self):
        """A component equal to the union of two equal-size planted
        communities has Jaccard exactly 1/2 against each — below the 0.75
        threshold, so merging must never count as recovery."""
        planted = [frozenset({1, 2, 3}), frozenset({4, 5, 6})]
        merged = [frozenset({1, 2, 3, 4, 5, 6})]
        score = community_recall(planted, merged)
        assert score.recall == 0.0
        assert score.mean_jaccard == pytest.approx(0.5)
        assert score.exact_matches == 0

    def test_one_borderline_vertex_is_tolerated(self):
        planted = [frozenset(range(8))]
        off_by_one = [frozenset(range(7))]
        assert best_match_jaccard(planted[0], off_by_one) == pytest.approx(7 / 8)
        assert community_recall(planted, off_by_one).recall == 1.0
        assert 7 / 8 >= RECOVERY_THRESHOLD > 1 / 2

    def test_empty_planted_raises(self):
        with pytest.raises(ValueError):
            community_recall([], [frozenset({1})])


def make_record(axis, metric, **params):
    """A minimal sweep record for summary tests."""
    return {
        "axis": axis,
        "params": params,
        "certified_fraction": metric,
        "recall": None,
        "within_budget": True,
        "wall_time_s": 0.1,
    }


class TestMarginalEffects:
    def test_known_answer_on_hand_built_table(self):
        """Six records, certified_fraction rising linearly with p: the
        3-bin effect is mean(last two) - mean(first two)."""
        records = [make_record("toy", 0.1 * i, p=i) for i in range(6)]
        rows = marginal_effects(records, metrics=("certified_fraction",), num_bins=3)
        assert len(rows) == 1
        row = rows[0]
        assert row["axis"] == "toy" and row["parameter"] == "p"
        assert [b["count"] for b in row["bins"]] == [2, 2, 2]
        assert row["bins"][0] == {
            "lo": 0,
            "hi": 1,
            "count": 2,
            "means": {"certified_fraction": 0.05},
        }
        assert row["bins"][-1]["means"]["certified_fraction"] == pytest.approx(0.45)
        assert row["effect"]["certified_fraction"] == pytest.approx(0.4)

    def test_constant_parameters_are_skipped(self):
        records = [make_record("toy", 0.5, p=i, fixed=4) for i in range(4)]
        rows = marginal_effects(records, metrics=("certified_fraction",))
        assert [r["parameter"] for r in rows] == ["p"]

    def test_none_metrics_yield_none_effects(self):
        records = [make_record("toy", 0.5, p=i) for i in range(4)]
        rows = marginal_effects(records, metrics=("recall",))
        assert rows[0]["effect"]["recall"] is None
        assert all(b["means"]["recall"] is None for b in rows[0]["bins"])

    def test_bools_average_as_zero_one(self):
        records = [make_record("toy", 0.5, p=i) for i in range(4)]
        records[3]["within_budget"] = False
        rows = marginal_effects(records, metrics=("within_budget",), num_bins=2)
        assert rows[0]["bins"][0]["means"]["within_budget"] == 1.0
        assert rows[0]["bins"][1]["means"]["within_budget"] == 0.5
        assert rows[0]["effect"]["within_budget"] == pytest.approx(-0.5)

    def test_tiny_tables_degrade_to_fewer_bins(self):
        records = [make_record("toy", 0.5, p=i) for i in range(2)]
        rows = marginal_effects(records, metrics=("certified_fraction",), num_bins=3)
        assert len(rows[0]["bins"]) == 2

    def test_axes_and_parameters_are_sorted(self):
        records = [
            make_record("zeta", 0.5, b=i, a=i) for i in range(3)
        ] + [make_record("alpha", 0.5, z=i) for i in range(3)]
        rows = marginal_effects(records, metrics=("certified_fraction",))
        assert [(r["axis"], r["parameter"]) for r in rows] == [
            ("alpha", "z"),
            ("zeta", "a"),
            ("zeta", "b"),
        ]

    def test_format_table_mentions_every_row(self):
        records = [make_record("toy", 0.1 * i, p=i) for i in range(6)]
        rows = marginal_effects(records, metrics=("certified_fraction", "recall"))
        text = format_marginal_table(rows, metrics=("certified_fraction", "recall"))
        assert "[toy] p" in text
        assert "certified_fraction 0.05" in text
        assert "recall n/a" in text


class TestRecords:
    """End-to-end record checks on cheap points (default run)."""

    def test_clique_ring_record_shape(self):
        point = sample_point("clique_ring", 0, world_seed=7)
        record = run_point(point)
        assert record["family"] == point.name
        assert record["num_vertices"] == (
            point.params["num_cliques"] * point.params["clique_size"]
        )
        assert isinstance(record["precheck_skips"], int)
        assert isinstance(record["congest_rounds"], float)
        assert record["planted_communities"] == point.params["num_cliques"]
        assert record["recall"] is not None
        assert 0.0 <= record["certified_fraction"] <= 1.0
        assert json.loads(json.dumps(record)) == record

    def test_record_is_kernel_invariant(self, kernel):
        """lockstep, workspace, and auto must agree on every non-timing field."""
        point = sample_point("disconnected", 0, world_seed=7)
        stripped = {}
        for which in ("lockstep", "workspace", "auto"):
            with kernel(which):
                record = run_point(point)
            record.pop("wall_time_s")
            stripped[which] = record
        assert stripped["lockstep"] == stripped["workspace"] == stripped["auto"]

    def test_power_law_record_has_no_fake_recall(self):
        point = sample_point("power_law", 0, world_seed=7)
        record = run_point(point)
        assert record["recall"] is None
        assert record["mean_jaccard"] is None
        assert record["exact_matches"] is None
        assert record["planted_communities"] == 0


@pytest.mark.slow
class TestSweepDeterminism:
    """The full contract on a real (small) sweep — heavyweight, so slow."""

    AXES = ("sbm", "clique_ring", "bridge", "disconnected")

    def test_rerun_is_identical_modulo_timing(self):
        first = run_sweep(7, 2, axes=self.AXES)
        second = run_sweep(7, 2, axes=self.AXES)
        assert strip_timing(first) == strip_timing(second)
        assert len(first["world_results"]) == 2 * len(self.AXES)

    def test_kernels_agree_on_a_sweep(self, kernel):
        cleaned = {}
        for which in ("lockstep", "workspace"):
            with kernel(which):
                payload = run_sweep(7, 2, axes=("sbm", "disconnected"))
            cleaned[which] = strip_timing(payload)
        assert cleaned["lockstep"] == cleaned["workspace"]

    def test_sweep_payload_summary_matches_records(self):
        payload = run_sweep(7, 3, axes=("clique_ring",))
        assert payload["marginal_effects"] == marginal_effects(
            payload["world_results"]
        )
