"""The world-sweep runner: sampled points → decomposition records → report.

For every sampled :class:`~repro.worlds.samplers.WorldPoint` this module
builds the instance, runs the full pipeline
(:func:`repro.decomposition.expander_decomposition`), and distills one
JSON-able record: certification rate, recall against the planted truth,
removed-edge budget, CONGEST rounds, pre-check skip counts, and wall
time.  Everything except ``wall_time_s``
is a pure function of ``(world_seed, axis, index)`` — the determinism
contract that lets ``bench/compare.py --smoke`` gate certification and
recall regressions across machines exactly like it gates structure in the
decomposition bench.
"""

from __future__ import annotations

import gc
import time
from typing import Optional, Sequence

from ..decomposition import expander_decomposition
from .samplers import ALL_AXES, WorldPoint, realize, sample_world
from .scoring import community_recall
from .summary import format_marginal_table, marginal_effects

#: Record fields that may differ between runs of the same point (everything
#: else must be byte-identical for a fixed world seed).
TIMING_FIELDS = ("wall_time_s",)

#: The fixed-seed CI slice: 8 points on each of the six axes (48 instances).
SMOKE_WORLD_SEED = 7
SMOKE_POINTS_PER_AXIS = 8

#: The full sweep default: 25 points per axis = 150 instances.
FULL_POINTS_PER_AXIS = 25


def run_point(point: WorldPoint, workers: int = 1) -> dict:
    """Run the decomposition pipeline on one sampled point and record it.

    The record's ``family`` key (``axis[index]``) is what
    ``bench/compare.py`` matches on; ``recall`` / ``mean_jaccard`` /
    ``exact_matches`` are ``None`` for families without planted truth
    (power-law draws) rather than a fabricated number.
    """
    graph, metadata = realize(point)
    gc.collect()
    start = time.perf_counter()
    result = expander_decomposition(
        graph,
        epsilon=point.epsilon,
        phi=point.phi,
        seed=point.seed,
        workers=workers,
    )
    elapsed = time.perf_counter() - start

    record = {
        "family": point.name,
        "axis": point.axis,
        "index": point.index,
        "params": dict(point.params),
        "seed": point.seed,
        "epsilon": point.epsilon,
        "phi": point.phi,
        "workers": int(workers or 1),
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_components": result.num_components,
        "certified_fraction": round(result.certified_fraction, 6),
        "inter_edge_fraction": round(result.inter_edge_fraction, 6),
        "within_budget": result.within_budget,
        "congest_rounds": round(result.report.total_rounds, 1),
        "precheck_skips": result.precheck_skips,
        "planted_communities": metadata.num_communities,
        "planted_cut_conductance": (
            round(metadata.planted_cut_conductance, 6)
            if metadata.planted_cut_conductance is not None
            else None
        ),
        "recall": None,
        "mean_jaccard": None,
        "exact_matches": None,
        "wall_time_s": round(elapsed, 3),
    }
    if metadata.communities:
        score = community_recall(metadata.communities, result.component_sets())
        record["recall"] = round(score.recall, 6)
        record["mean_jaccard"] = round(score.mean_jaccard, 6)
        record["exact_matches"] = score.exact_matches
    return record


def run_sweep(
    world_seed: int,
    points_per_axis: int,
    axes: Sequence[str] = ALL_AXES,
    workers: int = 1,
    progress: Optional[callable] = None,
) -> dict:
    """Sample and run the whole world; return the report payload.

    The payload has the sweep configuration, one ``world_results`` record
    per point, and the ``marginal_effects`` table
    (:func:`repro.worlds.summary.marginal_effects`).  ``progress``, when
    given, is called with each finished record (the CLI prints from it).
    """
    points = sample_world(world_seed, points_per_axis, tuple(axes))
    records = []
    for point in points:
        record = run_point(point, workers=workers)
        records.append(record)
        if progress is not None:
            progress(record)
    return {
        "benchmark": "world_sweep",
        "world_seed": world_seed,
        "points_per_axis": points_per_axis,
        "axes": list(axes),
        "workers": int(workers or 1),
        "world_results": records,
        "marginal_effects": marginal_effects(records),
    }


def strip_timing(payload: dict) -> dict:
    """A deep copy of the payload with the timing fields removed.

    ``wall_time_s`` participates in the marginal-effect means, so the
    summary is stripped wholesale too — determinism tests compare the
    stripped payloads byte-for-byte (the summary is a pure function of the
    records, so equality of stripped records implies equality of every
    non-timing summary column).
    """
    import copy

    clean = copy.deepcopy(payload)
    for record in clean.get("world_results", []):
        for field in TIMING_FIELDS:
            record.pop(field, None)
    for row in clean.get("marginal_effects", []):
        for bin_row in row["bins"]:
            for field in TIMING_FIELDS:
                bin_row["means"].pop(field, None)
        for field in TIMING_FIELDS:
            row["effect"].pop(field, None)
    return clean


def summary_text(payload: dict) -> str:
    """The printed marginal-effect summary for a sweep payload."""
    return format_marginal_table(payload["marginal_effects"])
