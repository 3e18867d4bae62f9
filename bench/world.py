"""Scenario-world sweep harness: map where the decomposition lives and dies.

Samples instances across the six world axes (:mod:`repro.worlds.samplers`),
runs the full decomposition pipeline on every point, and writes one tabular
report (``BENCH_world.json``) with a per-point record — certification rate,
recall vs planted structure, removed-edge budget, CONGEST rounds, spectral
pre-check skips, wall time — plus the marginal-effect summary per parameter
axis, which is also printed.

Two modes::

    PYTHONPATH=src python bench/world.py --smoke [--output PATH]
    PYTHONPATH=src python bench/world.py [--seed N] [--points N]
        [--axes sbm,bridge,...] [--workers N]

``--smoke`` is the CI slice: fixed world seed 7, 8 points per axis on all
six axes (48 instances), chosen small enough to finish in minutes on one
core.  Every non-timing field of the report is a pure function of the
world seed, so the CI ``world-smoke`` job re-runs the slice and diffs it
against the committed ``BENCH_world.json`` with ``bench/compare.py
--smoke`` — a certification or recall change gates exactly like a
structural change in the decomposition bench.  The full mode defaults to
25 points per axis (150 instances) for real regime mapping.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.worlds import (
    ALL_AXES,
    SMOKE_POINTS_PER_AXIS,
    SMOKE_WORLD_SEED,
    run_sweep,
    summary_text,
)


def print_progress(record: dict) -> None:
    """One line per finished point: the metrics a human scans for."""
    recall = "n/a" if record["recall"] is None else f"{record['recall']:.2f}"
    print(
        f"{record['family']}: n={record['num_vertices']}, "
        f"m={record['num_edges']}, "
        f"certified {record['certified_fraction']:.0%}, recall {recall}, "
        f"budget ok: {record['within_budget']}, "
        f"skips {record['precheck_skips']}, {record['wall_time_s']}s"
    )


def main() -> None:
    """CLI entry point: run the sweep, print the summary, write the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI slice: fixed seed, 8 points per axis on all six axes",
    )
    parser.add_argument(
        "--seed", type=int, default=SMOKE_WORLD_SEED, help="World seed (default 7)"
    )
    parser.add_argument(
        "--points",
        type=int,
        default=None,
        help="Points per axis (default: 8 with --smoke, 25 otherwise)",
    )
    parser.add_argument(
        "--axes",
        default=None,
        help="Comma-separated axis subset (default: all six)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="Worker processes for the ParallelNibble batches (default 1)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_world.json",
        help="Output JSON path (default BENCH_world.json)",
    )
    args = parser.parse_args()

    if args.smoke:
        seed = SMOKE_WORLD_SEED
        points = args.points if args.points is not None else SMOKE_POINTS_PER_AXIS
        axes = ALL_AXES
    else:
        seed = args.seed
        points = args.points if args.points is not None else 25
        axes = ALL_AXES
    if args.axes:
        axes = tuple(a.strip() for a in args.axes.split(",") if a.strip())
        unknown = [a for a in axes if a not in ALL_AXES]
        if unknown:
            parser.error(f"unknown axes {unknown}; have {list(ALL_AXES)}")

    payload = run_sweep(
        seed,
        points,
        axes=axes,
        workers=args.workers,
        progress=print_progress,
    )

    records = payload["world_results"]
    print(f"\n{len(records)} points across {len(axes)} axes (world seed {seed})")
    print("marginal effects (first-bin → last-bin means per sampled parameter):")
    print(summary_text(payload))

    if args.smoke:
        # The smoke contract mirrors bench/decompose.py: a crash above would
        # already have failed the job; here the slice must really be a
        # gate-sized world (enough axes and points to catch a regression
        # anywhere in the sampler → generator → pipeline → scoring chain).
        if len(axes) < 4 or len(records) < 40:
            print(
                f"SMOKE FAILED: slice too small "
                f"({len(records)} points, {len(axes)} axes)"
            )
            sys.exit(1)
        scored = [r for r in records if r["recall"] is not None]
        if not scored:
            print("SMOKE FAILED: no point carried planted ground truth")
            sys.exit(1)
        print(
            f"smoke passed: {len(records)} points, "
            f"{len(scored)} with planted truth "
            f"(mean certified "
            f"{sum(r['certified_fraction'] for r in records) / len(records):.0%}, "
            f"mean recall "
            f"{sum(r['recall'] for r in scored) / len(scored):.0%})"
        )

    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
