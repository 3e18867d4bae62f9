"""Diff two benchmark JSON reports: speedups, regressions, structural drift.

Works on both report kinds the repo emits — ``BENCH_decomposition.json``
(bench/decompose.py) and ``BENCH_world.json`` (bench/world.py); sections
absent from either report are simply skipped, so one tool gates both.

Matches the records of every section by family name — and, where records
carry a ``workers`` field, by ``(family, workers)``, so a 4-worker run is
only ever compared against another 4-worker run — prints a per-family /
per-stage speedup table (old time ÷ new time), and exits non-zero when any
stage of any family regressed by more than ``--threshold`` (default 25%).
Tiny absolute times are exempt (``--min-seconds``, default 0.05s): a 1ms
stage jumping to 2ms is scheduler noise, not a regression.

``--smoke`` is the CI mode: the two reports come from *different machines*
(the committed baseline from the bench box, the fresh run from a CI
runner), so wall-clock regressions are not enforceable — instead the
structural results (component counts, certification, budget flags,
triangle counts, agreement) of every family present in both reports must
match exactly, while the timing table is still printed for the log.  A
structural mismatch exits non-zero.

Usage::

    python bench/compare.py BASELINE.json NEW.json [--threshold 0.25]
        [--min-seconds 0.05] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys

#: Wall-clock fields compared per section (regression gate + speedup table).
TIME_FIELDS = {
    "results": ("wall_time_s",),
    "triangle_results": (
        "decompose_time_s",
        "enumerate_time_s",
        "workload_time_s",
        "baseline_time_s",
    ),
    "large_results": ("wall_time_s",),
    "parallel_scaling": ("wall_time_s",),
    "xl_results": ("build_time_s", "wall_time_s"),
    "world_results": ("wall_time_s",),
}

#: Structural fields that must match exactly in ``--smoke`` mode.
#: A field absent from either record is skipped (see the gate below), so
#: baselines written before a field existed stay valid: ``partial`` and
#: ``unfinished_components`` — the resilience gate that no deadline-free
#: bench run ever returns a flagged-partial decomposition — only engage
#: once both reports carry them.
STRUCT_FIELDS = {
    # ``index_dtype`` is deterministic (a pure function of graph size and
    # the auto policy), so a drifting dtype decision gates like structure.
    "results": (
        "num_components",
        "certified_fraction",
        "within_budget",
        "index_dtype",
        "partial",
        "unfinished_components",
    ),
    "triangle_results": ("triangles", "cluster_triangles", "cross_triangles", "agreement"),
    "large_results": (
        "num_components",
        "certified_fraction",
        "within_budget",
        "index_dtype",
        "partial",
        "unfinished_components",
    ),
    "parallel_scaling": ("num_components", "certified_fraction", "within_budget"),
    "xl_results": (
        "num_components",
        "certified_fraction",
        "within_budget",
        "index_dtype",
        "partial",
        "unfinished_components",
    ),
    # The world sweep's determinism contract: everything but wall time is a
    # pure function of the world seed, so certification/recall regressions
    # gate cross-machine exactly like decomposition structure does.
    "world_results": (
        "num_vertices",
        "num_edges",
        "num_components",
        "certified_fraction",
        "within_budget",
        "congest_rounds",
        "precheck_skips",
        "recall",
        "mean_jaccard",
        "exact_matches",
    ),
}


def load_report(path: str) -> dict:
    """Read one benchmark JSON report."""
    with open(path) as handle:
        return json.load(handle)


def record_key(record: dict) -> tuple[str, int]:
    """The identity of one record: ``(family, workers)``.

    Records written before the parallel engine existed carry no
    ``workers`` field; they ran sequentially, so they compare against
    ``workers=1`` runs — never against multi-worker timings.
    """
    return (record["family"], int(record.get("workers", 1)))


def format_key(key: tuple[str, int]) -> str:
    """Human label for a record key (worker count only when parallel)."""
    family, workers = key
    return family if workers == 1 else f"{family} [{workers}w]"


def index_by_family(records: list[dict]) -> dict[tuple[str, int], dict]:
    """Map a section's records by ``(family, workers)``."""
    return {record_key(record): record for record in records}


def compare_reports(
    baseline: dict, new: dict, threshold: float, min_seconds: float, smoke: bool
) -> tuple[list[str], list[str]]:
    """Return ``(table_lines, failures)`` for the two reports.

    Speedup is ``old / new`` (>1 means the new report is faster).  In smoke
    mode the failures come from structural mismatches; otherwise from time
    regressions beyond ``threshold`` (with the ``min_seconds`` exemption).
    """
    lines: list[str] = []
    failures: list[str] = []
    for section, fields in TIME_FIELDS.items():
        old_records = index_by_family(baseline.get(section, []) or [])
        new_records = index_by_family(new.get(section, []) or [])
        shared = [f for f in old_records if f in new_records]
        if not shared:
            continue
        lines.append(f"[{section}]")
        for key in shared:
            family = format_key(key)
            old, fresh = old_records[key], new_records[key]
            cells = []
            for field in fields:
                if field not in old or field not in fresh:
                    continue
                before, after = float(old[field]), float(fresh[field])
                speedup = before / after if after > 0 else float("inf")
                cells.append(f"{field} {before:.3f}s→{after:.3f}s ({speedup:.2f}x)")
                regressed = (
                    after > before * (1.0 + threshold)
                    and after - before > min_seconds
                )
                if regressed and not smoke:
                    failures.append(
                        f"{section}/{family}/{field}: {before:.3f}s → {after:.3f}s "
                        f"(> {threshold:.0%} regression)"
                    )
            lines.append(f"  {family}: " + ", ".join(cells))
            if smoke:
                for field in STRUCT_FIELDS.get(section, ()):
                    if field in old and field in fresh and old[field] != fresh[field]:
                        failures.append(
                            f"{section}/{family}/{field}: structural mismatch "
                            f"{old[field]!r} != {fresh[field]!r}"
                        )
    return lines, failures


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="Baseline BENCH_decomposition.json")
    parser.add_argument("new", help="Fresh BENCH_decomposition.json to compare")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="Allowed fractional slowdown per stage (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="Ignore regressions smaller than this many seconds (default 0.05)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: enforce structural equality, report timings without gating",
    )
    args = parser.parse_args()

    baseline = load_report(args.baseline)
    new = load_report(args.new)
    lines, failures = compare_reports(
        baseline, new, args.threshold, args.min_seconds, args.smoke
    )
    for line in lines:
        print(line)
    if failures:
        kind = "structural mismatches" if args.smoke else "regressions"
        print(f"COMPARE FAILED: {len(failures)} {kind}")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    print("compare passed: no " + ("structural mismatches" if args.smoke else "stage regressions"))


if __name__ == "__main__":
    main()
