"""Benchmark harness for the expander decomposition pipeline.

Five sections, all emitted into one JSON report
(``BENCH_decomposition.json`` by default):

* ``results`` — full decompositions of the four small generator families
  with known ground-truth structure (quality: components vs planted
  structure, certified fraction, ε·m budget; cost: CONGEST rounds, wall
  time).  Unchanged from the original harness.
* ``large_results`` — full decompositions of 10⁴-vertex instances (every
  working graph a peeled-CSR view of the host snapshot).
* ``parallel_scaling`` — the multicore sweep: the two large families
  decomposed at 1, 2, and 4 workers through the shared-memory sharded
  engine (:mod:`repro.parallel`), with the decomposition asserted
  *identical* across worker counts — only wall time is allowed to move.
  Each record carries a ``workers`` field so ``bench/compare.py`` never
  diffs timings across different worker counts.
* ``triangle_results`` — the Theorem 2 application workload:
  decomposition-based triangle enumeration (cluster stage + removed-edge
  recursion, verified exactly against the oriented enumerator) next to
  the CPZ-style degeneracy baseline, with per-stage timings and the
  paper's Õ-style round comparison.  Set agreement between the two
  routes is asserted, never observed.
* ``xl_results`` (``--xl`` only) — the 10⁷-edge stage: a 2·10⁶-vertex
  power-law graph built straight into CSR (no dict detour), persisted
  with :meth:`CSRGraph.to_mmap`, and decomposed entirely from the
  memory-mapped snapshot, recording build/decompose wall times, the
  engaged index dtype (int32 at this size), and peak RSS.  The stage
  prints a heartbeat line every ~10s (components emitted, elapsed wall
  time, peak RSS) so a minutes-long run is visibly alive, and accepts
  ``--resume DIR``: the decomposition journals every completed subtree
  into a :class:`~repro.resilience.journal.RunJournal` at ``DIR``, so a
  killed run re-invoked with the same flag replays the finished subtrees
  from disk and produces the bit-identical decomposition (the record
  carries ``resumed`` and ``journal_replayed`` so the report says which
  happened).

Decomposition records additionally carry ``index_dtype`` (the storage
policy's auto decision for that graph — structural, gated by
``bench/compare.py --smoke``) and ``peak_rss_mb``.

Usage::

    PYTHONPATH=src python bench/decompose.py [--seed N] [--output PATH]
        [--skip-large] [--smoke] [--xl] [--workers N] [--resume DIR]

``--skip-large`` runs only the small sections — the original families
plus the triangle stages (seconds); ``--smoke`` is the CI guard: small
families only, exits non-zero unless every run certifies 100% of its
components within the ε·m budget, every triangle stage agrees with the
oriented enumerator, the sharded engine is cut-identical to the
sequential one, *and* every small family's auto
dtype decision is int32; ``--workers N`` runs the results/large_results
sections through the N-worker engine (recorded per run — outputs are
engine-independent); ``--xl`` adds the 10⁷-edge mmap decomposition
above (minutes).
``bench/compare.py`` diffs two reports.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.decomposition import expander_decomposition
from repro.graphs.csr import CSRGraph, choose_index_dtype
from repro.graphs.graph import Graph
from repro.graphs.generators import (
    barbell_expanders,
    planted_partition_graph,
    power_law_csr,
    power_law_graph,
    ring_of_cliques,
)
from repro.triangles import cpz_baseline_enumeration, decomposition_triangle_enumeration


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (Linux: KB units)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def snapshot_index_dtype(graph) -> str:
    """The index dtype the auto policy picks for this graph's CSR snapshot.

    A pure function of the graph's dimensions, so it gates structurally in
    smoke mode: every small family must report ``int32`` or the storage
    layer's dtype decision has drifted.
    """
    return np.dtype(
        choose_index_dtype(graph.num_vertices, 2 * graph.num_edges)
    ).name


def families(seed: int) -> list[tuple[str, Callable[[], Graph], float, float]]:
    """(name, builder, epsilon, phi) per small benchmark family."""
    return [
        ("ring_of_cliques(6,8)", lambda: ring_of_cliques(6, 8), 0.10, 0.10),
        ("barbell_expanders(32)", lambda: barbell_expanders(32, seed=seed), 0.10, 0.10),
        (
            "planted_partition(4,12)",
            lambda: planted_partition_graph(4, 12, 0.7, 0.02, seed=seed),
            0.20,
            0.10,
        ),
        ("power_law(80)", lambda: power_law_graph(80, seed=seed), 0.30, 0.05),
    ]


def large_families(seed: int) -> list[tuple[str, Callable[[], Graph], float, float, dict]]:
    """(name, builder, epsilon, phi, sparse_cut_kwargs) per ≥10⁴-vertex family.

    These run on the CSR engine; batch sizes are reduced from the Θ(log m)
    default because at this scale a handful of degree-proportional starts
    already finds the planted cuts, and the benchmark measures the engine,
    not the failure-probability constant.
    """
    return [
        (
            "barbell_expanders(5120)",
            lambda: barbell_expanders(5120, degree=8, seed=seed),
            0.10,
            0.10,
            {"num_instances": 6},
        ),
        (
            "ring_of_cliques(640,16)",
            lambda: ring_of_cliques(640, 16),
            0.10,
            0.10,
            {"num_instances": 6, "params_overrides": {"max_t0": 150}},
        ),
    ]


def triangle_families(seed: int, smoke: bool) -> list[tuple[str, Callable[[], Graph], float, float]]:
    """(name, builder, epsilon, phi) per triangle-workload family.

    The smoke run sticks to the four ground-truth families; the full run
    adds a mid-size ring (n=640, 22400 triangles with a closed-form count)
    so the cluster stage is exercised at a larger size.
    """
    out = [(name, builder, eps, phi) for name, builder, eps, phi in families(seed)]
    if not smoke:
        out.append(
            ("ring_of_cliques(40,16)", lambda: ring_of_cliques(40, 16), 0.10, 0.10)
        )
    return out


def run_triangle_stage(
    name: str, graph: Graph, epsilon: float, phi: float, seed: int
) -> dict:
    """Run the Theorem 2 workload and the CPZ baseline on one family.

    Each route is timed doing only its own work (the workload runs with
    ``verify=False`` so its wall time is not padded with a full oriented
    enumeration — the very thing the baseline column measures); agreement
    is then asserted *outside* the timed regions by comparing the two
    routes' triangle sets, which is exact oriented-enumerator equality
    because the baseline is the oriented enumerator.  A disagreement
    raises and aborts the benchmark, so no record with a wrong count can
    ever be written.  Timings split the decomposition investment from the
    enumeration work; rounds put the paper's Õ(n^{1/3})-style charge next
    to the baseline's ⌈√n⌉ one.
    """
    gc.collect()
    begin = time.perf_counter()
    workload = decomposition_triangle_enumeration(
        graph, epsilon=epsilon, phi=phi, seed=seed, verify=False
    )
    workload_s = time.perf_counter() - begin
    begin = time.perf_counter()
    baseline = cpz_baseline_enumeration(graph)
    baseline_s = time.perf_counter() - begin
    agreement = baseline.triangles == workload.triangles
    if not agreement:
        raise AssertionError(f"{name}: baseline and decomposition routes disagree")
    stage = workload.stage_seconds
    return {
        "family": name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "epsilon": epsilon,
        "phi": phi,
        "seed": seed,
        "triangles": workload.count,
        "cluster_triangles": workload.cluster_triangle_count,
        "cross_triangles": workload.cross_triangle_count,
        "levels": workload.num_levels,
        "num_clusters": workload.levels[0].num_clusters if workload.levels else 0,
        "agreement": agreement,  # asserted above: False never reaches a record
        "degeneracy": baseline.degeneracy,
        "decomposition_rounds": round(workload.decomposition_rounds, 1),
        "enumeration_rounds": round(workload.enumeration_rounds, 1),
        "baseline_rounds": round(baseline.report.total_rounds, 1),
        "decompose_time_s": stage["decompose_s"],
        "enumerate_time_s": stage["enumerate_s"],
        "workload_time_s": round(workload_s, 3),
        "baseline_time_s": round(baseline_s, 3),
    }


def run_family(
    name: str,
    graph: Graph,
    epsilon: float,
    phi: float,
    seed: int,
    sparse_cut_kwargs: Optional[dict] = None,
    workers: int = 1,
) -> dict:
    """Decompose one family and collect its quality/cost record.

    ``workers`` selects the execution engine (:mod:`repro.parallel`) and is
    recorded so ``bench/compare.py`` only ever diffs like-for-like worker
    counts — the engine is cut-identical by contract, but its wall time is
    a different measurement.
    """
    # Collect before timing: earlier sections leave live caches/records
    # whose repeated young-generation GC scans otherwise tax dict-heavy
    # runs by ~25% (measured on the n=10240 ring) — harness noise, not
    # algorithm cost.  Same hygiene in every timed stage below.
    gc.collect()
    start = time.perf_counter()
    result = expander_decomposition(
        graph,
        epsilon=epsilon,
        phi=phi,
        seed=seed,
        sparse_cut_kwargs=sparse_cut_kwargs,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    sizes = sorted((len(c) for c in result.components), reverse=True)
    return {
        "family": name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "epsilon": epsilon,
        "phi": phi,
        "seed": seed,
        "workers": int(workers or 1),
        "num_components": result.num_components,
        "component_sizes": sizes,
        "certified_fraction": result.certified_fraction,
        "inter_edge_count": len(result.cut_edges),
        "inter_edge_fraction": result.inter_edge_fraction,
        "within_budget": result.within_budget,
        "congest_rounds": result.report.total_rounds,
        "index_dtype": snapshot_index_dtype(graph),
        "peak_rss_mb": peak_rss_mb(),
        # Resilience fields: these sections run without a deadline, so a
        # partial result here is a broken build — gated structurally by
        # bench/compare.py --smoke exactly like certification is.
        "partial": bool(result.partial),
        "unfinished_components": len(getattr(result, "unfinished_components", ())),
        "wall_time_s": round(elapsed, 3),
    }


def run_xl_decomposition(
    seed: int,
    journal_dir: Optional[str] = None,
    heartbeat_seconds: float = 10.0,
) -> dict:
    """The 10⁷-edge stage: build a power-law CSR, mmap it, decompose from disk.

    ``power_law_csr(2·10⁶, exponent=2.0)`` yields ≈10⁷ edges (mean degree
    ~10) without ever materialising a dict graph.  The snapshot is written
    to a temporary mmap directory, the in-RAM copy is dropped, and the
    decomposition runs entirely against the memory-mapped host — the
    configuration :meth:`CSRGraph.from_mmap` exists for.  The record keeps
    the build and decomposition wall times separate (the generator's stub
    matching is its own O(m) cost) and carries ``index_dtype`` and
    ``peak_rss_mb`` so the report shows the int32 policy engaged and the
    resident set stayed far below the 8-byte-index equivalent.

    While the decomposition runs, a heartbeat line is printed every
    ``heartbeat_seconds`` (fed by the driver's ``on_progress`` callback)
    so the minutes-long stage is visibly alive.  With ``journal_dir`` set
    (the ``--resume`` flag), every completed subtree is checkpointed into
    a :class:`~repro.resilience.journal.RunJournal` there; a re-run after
    a kill replays the journaled subtrees and — by the resume contract
    pinned in ``tests/test_resilience.py`` — produces the bit-identical
    decomposition.  ``resumed``/``journal_replayed`` record whether and
    how much the run replayed.
    """
    journal = None
    journal_replayed = 0
    if journal_dir is not None:
        from repro.resilience import RunJournal

        journal = RunJournal(journal_dir)
        journal_replayed = len(journal)
        if journal_replayed:
            print(
                f"[xl] resuming from journal {journal_dir}: "
                f"{journal_replayed} completed subtrees on disk"
            )
    gc.collect()
    begin = time.perf_counter()
    csr = power_law_csr(2_000_000, exponent=2.0, seed=seed)
    build_s = time.perf_counter() - begin
    n, m = csr.n, csr.num_edges
    index_dtype = np.dtype(csr.indices.dtype).name
    with tempfile.TemporaryDirectory(prefix="bench-xl-") as tmp:
        path = csr.to_mmap(Path(tmp) / "snapshot")
        del csr
        gc.collect()
        mapped = CSRGraph.from_mmap(path)
        begin = time.perf_counter()
        last_beat = [begin]

        def heartbeat(components_done: int) -> None:
            now = time.perf_counter()
            if now - last_beat[0] < heartbeat_seconds:
                return
            last_beat[0] = now
            print(
                f"[xl] heartbeat: {components_done} components emitted, "
                f"{now - begin:.0f}s elapsed, peak RSS {peak_rss_mb()}MB",
                flush=True,
            )

        try:
            result = expander_decomposition(
                mapped,
                epsilon=0.2,
                phi=0.02,
                seed=seed,
                sparse_cut_kwargs={
                    "num_instances": 4,
                    "params_overrides": {"max_t0": 60},
                },
                max_depth=4,
                journal=journal,
                on_progress=heartbeat,
            )
        finally:
            if journal is not None:
                journal.close()
        wall_s = time.perf_counter() - begin
    sizes = sorted((len(c) for c in result.components), reverse=True)
    return {
        "family": f"power_law_csr({n})",
        "num_vertices": n,
        "num_edges": m,
        "epsilon": 0.2,
        "phi": 0.02,
        "seed": seed,
        "index_dtype": index_dtype,
        "build_time_s": round(build_s, 3),
        "wall_time_s": round(wall_s, 3),
        "num_components": result.num_components,
        "largest_components": sizes[:5],
        "certified_fraction": round(result.certified_fraction, 6),
        "inter_edge_fraction": result.inter_edge_fraction,
        "within_budget": result.within_budget,
        "congest_rounds": result.report.total_rounds,
        "partial": bool(result.partial),
        "unfinished_components": len(getattr(result, "unfinished_components", ())),
        "resumed": journal_replayed > 0,
        "journal_replayed": journal_replayed,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_parallel_scaling(
    name: str,
    builder: Callable[[], Graph],
    epsilon: float,
    phi: float,
    seed: int,
    sparse_cut_kwargs: Optional[dict] = None,
    worker_counts: tuple[int, ...] = (1, 2, 4),
) -> list[dict]:
    """The per-stage scaling sweep: the same decomposition at 1/2/4 workers.

    Every run must produce the *same* decomposition — identical component
    vertex sets and removed-edge multiset as the ``workers=1`` reference —
    which is asserted before any record is written: a worker count that
    changes an output aborts the benchmark.  Only wall time may differ,
    and on a multicore box it should (near-linearly on these families,
    whose batches are dominated by ≥10³-vertex peeled views).
    """
    reference: Optional[tuple] = None
    records = []
    for workers in worker_counts:
        record = run_family(
            name,
            builder(),
            epsilon,
            phi,
            seed,
            sparse_cut_kwargs=sparse_cut_kwargs,
            workers=workers,
        )
        structure = (
            record["num_components"],
            record["component_sizes"],
            record["inter_edge_count"],
            record["congest_rounds"],
        )
        if reference is None:
            reference = structure
        elif structure != reference:
            raise AssertionError(
                f"{name}: workers={workers} changed the decomposition "
                f"({structure} != {reference})"
            )
        records.append(record)
    return records


def assert_sharded_identity(
    name: str, graph: Graph, epsilon: float, phi: float, seed: int
) -> None:
    """Assert the sharded engine changes nothing: cut-identical to sequential.

    Runs the decomposition sequentially and then on a
    :class:`~repro.parallel.ShardedExecutor` with the shard-size floor
    dropped to 1, so the process pool genuinely executes every batch even
    on the small smoke families.  Identical component vertex sets and
    removed-edge multisets are required; a mismatch raises and aborts the
    benchmark — the smoke gate treats "the engine changed an output" as a
    broken build, not a data point.
    """
    from repro.parallel import ShardedExecutor

    sequential = expander_decomposition(graph, epsilon=epsilon, phi=phi, seed=seed)
    with ShardedExecutor(2, min_shard_vertices=1) as executor:
        sharded = expander_decomposition(
            graph, epsilon=epsilon, phi=phi, seed=seed, executor=executor
        )
    same_components = {c.vertices for c in sequential.components} == {
        c.vertices for c in sharded.components
    }
    same_cuts = Counter(frozenset(e) for e in sequential.cut_edges) == Counter(
        frozenset(e) for e in sharded.cut_edges
    )
    if not (same_components and same_cuts):
        raise AssertionError(
            f"{name}: sharded engine changed the decomposition "
            f"(components equal: {same_components}, cuts equal: {same_cuts})"
        )


def main() -> None:
    """CLI entry point: run the sections and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    parser.add_argument(
        "--output",
        default="BENCH_decomposition.json",
        help="Output JSON path (default BENCH_decomposition.json)",
    )
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help="Only run the original small-family section",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: small families only, fail unless 100%% certified in budget",
    )
    parser.add_argument(
        "--xl",
        action="store_true",
        help="Add the 10⁷-edge power-law decomposition from an mmap snapshot (minutes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="Worker processes for the results/large_results sections "
        "(default 1 = sequential engine; outputs are identical either way)",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="Journal directory for the --xl decomposition: completed "
        "subtrees are checkpointed there, and a re-run after a kill "
        "replays them bit-identically (requires --xl)",
    )
    args = parser.parse_args()
    if args.resume and not args.xl:
        parser.error("--resume only applies to the --xl stage")

    records = []
    for name, builder, epsilon, phi in families(args.seed):
        record = run_family(
            name, builder(), epsilon, phi, args.seed, workers=args.workers
        )
        records.append(record)
        print(
            f"{name}: {record['num_components']} components, "
            f"certified {record['certified_fraction']:.0%}, "
            f"cut fraction {record['inter_edge_fraction']:.4f} "
            f"(budget ok: {record['within_budget']}), "
            f"{record['congest_rounds']:.0f} rounds, "
            f"{record['wall_time_s']}s"
        )

    if args.smoke:
        # The sharded-identity gate: the process-pool engine (forced to
        # shard even these small graphs) must reproduce the sequential
        # decomposition exactly.
        for name, builder, epsilon, phi in families(args.seed):
            assert_sharded_identity(name, builder(), epsilon, phi, args.seed)
        print("sharded identity: 2-worker runs cut-identical on all families")

    triangle_records = []
    for name, builder, epsilon, phi in triangle_families(args.seed, args.smoke):
        record = run_triangle_stage(name, builder(), epsilon, phi, args.seed)
        triangle_records.append(record)
        print(
            f"[triangles] {name}: {record['triangles']} triangles "
            f"({record['cluster_triangles']} cluster + "
            f"{record['cross_triangles']} cross, {record['levels']} levels, "
            f"agreement asserted), enumeration "
            f"{record['enumeration_rounds']:.0f} vs baseline "
            f"{record['baseline_rounds']:.0f} rounds, "
            f"{record['workload_time_s']}s vs {record['baseline_time_s']}s"
        )

    large_records = []
    scaling_records = []
    xl_records = []
    if not (args.skip_large or args.smoke):
        for name, builder, epsilon, phi, kwargs in large_families(args.seed):
            graph = builder()
            record = run_family(
                name,
                graph,
                epsilon,
                phi,
                args.seed,
                sparse_cut_kwargs=kwargs,
                workers=args.workers,
            )
            large_records.append(record)
            print(
                f"[large] {name}: n={record['num_vertices']}, "
                f"{record['num_components']} components, "
                f"certified {record['certified_fraction']:.0%}, "
                f"budget ok: {record['within_budget']}, {record['wall_time_s']}s"
            )
        for name, builder, epsilon, phi, kwargs in large_families(args.seed):
            family_records = run_parallel_scaling(
                name, builder, epsilon, phi, args.seed, sparse_cut_kwargs=kwargs
            )
            scaling_records.extend(family_records)
            base = family_records[0]["wall_time_s"]
            sweep = ", ".join(
                f"{r['workers']}w {r['wall_time_s']}s"
                f" ({base / r['wall_time_s']:.2f}x)"
                for r in family_records
            )
            print(f"[scaling] {name}: {sweep} (decompositions asserted identical)")
        if args.xl:
            record = run_xl_decomposition(args.seed, journal_dir=args.resume)
            xl_records.append(record)
            resumed = (
                f"resumed ({record['journal_replayed']} subtrees replayed), "
                if record["resumed"]
                else ""
            )
            print(
                f"[xl] {record['family']}: n={record['num_vertices']}, "
                f"m={record['num_edges']} ({record['index_dtype']} indices, "
                f"mmap host), build {record['build_time_s']}s, "
                f"decompose {record['wall_time_s']}s, {resumed}"
                f"{record['num_components']} components, "
                f"certified {record['certified_fraction']:.0%}, "
                f"budget ok: {record['within_budget']}, "
                f"peak RSS {record['peak_rss_mb']}MB"
            )

    payload = {
        "benchmark": "expander_decomposition",
        "results": records,
        "triangle_results": triangle_records,
        "large_results": large_records,
        "parallel_scaling": scaling_records,
        "xl_results": xl_records,
    }
    if args.smoke:
        # The smoke contract: every small family fully certified, in budget,
        # and every triangle stage in exact agreement with the oriented
        # enumerator (a disagreement would already have raised above; the
        # recorded flag is re-checked so the contract is visible here).
        broken = [
            r["family"]
            for r in records
            if r["certified_fraction"] < 1.0 or not r["within_budget"]
        ]
        # The storage-policy gate: every small family fits comfortably under
        # the int32 limit, so the auto dtype decision must pick int32 — a
        # drift back to int64 here means the policy silently stopped
        # engaging, halving nothing and doubling everything.
        broken += [
            f"{r['family']} (index dtype {r['index_dtype']})"
            for r in records
            if r["index_dtype"] != "int32"
        ]
        broken += [
            f"{r['family']} (triangles)"
            for r in triangle_records
            if not r["agreement"]
        ]
        if broken:
            print(f"SMOKE FAILED: uncertified or over-budget families: {broken}")
            sys.exit(1)
        print(
            "smoke passed: all families 100% certified within budget on "
            "int32 snapshots, triangle stages agree with the oriented "
            "enumerator, and the sharded engine is output-identical "
            f"(peak RSS {peak_rss_mb()}MB)"
        )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
