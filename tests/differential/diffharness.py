"""Differential-testing harness: one matrix, every configuration, bit-identical.

The repository's core correctness contract is that every execution
configuration — the dict oracle, the CSR engine
(:class:`~repro.graphs.csr.WalkWorkspace` kernels on peeled views), int32
and int64 index storage, memory-mapped snapshots, the certification fast
path on or off, and permuted sibling scheduling — produces
*bit-identical* outputs: the same cuts, the same RNG post-states, the same
round accounting.  This module is the single place that contract is
written down as executable code.

The library picks the walk engine by graph type and size
(:func:`repro.graphs.csr.uses_csr_engine`), so the engine column of the
matrix is an :func:`engine_threshold` scope: dict cells raise the size
threshold above every family's vertex count, csr cells lower it to 0,
and auto cells keep the library default.  The scope covers the main
process; pool workers (``REPRO_DIFF_WORKERS``) run under the threshold
they were forked with, which bit-identity makes invisible to every
output.

:data:`MATRIX` enumerates the configurations.  The one entry
point, :func:`assert_pipeline_identical`, drives a graph through a full
expander decomposition and a sparse-cut harvest under every configuration
and asserts:

* identical decomposition signatures (component vertex sets, removed-edge
  multisets, per-component certification flags and estimates);
* identical sparse-cut results (cut set, conductance, balance, size,
  certification, batch count);
* identical RNG post-states (``rng.bit_generator.state`` after the call)
  — the fast path burns skipped batches' draws, so even it may not
  perturb the stream;
* identical round totals *within each fast-path group* (the pre-check
  charges spectral rounds instead of skipped-batch rounds, so totals are
  only comparable between configurations with the same ``fast_path``).

To add a configuration: append a :class:`BackendConfig` to :data:`MATRIX`
and teach :func:`_host_graph` how to build its host view if it needs one.
Every differential test picks the new configuration up automatically
(see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from repro.graphs import csr as csr_backend
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    barbell_expanders,
    dumbbell_cliques,
    erdos_renyi_graph,
    grid_graph,
    planted_partition_graph,
    power_law_graph,
    random_regular_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.peel import PeeledCSR
from repro.parallel import SequentialExecutor


#: Engine threshold of the dict cells: one above every family's vertex
#: count (:func:`generator_families`), so every working graph the suite
#: builds stays on the dict engine.
DICT_ONLY = 81


@dataclass(frozen=True)
class BackendConfig:
    """One cell of the configuration matrix.

    ``engine_threshold`` is the CSR size threshold the cell runs under
    (:func:`engine_threshold`; ``None`` keeps the library default,
    :data:`DICT_ONLY` pins the dict engine, 0 the CSR engine);
    ``index_dtype`` is ``"int32"`` (the automatic choice on every family
    here) or ``"int64"`` (wide storage forced via
    :func:`index_width`); ``fast_path`` toggles the spectral pre-check
    layer; ``mmap`` round-trips the graph through a memory-mapped
    :class:`CSRGraph` snapshot and uses it as the host.
    """

    name: str
    engine_threshold: Optional[int] = None
    index_dtype: str = "int32"
    fast_path: bool = True
    mmap: bool = False
    #: Sibling-order column: ``"inline"`` (the oracle ordering) or
    #: ``"permuted"`` — sibling subtrees executed in a deterministic
    #: shuffled order by :class:`PermutedExecutor`, the in-process stand-in
    #: for pool completion races.
    scheduler: str = "inline"


#: The full configuration matrix.  ``dict`` is the oracle; everything else
#: must match it bit for bit.  Keep at least one dict configuration per
#: fast-path group so round totals always have an oracle to compare to.
MATRIX = (
    BackendConfig("dict", engine_threshold=DICT_ONLY),
    BackendConfig("auto"),
    BackendConfig("csr-int64", engine_threshold=0, index_dtype="int64"),
    BackendConfig("csr-int32", engine_threshold=0, index_dtype="int32"),
    BackendConfig("mmap", mmap=True),
    BackendConfig("dict-nofast", engine_threshold=DICT_ONLY, fast_path=False),
    BackendConfig("auto-nofast", fast_path=False),
    BackendConfig("component-parallel", scheduler="permuted"),
)

#: A cheaper matrix that still touches every axis once (dict oracle,
#: int32, int64, mmap, fast path off, permuted scheduling) — used on the
#: broader generator families where the full matrix would make the
#: suite's runtime quadratic in coverage.
CORE_MATRIX = (
    MATRIX[0],  # dict
    MATRIX[3],  # csr-int32
    MATRIX[2],  # csr-int64
    MATRIX[4],  # mmap
    MATRIX[6],  # auto-nofast
    MATRIX[7],  # component-parallel (permuted sibling scheduling)
)


def generator_families() -> list[tuple[str, Graph]]:
    """Seeded instances of every generator family, at matrix-friendly sizes.

    The first four are the benchmark families every existing parity suite
    pins; the rest broaden structural coverage (sparse random, regular,
    lattice, and the pathological low-conductance chain).
    """
    return [
        ("ring_of_cliques", ring_of_cliques(6, 8)),
        ("barbell", barbell_expanders(32, seed=7)),
        ("planted", planted_partition_graph(4, 12, 0.7, 0.02, seed=7)),
        ("power_law", power_law_graph(80, seed=7)),
        ("erdos_renyi", erdos_renyi_graph(28, 0.2, seed=3)),
        ("random_regular", random_regular_graph(30, 4, seed=11)),
        ("grid", grid_graph(6, 6)),
        ("dumbbell", dumbbell_cliques(4, 3)),
    ]


def decomposition_signature(result):
    """Everything output-relevant about one decomposition."""
    return (
        {c.vertices for c in result.components},
        Counter(frozenset(e) for e in result.cut_edges),
        sorted(
            (tuple(sorted(map(repr, c.vertices))), c.certified, c.conductance_estimate)
            for c in result.components
        ),
    )


def sparse_cut_signature(result):
    """Everything output-relevant about one sparse-cut harvest."""
    return (
        result.cut,
        result.conductance,
        result.balance,
        result.cut_size,
        result.certified_no_cut,
        result.batches,
    )


@contextmanager
def engine_threshold(threshold: Optional[int]):
    """Scope in which working graphs of ``threshold`` or more vertices run CSR.

    Lowers or raises :data:`~repro.graphs.csr.CSR_AUTO_THRESHOLD`, which
    :func:`~repro.graphs.csr.uses_csr_engine` reads at call time;
    ``None`` keeps the library default.
    """
    if threshold is None:
        yield
        return
    previous = csr_backend.CSR_AUTO_THRESHOLD
    csr_backend.CSR_AUTO_THRESHOLD = threshold
    try:
        yield
    finally:
        csr_backend.CSR_AUTO_THRESHOLD = previous


@contextmanager
def index_width(index_dtype: str):
    """Scope in which new CSR snapshots use ``index_dtype`` storage.

    int32 is what :func:`~repro.graphs.csr.choose_index_dtype` picks for
    every graph that fits; ``"int64"`` lowers
    :data:`~repro.graphs.csr.INDEX32_LIMIT` to 0 so nothing fits and every
    snapshot built inside the scope is wide.
    """
    if index_dtype == "int32":
        yield
        return
    if index_dtype != "int64":
        raise ValueError(f"unknown index dtype {index_dtype!r}")
    previous = csr_backend.INDEX32_LIMIT
    csr_backend.INDEX32_LIMIT = 0
    try:
        yield
    finally:
        csr_backend.INDEX32_LIMIT = previous


def _host_graph(graph: Graph, config: BackendConfig, stack):
    """The host object a configuration hands the pipeline.

    For ``mmap`` configurations the graph is converted to CSR, written to
    a memory-mapped snapshot in a temporary directory (kept alive on the
    ``stack``), and read back — so the pipeline really runs off the
    on-disk arrays.
    """
    if not config.mmap:
        return graph
    tmp = stack.enter_context(tempfile.TemporaryDirectory())
    path = CSRGraph.from_graph(graph).to_mmap(Path(tmp) / "snapshot")
    return CSRGraph.from_mmap(path)


_AMBIENT_EXECUTOR = None


def ambient_executor():
    """The suite-wide execution engine, or ``None`` for the sequential default.

    The CI ``component-parity`` job sets ``REPRO_DIFF_WORKERS=<n>`` to run
    this whole differential suite against a real ``n``-worker sharded
    executor with the pool forced on (``min_shard_vertices=1``), so every
    matrix cell exercises pool-side batches *and* pool-side sibling
    subtrees while still asserting bit-identity to the dict oracle.  One
    engine is shared across the suite (one pool, one snapshot cache); the
    executor module's ``atexit`` backstop unlinks its segments at
    interpreter exit.  The ``component-parallel`` cell's decompositions run
    on :class:`PermutedExecutor` instead (its sparse cuts still use this
    engine): the permuted order is that cell's whole point, and the other
    cells already cover pool-side subtrees.

    The ``chaos-parity`` job additionally sets ``REPRO_DIFF_CHAOS=<seed>``:
    the engine becomes a :class:`~repro.resilience.chaos.ChaosExecutor`
    injecting seeded crashes, slowdowns, and corrupted results into the
    pooled work — every fault recovered by the retry layer, every run
    still asserted bit-identical to the fault-free dict oracle.  Hangs are
    exercised by the dedicated chaos tests (``tests/test_chaos.py``), not
    ambiently: a per-item hang would multiply the whole suite's runtime by
    the task timeout.
    """
    global _AMBIENT_EXECUTOR
    workers = int(os.environ.get("REPRO_DIFF_WORKERS", "0") or "0")
    if workers < 1:
        return None
    if _AMBIENT_EXECUTOR is None:
        chaos_seed = os.environ.get("REPRO_DIFF_CHAOS", "")
        if chaos_seed:
            from repro.resilience import ChaosExecutor, ChaosSpec

            _AMBIENT_EXECUTOR = ChaosExecutor(
                workers,
                spec=ChaosSpec(
                    seed=int(chaos_seed),
                    crash=0.05,
                    corrupt=0.05,
                    slow=0.05,
                    slow_seconds=0.01,
                ),
                min_shard_vertices=1,
            )
        else:
            from repro.parallel import ShardedExecutor

            _AMBIENT_EXECUTOR = ShardedExecutor(workers, min_shard_vertices=1)
    return _AMBIENT_EXECUTOR


class PermutedExecutor(SequentialExecutor):
    """Adversarial test engine: sibling subtrees run inline in a shuffled order.

    Each sibling group is executed in a deterministic pseudo-random
    permutation of its submission order — the in-process model of pool
    workers finishing (and delivering) in an arbitrary order — and returned
    in task order.  Batches run exactly as on the sequential oracle.
    Because the recursion is pure (counter-addressed streams, no shared
    mutable state), the outcomes must be bit-identical to the sequential
    executor's; the ``component-parallel`` matrix cell and
    ``test_scheduling.py`` assert exactly that.
    """

    name = "permuted"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def run_siblings(self, tasks, run_inline, spec=None):
        """Run the tasks inline in a shuffled order; return in task order."""
        results: list = [None] * len(tasks)
        for i in self._rng.permutation(len(tasks)):
            results[int(i)] = run_inline(tasks[int(i)])
        return results, set()


def _config_executor(config: BackendConfig):
    """The executor a configuration runs on: permuted, or the ambient one."""
    if config.scheduler == "permuted":
        # Fresh per run so every decomposition sees the same deterministic
        # permutation sequence (the executor is stateful across groups).
        return PermutedExecutor(seed=101)
    return ambient_executor()


def run_decomposition(graph, config, seed, epsilon, phi, **kwargs):
    """One decomposition under ``config``; returns (result, rng post-state)."""
    from contextlib import ExitStack

    with ExitStack() as stack:
        stack.enter_context(index_width(config.index_dtype))
        stack.enter_context(engine_threshold(config.engine_threshold))
        host = _host_graph(graph, config, stack)
        rng = np.random.default_rng(seed)
        result = expander_decomposition(
            host,
            epsilon,
            phi,
            seed=rng,
            fast_path=config.fast_path,
            executor=_config_executor(config),
            **kwargs,
        )
        return result, rng.bit_generator.state


def run_sparse_cut(graph, config, seed, phi, **kwargs):
    """One sparse-cut harvest under ``config``; returns (result, post-state).

    An ``mmap`` configuration runs off a full peeled view over the
    memory-mapped snapshot — the same shape the decomposition driver
    hands the sparse-cut stage for CSR hosts.
    """
    from contextlib import ExitStack

    with ExitStack() as stack:
        stack.enter_context(index_width(config.index_dtype))
        stack.enter_context(engine_threshold(config.engine_threshold))
        host = _host_graph(graph, config, stack)
        if config.mmap:
            host = PeeledCSR.full(host)
        rng = np.random.default_rng(seed)
        result = nearly_most_balanced_sparse_cut(
            host,
            phi,
            seed=rng,
            fast_path=config.fast_path,
            executor=ambient_executor(),
            **kwargs,
        )
        return result, rng.bit_generator.state


def assert_pipeline_identical(
    graph: Graph,
    *,
    seed: int = 7,
    epsilon: float = 0.2,
    phi: float = 0.1,
    configs=MATRIX,
    label: str = "",
    sparse_cut: bool = True,
    **kwargs,
):
    """Drive ``graph`` through every configuration; assert identity.

    Runs a full expander decomposition (and, unless ``sparse_cut=False``,
    a sparse-cut harvest) under each entry of ``configs`` and asserts
    bit-identical signatures, RNG post-states, and — within each
    fast-path group — round totals.  Returns the reference decomposition
    signature so callers can pin structural expectations on top.
    """
    ref_sig = ref_state = None
    rounds_by_group: dict[bool, float] = {}
    for config in configs:
        result, state = run_decomposition(graph, config, seed, epsilon, phi, **kwargs)
        sig = decomposition_signature(result)
        if ref_sig is None:
            ref_sig, ref_state = sig, state
        assert sig == ref_sig, (label, config.name)
        assert state == ref_state, (label, config.name)
        rounds = result.report.total_rounds
        expected = rounds_by_group.setdefault(config.fast_path, rounds)
        assert rounds == expected, (label, config.name)

    if sparse_cut:
        cut_sig = cut_state = None
        cut_rounds: dict[bool, float] = {}
        for config in configs:
            result, state = run_sparse_cut(graph, config, seed, phi)
            sig = sparse_cut_signature(result)
            if cut_sig is None:
                cut_sig, cut_state = sig, state
            assert sig == cut_sig, (label, config.name)
            assert state == cut_state, (label, config.name)
            rounds = result.report.total_rounds
            expected = cut_rounds.setdefault(config.fast_path, rounds)
            assert rounds == expected, (label, config.name)
    return ref_sig
