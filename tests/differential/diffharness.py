"""Differential-testing harness: one matrix, every configuration, bit-identical.

The repository's core correctness contract is that every execution
configuration — both batch kernels (lockstep rows,
:mod:`repro.nibble.lockstep`, and one
:class:`~repro.graphs.csr.WalkWorkspace` walk per draw), int32 and int64
index storage, memory-mapped snapshots, the spectral pre-check on or
patched off (:func:`precheck_off`), and permuted sibling scheduling —
produces *bit-identical* outputs: the same cuts, the same RNG
post-states, the same round accounting.  This module is the single place that contract is written
down as executable code.

The reference every cell is checked against is frozen: the dict oracle's
signatures, recorded before the dict working graphs left the pipeline
(``oracle_signatures.json``, written by :mod:`oracle_fixture`).  So the
pipeline is still checked against output that code other than itself
produced.

A batch picks its kernel by size
(:data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`), so the kernel
column of the matrix is a :func:`kernel_budget` scope: lockstep cells
raise the budget to infinity, workspace cells lower it to 0, and auto
cells keep the library default.  The scope covers the main process; pool
workers (``REPRO_DIFF_WORKERS``) run under the budget they were forked
with, which bit-identity makes invisible to every output.

:data:`MATRIX` enumerates the configurations.  The one entry
point, :func:`assert_pipeline_identical`, drives a generator family
through a full expander decomposition and a sparse-cut harvest under
every configuration and asserts, against the frozen oracle:

* identical decompositions (component vertex sets, removed-edge
  multisets, per-component certification flags and estimates);
* identical sparse-cut results (cut set, conductance, balance, size,
  certification, batch count);
* identical RNG post-states (``rng.bit_generator.state`` after the call)
  — a batch the pre-check skips never opens its stream, so even the
  pre-check may not perturb the caller's;
* identical round totals for the cell's pre-check setting (the
  pre-check charges spectral rounds instead of skipped-batch rounds, so
  the oracle keeps one total per setting, under the key
  ``fast_path=True`` / ``fast_path=False`` the fixture was recorded
  with).

To add a configuration: append a :class:`BackendConfig` to :data:`MATRIX`
and teach :func:`_host_graph` how to build its host view if it needs one.
Every differential test picks the new configuration up automatically
(see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import repro.decomposition.expander as expander_module
import repro.decomposition.sparse_cut as sparse_cut_module
from repro.decomposition import (
    expander_decomposition,
    nearly_most_balanced_sparse_cut,
)
from oracle_fixture import (
    EPSILON,
    PHI,
    SEED,
    decomposition_record,
    load,
    oracle_key,
    sparse_cut_record,
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
from repro.nibble import lockstep
from repro.nibble.nibble import scan_walk_sequence
from repro.parallel import SequentialExecutor
from repro.walks.lazy_walk import truncated_walk_iter


#: Kernel budget of the lockstep cells: every batch's rows fit it, so
#: every batch runs as lockstep rows.
LOCKSTEP_ALL = math.inf


@dataclass(frozen=True)
class BackendConfig:
    """One cell of the configuration matrix.

    ``kernel_budget`` is the lockstep cell budget the cell runs under
    (:func:`kernel_budget`; ``None`` keeps the library default,
    :data:`LOCKSTEP_ALL` runs every batch as lockstep rows, 0 every batch
    as one workspace walk per draw);
    ``index_dtype`` is ``"int32"`` (the automatic choice on every family
    here) or ``"int64"`` (wide storage forced via
    :func:`index_width`); ``precheck=False`` runs the cell under
    :func:`precheck_off`, on the sequential executor (a patch made in
    this process never reaches pool workers forked before it); ``mmap``
    round-trips the graph through a memory-mapped
    :class:`CSRGraph` snapshot and uses it as the host.
    """

    name: str
    kernel_budget: Optional[float] = None
    index_dtype: str = "int32"
    precheck: bool = True
    mmap: bool = False
    #: Sibling-order column: ``"inline"`` (the oracle ordering) or
    #: ``"permuted"`` — sibling subtrees executed in a deterministic
    #: shuffled order by :class:`PermutedExecutor`, the in-process stand-in
    #: for pool completion races.
    scheduler: str = "inline"


#: The full configuration matrix; every cell must match the frozen oracle
#: bit for bit.
MATRIX = (
    BackendConfig("lockstep", kernel_budget=LOCKSTEP_ALL),
    BackendConfig("auto"),
    BackendConfig("workspace-int64", kernel_budget=0, index_dtype="int64"),
    BackendConfig("workspace", kernel_budget=0),
    BackendConfig("mmap", mmap=True),
    BackendConfig("lockstep-nofast", kernel_budget=LOCKSTEP_ALL, precheck=False),
    BackendConfig("auto-nofast", precheck=False),
    BackendConfig("component-parallel", scheduler="permuted"),
)

#: A cheaper matrix that still touches every axis once (both kernels,
#: int32, int64, mmap, pre-check off, permuted scheduling) — used on the
#: broader generator families where the full matrix would make the
#: suite's runtime quadratic in coverage.
CORE_MATRIX = (
    MATRIX[0],  # lockstep
    MATRIX[3],  # workspace (int32)
    MATRIX[2],  # workspace-int64
    MATRIX[4],  # mmap
    MATRIX[6],  # auto-nofast
    MATRIX[7],  # component-parallel (permuted sibling scheduling)
)


def generator_families() -> list[tuple[str, Graph]]:
    """Seeded instances of every generator family, at matrix-friendly sizes.

    The first four are the benchmark families every existing parity suite
    pins; the rest broaden structural coverage (sparse random, regular,
    lattice, and the pathological low-conductance chain).  The frozen
    oracle (``oracle_signatures.json``) is keyed by these names.
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


def dict_reference_cut(graph: Graph, start, scale, params, approximate=True):
    """One Nibble draw on the dict reference: the dict walk through the dict scan.

    What :func:`~repro.nibble.nibble.approximate_nibble` (or, with
    ``approximate=False``, :func:`~repro.nibble.nibble.nibble`) must
    return for the same draw on any view of ``graph``, bit for bit.
    """
    walk = truncated_walk_iter(graph, start, params.t0, params.epsilon_b(scale))
    return scan_walk_sequence(
        graph, walk, scale, params, start, approximate=approximate
    )


@contextmanager
def precheck_off():
    """Scope in which the spectral pre-check never fires.

    The pre-check is output-neutral by construction, so turning it off is
    an oracle, not a configuration: the sparse cut's Cheeger bound becomes
    ``(0.0, None)`` (it never clears φ and carries no certificate to
    reuse) and the decomposition's batched sibling solves hand down no
    hints.  Every batch the pre-check would have skipped then runs.  The
    patch covers this process only; pool workers keep the real pre-check.
    """
    saved = (
        sparse_cut_module.conductance_lower_bound,
        expander_module.batched_component_certificates,
    )
    sparse_cut_module.conductance_lower_bound = lambda graph, phi=None: (0.0, None)
    expander_module.batched_component_certificates = (
        lambda view, pieces: [None] * len(pieces)
    )
    try:
        yield
    finally:
        (
            sparse_cut_module.conductance_lower_bound,
            expander_module.batched_component_certificates,
        ) = saved


@contextmanager
def kernel_budget(budget: Optional[float]):
    """Scope in which batches up to ``budget`` cells run as lockstep rows.

    Moves :data:`~repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`, which
    :func:`~repro.parallel.worker.run_chunk` reads at call time; ``None``
    keeps the library default.
    """
    if budget is None:
        yield
        return
    previous = lockstep.LOCKSTEP_CELL_BUDGET
    lockstep.LOCKSTEP_CELL_BUDGET = budget
    try:
        yield
    finally:
        lockstep.LOCKSTEP_CELL_BUDGET = previous


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
    cells already cover pool-side subtrees.  The pre-check-off cells run
    sequentially too (see :func:`_config_executor`).

    The ``chaos-parity`` job additionally sets ``REPRO_DIFF_CHAOS=<seed>``:
    the engine becomes a :class:`~repro.resilience.chaos.ChaosExecutor`
    injecting seeded crashes, slowdowns, and corrupted results into the
    pooled work — every fault recovered by the retry layer, every run
    still asserted bit-identical to the frozen fault-free oracle.  Hangs are
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
    """Adversarial test engine: sibling subtrees run as a shuffled group.

    Each sibling group goes to the group callback in a deterministic
    pseudo-random permutation of its submission order — the in-process
    model of pool workers finishing (and delivering) in an arbitrary
    order: the members advance, emit and put their batch requests into
    each round in the permuted order — and the outcomes come back in task
    order.  Batches run exactly as on the sequential oracle.  Because the
    recursion is pure (counter-addressed streams, no shared mutable
    state), the outcomes must be bit-identical to the sequential
    executor's; the ``component-parallel`` matrix cell and
    ``test_scheduling.py`` assert exactly that.
    """

    name = "permuted"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def run_siblings(self, tasks, run_group, spec=None):
        """Run the tasks as one group in a shuffled order; return in task order."""
        order = [int(i) for i in self._rng.permutation(len(tasks))]
        outcomes = yield from run_group([tasks[i] for i in order])
        results: list = [None] * len(tasks)
        for i, outcome in zip(order, outcomes):
            results[i] = outcome
        return results, set()


def _config_executor(config: BackendConfig):
    """The executor a configuration runs on: permuted, sequential, or ambient.

    A pre-check-off cell runs sequentially: :func:`precheck_off` patches
    this process, and the ambient pool's workers were forked before it.
    """
    if not config.precheck:
        return None
    if config.scheduler == "permuted":
        # Fresh per run so every decomposition sees the same deterministic
        # permutation sequence (the executor is stateful across groups).
        return PermutedExecutor(seed=101)
    return ambient_executor()


@contextmanager
def _config_scope(config: BackendConfig):
    """The index width, kernel budget and pre-check of one cell, as one scope."""
    with ExitStack() as stack:
        stack.enter_context(index_width(config.index_dtype))
        stack.enter_context(kernel_budget(config.kernel_budget))
        if not config.precheck:
            stack.enter_context(precheck_off())
        yield stack


def run_decomposition(graph, config, seed, epsilon, phi, **kwargs):
    """One decomposition under ``config``; returns (result, rng post-state)."""
    with _config_scope(config) as stack:
        host = _host_graph(graph, config, stack)
        rng = np.random.default_rng(seed)
        result = expander_decomposition(
            host,
            epsilon,
            phi,
            seed=rng,
            executor=_config_executor(config),
            **kwargs,
        )
        return result, rng.bit_generator.state


def run_sparse_cut(graph, config, seed, phi, **kwargs):
    """One sparse-cut harvest under ``config``; returns (result, post-state).

    An ``mmap`` configuration hands the memory-mapped snapshot itself to
    the sparse cut, which wraps it in its all-alive view.
    """
    with _config_scope(config) as stack:
        host = _host_graph(graph, config, stack)
        rng = np.random.default_rng(seed)
        result = nearly_most_balanced_sparse_cut(
            host,
            phi,
            seed=rng,
            executor=ambient_executor() if config.precheck else None,
            **kwargs,
        )
        return result, rng.bit_generator.state


def assert_pipeline_identical(
    graph: Graph,
    *,
    label: str,
    configs=MATRIX,
    sparse_cut: bool = True,
):
    """Drive family ``label`` through every configuration; assert identity.

    Runs a full expander decomposition (and, unless ``sparse_cut=False``,
    a sparse-cut harvest) under each entry of ``configs`` with the
    fixture's seed, ε and φ, and asserts that every record — signatures,
    RNG post-state and round total — equals the frozen oracle's for the
    cell's pre-check setting.  Returns the reference decomposition
    signature so callers can pin structural expectations on top.
    """
    oracle = load()
    ref_sig = None
    for config in configs:
        expected = oracle[oracle_key(label, config.precheck)]
        result, state = run_decomposition(graph, config, SEED, EPSILON, PHI)
        got = decomposition_record(result, state)
        assert got == expected["decomposition"], (label, config.name)
        if ref_sig is None:
            ref_sig = decomposition_signature(result)
        if sparse_cut:
            result, state = run_sparse_cut(graph, config, SEED, PHI)
            got = sparse_cut_record(result, state)
            assert got == expected["sparse_cut"], (label, config.name)
    return ref_sig
