"""Worker-process side of the sharded executor, and the batch and instance bodies.

The driver ships a worker one of two jobs, each led by the
:class:`~repro.parallel.shared.SharedCSRMeta` of the published snapshot:
a *chunk* of a ParallelNibble batch — the batch's
:class:`~repro.graphs.peel.PeeledCSR` mask state (small dense arrays), the
stream root / batch index, and the chunk's instance indices — for
:func:`run_sharded_chunk`, or a recursion *subtree* for
:func:`run_subtree`.  Each rehydrates its graph and runs on
counter-derived streams — no state flows between instances, between
jobs, or between processes, which is the whole determinism argument
(``docs/PARALLEL.md``).

:func:`draw_nibble_instance` is the one definition of what an instance
draws from its stream.  :func:`run_chunks` is the one batch body every
executor runs: it makes every instance's draws on each batch's
:class:`~repro.graphs.peel.PeeledCSR` view, then runs each batch's
distinct draws once — as lockstep rows when the batch fits
:data:`~repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`, several such batches
fused into one :func:`~repro.nibble.lockstep.lockstep_approximate_nibble`
call, and one ApproximateNibble walk after another otherwise.
:func:`run_nibble_instance` is the body of a single RandomNibble call
(:func:`repro.decomposition.sparse_cut.random_nibble`); the tests pin
every batch to it instance by instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.peel import PeeledCSR
from ..nibble import lockstep
from ..nibble.lockstep import batch_cells, fused_cells, lockstep_approximate_nibble
from ..nibble.nibble import NibbleCut, approximate_nibble
from ..nibble.parameters import NibbleParameters, sample_scale
from ..utils.rng import task_stream
from ..utils.rounds import RoundReport
from .shared import SharedCSR, SharedCSRMeta

#: How many attached snapshots a worker process keeps rehydrated at once.
#: The decomposition touches at most a couple of bases concurrently (the
#: host snapshot plus recent compactions), so a small cache covers the
#: working set; evicted handles just close their mapping.
ATTACH_CACHE_SIZE = 4

_ATTACHED: "OrderedDict[str, SharedCSR]" = OrderedDict()


def attached_graph(meta: SharedCSRMeta) -> CSRGraph:
    """The rehydrated snapshot for ``meta``, via the per-process LRU cache.

    One segment is attached (and its labels unpickled) at most once per
    worker process no matter how many chunks reference it; eviction closes
    the mapping (never unlinks — workers don't own segments).  A close that
    races a still-referenced buffer is a no-op (``SharedCSR.close`` tolerates
    the ``BufferError``), so eviction can never corrupt an in-flight chunk.
    """
    handle = _ATTACHED.get(meta.name)
    if handle is None:
        handle = SharedCSR.attach(meta)
        _ATTACHED[meta.name] = handle
        while len(_ATTACHED) > ATTACH_CACHE_SIZE:
            _, evicted = _ATTACHED.popitem(last=False)
            evicted.close()
    else:
        _ATTACHED.move_to_end(meta.name)
    return handle.graph


def draw_nibble_instance(
    view: PeeledCSR, params: NibbleParameters, stream: np.random.Generator
) -> tuple[Optional[object], Optional[int]]:
    """Consume one instance's two stream draws; return ``(start, scale)``.

    The repository's pinned instance protocol: a degree-proportional start
    draw (:meth:`~repro.graphs.peel.PeeledCSR.sample_start`), then the
    truncation-scale draw, in that order and nothing else.  Returns
    ``(None, None)`` — no draws consumed — when the view has no
    positive-degree vertex.  ``start`` is a vertex *label*, so it keys a
    batch's deduplication.
    """
    start_index = view.sample_start(stream)
    if start_index is None:
        return None, None
    return view.vertices[start_index], sample_scale(stream, params.ell)


def run_nibble_instance(
    view: PeeledCSR,
    params: NibbleParameters,
    stream: np.random.Generator,
    report: Optional[RoundReport] = None,
) -> tuple[Optional[int], Optional[NibbleCut]]:
    """One RandomNibble instance on its private ``stream``.

    The body of :func:`repro.decomposition.sparse_cut.random_nibble`.
    Draws the degree-proportional start and the truncation scale from
    ``stream`` via :func:`draw_nibble_instance` (exactly two draws, in that
    order — the repository's pinned instance protocol), then runs
    ApproximateNibble on ``view``.  Returns ``(scale, cut)``; ``scale`` is
    ``None`` when the view was empty and nothing was drawn.  A batch runs
    the same draws and the same walk per distinct draw through
    :func:`run_chunk`, which the tests pin to this function instance by
    instance.
    """
    start, scale = draw_nibble_instance(view, params, stream)
    if scale is None:
        return None, None
    return scale, approximate_nibble(view, start, scale, params, report=report)


def run_subtree(
    meta: SharedCSRMeta,
    subset_indices: list[int],
    depth: int,
    hint,
    connected: bool,
    spec,
) -> object:
    """Decompose one recursion subtree inside a worker process.

    Rehydrates the host snapshot from shared memory (cached per process by
    :func:`attached_graph`) and runs the exact driver recursion
    (:func:`repro.decomposition.expander.decompose_subtree_on_base`) with
    the sequential executor for its sibling groups and batches — workers
    never nest pools.  ``spec`` is the run's
    :class:`~repro.parallel.executor.SubtreeSpec` shipped without its base
    and deadline.  Every searched component inside the subtree draws from
    ``split_stream(root, depth, component_stream_key(subset))``, the same
    address the driver would use, so the returned outcome (components, cut
    edges, level reports, pre-check skips) is bit-identical to an inline
    run of the same subtree.  Imported lazily to keep
    ``repro.parallel`` importable without ``repro.decomposition``.
    """
    from ..decomposition.expander import decompose_subtree_on_base

    return decompose_subtree_on_base(
        attached_graph(meta), subset_indices, depth, hint, connected, spec
    )


def run_chunk(
    view: PeeledCSR,
    params: NibbleParameters,
    root: int,
    batch_index: int,
    instance_indices,
    streams=None,
) -> list[tuple[int, Optional[int], Optional[NibbleCut]]]:
    """Run the listed instances of one batch on ``view``, in order.

    A pooled chunk and its inline re-run in the driver come through here;
    it is :func:`run_chunks` for one chunk.
    """
    return run_chunks([(view, params, root, batch_index, instance_indices)], streams)[0]


def run_chunks(chunks, streams=None) -> list[list]:
    """Run several batches' chunks: the one batch body every executor runs.

    Each chunk is ``(view, params, root, batch_index, instance_indices)``.
    Every instance makes its two draws (:func:`draw_nibble_instance`) from
    ``streams(root, batch_index, instance_index)`` (default
    :func:`repro.utils.rng.task_stream` — the key names *what* the task
    is, never where it runs), so nothing flows between chunks.  Each
    distinct ``(start, scale)`` draw of a chunk then runs once, on one of
    two kernels with identical outputs.  A chunk whose
    :func:`~repro.nibble.lockstep.batch_cells` fit
    :data:`~repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET` runs as lockstep
    rows, and such chunks share
    :func:`~repro.nibble.lockstep.lockstep_approximate_nibble` calls —
    one group per chunk, as many per call as
    :func:`~repro.nibble.lockstep.fused_cells` keeps within the same
    budget.  A larger chunk runs one :func:`approximate_nibble` walk per
    draw, whose work stays on the walk's support (Nibble's locality)
    however large the view is.

    Deduplication is exact, not a heuristic, and stays within a chunk: an
    instance is a deterministic function of (view, start, scale, params)
    once its draws are made, a batch's view is invariant (harvest and peel
    happen after the batch), and every stream is drawn from either way, so
    RNG states and round accounting never depend on it.  Duplicates are
    common exactly where they hurt: terminal deep-recursion components
    (2–5-clique chains) draw a handful of starts across Θ(log m)
    instances.  Returns each chunk's ``(instance_index, scale, cut)``
    triples in the given order.
    """
    streams = streams or task_stream
    draws = [
        [
            draw_nibble_instance(view, params, streams(root, batch_index, int(i)))
            for i in indices
        ]
        for view, params, root, batch_index, indices in chunks
    ]
    distinct = [list(dict.fromkeys(d for d in drawn if d[1] is not None)) for drawn in draws]
    found: list = [None] * len(chunks)
    rows = []  # the lockstep-side chunks, narrowest view first
    for k, ((view, params, *_), todo) in enumerate(zip(chunks, distinct)):
        if batch_cells(view, len(todo)) > lockstep.LOCKSTEP_CELL_BUDGET:
            found[k] = [approximate_nibble(view, start, scale, params) for start, scale in todo]
        elif todo:
            rows.append(k)
        else:
            found[k] = []
    rows.sort(key=lambda k: chunks[k][0].num_vertices)
    while rows:
        call = [rows.pop(0)]
        while rows and fused_cells(
            [(chunks[k][0], len(distinct[k])) for k in call + rows[:1]]
        ) <= lockstep.LOCKSTEP_CELL_BUDGET:
            call.append(rows.pop(0))
        groups = [(chunks[k][0], distinct[k], chunks[k][1]) for k in call]
        cuts = iter(lockstep_approximate_nibble(*groups[0], *groups[1:]))
        for k in call:
            found[k] = [next(cuts) for _ in distinct[k]]
    results = []
    for (_, _, _, _, indices), drawn, todo, cuts in zip(chunks, draws, distinct, found):
        by_draw = dict(zip(todo, cuts))
        results.append(
            [
                (int(i), scale, by_draw.get((start, scale)))
                for i, (start, scale) in zip(indices, drawn)
            ]
        )
    return results


def run_sharded_chunk(
    meta: SharedCSRMeta,
    alive: np.ndarray,
    proper_degree: np.ndarray,
    loops: np.ndarray,
    total_volume: int,
    num_edges: int,
    params: NibbleParameters,
    root: int,
    batch_index: int,
    instance_indices: list[int],
) -> list[tuple[int, Optional[int], Optional[NibbleCut]]]:
    """Run one chunk of a ParallelNibble batch inside a worker process.

    Rebuilds the batch's :class:`PeeledCSR` view over the shared snapshot
    (zero-copy base arrays, small shipped mask arrays) and runs the chunk
    through :func:`run_chunk`, so the triples this returns are identical
    to what the sequential executor computes for the same indices.
    """
    base = attached_graph(meta)
    view = PeeledCSR(
        base=base,
        alive=np.asarray(alive, dtype=bool),
        proper_degree=np.asarray(proper_degree, dtype=np.int64),
        loops=np.asarray(loops, dtype=np.int64),
        total_volume=int(total_volume),
        num_edges=int(num_edges),
    )
    return run_chunk(view, params, root, batch_index, instance_indices)
