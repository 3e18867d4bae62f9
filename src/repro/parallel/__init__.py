"""Shared-memory multicore execution backends for the decomposition.

The pipeline's ParallelNibble batches and the recursion's sibling
subtrees are independent tasks — the paper even names the batches
embarrassingly parallel — and this package is the one seam through which
both run: an :class:`~repro.parallel.executor.Executor` protocol
(``run_batch`` and ``run_siblings``) with a sequential oracle and a
process-pool engine whose two task kinds share one dispatch path, a
:class:`~repro.parallel.shared.SharedCSR` transport that moves the
immutable CSR snapshot into ``multiprocessing.shared_memory`` exactly
once, and the counter-based stream splitting of :mod:`repro.utils.rng`
that makes sequential, 1-worker, and N-worker runs cut- and
stream-identical.  ``docs/PARALLEL.md`` is the narrative companion.
"""

from .executor import (
    POOL_REBUILD_LIMIT,
    SEQUENTIAL,
    SHARD_MIN_VERTICES,
    BatchResult,
    Executor,
    SequentialExecutor,
    ShardedExecutor,
    SubtreeSpec,
    SubtreeTask,
    resolve_executor,
    sequential_batch,
    validate_batch_triples,
    validate_subtree_outcome,
)
from .shared import SharedCSR, SharedCSRMeta, shared_memory_available
from .worker import run_chunk, run_nibble_instance, run_sharded_chunk, run_subtree

__all__ = [
    "BatchResult",
    "Executor",
    "POOL_REBUILD_LIMIT",
    "SEQUENTIAL",
    "SHARD_MIN_VERTICES",
    "SequentialExecutor",
    "ShardedExecutor",
    "SharedCSR",
    "SharedCSRMeta",
    "SubtreeSpec",
    "SubtreeTask",
    "resolve_executor",
    "run_chunk",
    "run_nibble_instance",
    "run_sharded_chunk",
    "run_subtree",
    "sequential_batch",
    "shared_memory_available",
    "validate_batch_triples",
    "validate_subtree_outcome",
]
