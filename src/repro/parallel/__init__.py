"""Shared-memory multicore execution backends for the decomposition.

The pipeline's ParallelNibble batches and the recursion's sibling
subtrees are independent tasks — the paper even names the batches
embarrassingly parallel — and this package is the one seam through which
both run: an :class:`~repro.parallel.executor.Executor` protocol
(``run_batches`` and ``run_siblings``) with a sequential oracle and a
process-pool engine whose two task kinds share one submit-and-collect
path, the generator protocol of :mod:`repro.parallel.frontier` through
which every live search's batch requests reach one driver loop, a
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
from .frontier import BatchRequest, one_per_round, run_rounds, run_together
from .shared import SharedCSR, SharedCSRMeta, shared_memory_available
from .worker import run_chunk, run_chunks, run_nibble_instance, run_sharded_chunk, run_subtree

__all__ = [
    "BatchRequest",
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
    "one_per_round",
    "run_chunk",
    "run_chunks",
    "run_nibble_instance",
    "run_rounds",
    "run_sharded_chunk",
    "run_subtree",
    "run_together",
    "sequential_batch",
    "shared_memory_available",
    "validate_batch_triples",
    "validate_subtree_outcome",
]
