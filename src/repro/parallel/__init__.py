"""Shared-memory multicore execution backends for the decomposition.

The pipeline's ParallelNibble batches are its independent tasks — the
paper even names them embarrassingly parallel — and this package is the
one seam through which they run: the generator protocol of
:mod:`repro.parallel.frontier`, through which every live search's batch
requests reach one driver loop as rounds; an
:class:`~repro.parallel.executor.Executor` protocol (``run_batches``
plus ``close``) with a sequential oracle and a process-pool engine whose
one pool unit is a slice of a round; a
:class:`~repro.parallel.shared.SharedCSR` transport that moves a large
immutable CSR snapshot into ``multiprocessing.shared_memory`` exactly
once; and the counter-based stream splitting of :mod:`repro.utils.rng`
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
    resolve_executor,
    sequential_batch,
    validate_batch_triples,
)
from .frontier import BatchRequest, one_per_round, run_rounds, run_together
from .shared import SharedCSR, SharedCSRMeta, shared_memory_available
from .worker import run_chunk, run_chunks, run_nibble_instance, run_sharded_chunk

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
    "resolve_executor",
    "one_per_round",
    "run_chunk",
    "run_chunks",
    "run_nibble_instance",
    "run_rounds",
    "run_sharded_chunk",
    "run_together",
    "sequential_batch",
    "shared_memory_available",
    "validate_batch_triples",
]
