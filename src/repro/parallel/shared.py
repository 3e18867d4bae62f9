"""Zero-copy shared-memory transport for :class:`~repro.graphs.csr.CSRGraph`.

The sharded executor's workers need the immutable CSR snapshot a batch's
:class:`~repro.graphs.peel.PeeledCSR` view sits on.  The snapshot's arrays
are flat numpy buffers, so instead of pickling megabytes per task the
driver *publishes* the snapshot once into one
:mod:`multiprocessing.shared_memory` segment and ships only the segment's
name; workers rehydrate zero-copy array views over the same physical pages.
Per-batch state — the view's alive mask and residual degree/loop arrays —
stays small and rides in the ordinary task payload.

Segment layout (one allocation per snapshot)::

    [ indptr : int64 × (n+1) ][ indices : int64 × E ][ loops : int64 × n ]
    [ labels : pickled vertex-label list ]

Labels travel inside the segment too (pickled once, not per task), so a
rehydrated graph carries the *real* vertex labels and the cuts a worker
returns need no index-to-label translation.

Lifetime and ownership rules (also in ``docs/PARALLEL.md``):

* The **publisher owns the segment**: whoever calls :meth:`SharedCSR.publish`
  must eventually call :meth:`SharedCSR.unlink` (the
  :class:`~repro.parallel.executor.ShardedExecutor` does this for every
  segment it published — on :meth:`~repro.parallel.executor.ShardedExecutor.
  close`, on context-manager exit, and via an ``atexit`` backstop — so an
  interrupted run never leaks ``/dev/shm`` blocks).
* **Attachers only close**: a worker calls :meth:`SharedCSR.close` (or just
  exits) and never unlinks.  On Linux an unlinked segment stays mapped for
  attachers that still hold it, so eviction on the driver side cannot
  invalidate a worker mid-batch.
* The rehydrated arrays are **read-only views**; the snapshot they rebuild
  is immutable by contract, and the views are explicitly marked
  non-writable so a buggy kernel faults instead of corrupting every
  process at once.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np

try:  # pragma: no cover - exercised via availability checks
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shared_memory = None

from ..graphs.csr import CSRGraph

_ITEM = np.dtype(np.int64).itemsize


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` actually works here.

    Importability is necessary but not sufficient — a locked-down
    ``/dev/shm`` (some containers) fails only at allocation time — so the
    probe creates and immediately unlinks a minimal segment.  The result is
    cached: the answer cannot change within a process.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: Optional[bool] = None


@dataclass(frozen=True)
class SharedCSRMeta:
    """The picklable address of a published snapshot (what tasks carry).

    ``name`` is the shared-memory segment; ``n``/``entries``/``labels_size``
    describe the layout so an attacher can slice the buffer without any
    negotiation.  The meta is also the worker-side cache key: one segment,
    one rehydrated graph per worker process.
    """

    name: str
    n: int
    entries: int
    labels_size: int


class SharedCSR:
    """One published CSR snapshot: segment handle + layout + owner flag.

    Construct via :meth:`publish` (driver side, owns the segment) or
    :meth:`attach` (worker side, borrows it).  The object keeps the
    :class:`~multiprocessing.shared_memory.SharedMemory` handle alive for as
    long as any rehydrated array view exists — callers must keep the
    ``SharedCSR`` reachable while using :attr:`graph`.
    """

    def __init__(
        self,
        shm: "_shared_memory.SharedMemory",
        meta: SharedCSRMeta,
        owner: bool,
    ) -> None:
        self.shm = shm
        self.meta = meta
        self.owner = owner
        self._graph: Optional[CSRGraph] = None

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, base: CSRGraph) -> "SharedCSR":
        """Copy ``base``'s arrays + pickled labels into a fresh segment.

        One O(n + E) memcpy; every worker that attaches afterwards pays
        zero copies for the arrays.  Raises whatever the platform raises
        when shared memory is unavailable — callers degrade through
        :func:`shared_memory_available` / the executor's fallback, not
        here.
        """
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        labels_blob = pickle.dumps(base.vertices, protocol=pickle.HIGHEST_PROTOCOL)
        n = base.n
        entries = len(base.indices)
        size = _ITEM * (n + 1 + entries + n) + len(labels_blob)
        shm = _shared_memory.SharedMemory(create=True, size=max(size, 1))
        offset = 0
        for array in (
            np.ascontiguousarray(base.indptr, dtype=np.int64),
            np.ascontiguousarray(base.indices, dtype=np.int64),
            np.ascontiguousarray(base.loops, dtype=np.int64),
        ):
            nbytes = array.nbytes
            shm.buf[offset : offset + nbytes] = array.tobytes()
            offset += nbytes
        shm.buf[offset : offset + len(labels_blob)] = labels_blob
        meta = SharedCSRMeta(
            name=shm.name, n=n, entries=entries, labels_size=len(labels_blob)
        )
        return cls(shm, meta, owner=True)

    @classmethod
    def attach(cls, meta: SharedCSRMeta) -> "SharedCSR":
        """Open an existing segment by its meta (worker side; never owns)."""
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        shm = _shared_memory.SharedMemory(name=meta.name)
        return cls(shm, meta, owner=False)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The rehydrated :class:`CSRGraph`, arrays viewing the segment.

        Built lazily and cached: the array views are zero-copy
        (``np.frombuffer`` over the segment), marked read-only, and the
        labels are unpickled once.  The derived ``degree`` /
        ``proper_degree`` arrays are small per-process copies computed by
        ``CSRGraph.__init__``, which also refuses repeated labels; the
        label ``index`` is built only if the process asks for it.
        """
        if self._graph is None:
            meta = self.meta
            buf = self.shm.buf
            offset = 0

            def view(count: int) -> np.ndarray:
                nonlocal offset
                arr = np.frombuffer(buf, dtype=np.int64, count=count, offset=offset)
                arr.flags.writeable = False
                offset += count * _ITEM
                return arr

            indptr = view(meta.n + 1)
            indices = view(meta.entries)
            loops = view(meta.n)
            labels = pickle.loads(
                bytes(buf[offset : offset + meta.labels_size])
            )
            self._graph = CSRGraph(
                indptr=indptr, indices=indices, loops=loops, vertices=labels
            )
        return self._graph

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (attacher-side cleanup); idempotent."""
        self._graph = None
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - double close on interpreter exit
            pass

    def unlink(self) -> None:
        """Close and remove the segment (publisher-side cleanup); idempotent.

        Only the owner unlinks; calling this on an attached handle is a
        contract violation that would yank the segment out from under the
        publisher, so it is refused.
        """
        if not self.owner:
            raise RuntimeError("only the publishing side may unlink a SharedCSR")
        self.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedCSR":
        """Context manager: yields the handle."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context manager: unlink if owner, close otherwise."""
        if self.owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return f"SharedCSR({self.meta.name}, n={self.meta.n}, {role})"
