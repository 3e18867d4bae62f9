"""The run journal: checkpoint/resume for the expander decomposition.

A :class:`RunJournal` is a directory holding two files:

* ``meta.json`` — the run's identity: the stream root actually drawn from
  the caller's seed plus the parameters that shape the recursion (φ,
  mode, max_depth, host size, and the canonical string of the sparse-cut
  search kwargs).  :meth:`bind` writes it on first use and
  *validates* it on every later one, so a journal can never silently
  replay outcomes into a run with a different seed or parameterisation.
* ``entries.pkl`` — an append-only stream of pickled ``(key, outcome)``
  records, one per completed recursion subtree, fsynced per record.  The
  loader reads records until the first truncated tail (a kill mid-write)
  and trims the file back to the last intact record, so a journal is
  usable after a crash at *any* byte.

Keys come from :func:`repro.utils.rng.subtree_journal_key` — the same
``component_stream_key`` address that names each subtree's randomness,
extended with the recursion depth and the subset size, which makes the
key collision-free within one run (see the helper's docstring for the
argument).  Because each subtree's outcome is a pure function of
``(run parameters, subset, depth)`` — the PR 9 stream discipline — a
replayed outcome is bit-identical to what re-running the subtree would
produce, and the resumed run's RNG post-state matches the uninterrupted
run automatically (the driver draws its single stream root from the seed
before consulting the journal at all).

Serialisation is the same machinery the CSR snapshot layer already uses
(:meth:`repro.graphs.csr.CSRGraph.to_mmap` pickles its label array the
same way): outcomes are plain-data dataclasses — components, cut edges,
round reports — and round-trip exactly.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path
from typing import Optional


class RunJournal:
    """Append-only checkpoint store for one decomposition run.

    Opening a journal loads every intact record into memory (lookups are
    dict-speed; the on-disk stream is the durability layer, not the query
    layer).  A journal is single-run: :meth:`bind` pins the run identity,
    and a mismatch — a different seed's stream root, a different φ —
    raises :class:`ValueError` instead of mixing incompatible outcomes.

    Usable as a context manager; :meth:`close` drops the append handle
    (records are flushed and fsynced as they are written, so close is
    about file-handle hygiene, not durability).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.meta: Optional[dict] = None
        self._entries: dict = {}
        self._fh = None
        self._load()

    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        """The run-identity file (JSON)."""
        return self.path / "meta.json"

    @property
    def entries_path(self) -> Path:
        """The append-only record stream (pickle)."""
        return self.path / "entries.pkl"

    def _load(self) -> None:
        """Load meta and every intact record; trim a torn tail in place."""
        if self.meta_path.exists():
            try:
                self.meta = json.loads(self.meta_path.read_text())
            except (ValueError, OSError) as exc:
                raise ValueError(
                    f"journal meta at {self.meta_path} is unreadable: {exc}"
                ) from exc
        if not self.entries_path.exists():
            return
        good = 0
        with open(self.entries_path, "rb") as fh:
            while True:
                try:
                    key, outcome = pickle.load(fh)
                except EOFError:
                    break
                except Exception:
                    # A kill mid-append leaves a torn final record; every
                    # record before it is intact (each was fsynced whole).
                    break
                self._entries[tuple(key)] = outcome
                good = fh.tell()
        if good < os.path.getsize(self.entries_path):
            with open(self.entries_path, "r+b") as fh:
                fh.truncate(good)

    # ------------------------------------------------------------------
    def bind(self, **meta) -> None:
        """Pin (or validate) the run identity this journal belongs to.

        First bind writes ``meta.json``; later binds compare field by
        field and raise :class:`ValueError` naming every mismatch —
        most importantly ``root``, the stream root drawn from the seed,
        which differs whenever the seed does.
        """
        meta = {key: value for key, value in sorted(meta.items())}
        if self.meta is None:
            self.meta = meta
            self.meta_path.write_text(json.dumps(meta, indent=0, sort_keys=True))
            return
        mismatched = sorted(
            key
            for key in set(meta) | set(self.meta)
            if self.meta.get(key) != meta.get(key)
        )
        if mismatched:
            details = ", ".join(
                f"{key}: journal={self.meta.get(key)!r} run={meta.get(key)!r}"
                for key in mismatched
            )
            raise ValueError(
                f"journal at {self.path} belongs to a different run ({details}); "
                "resume with the original seed and parameters or start a new journal"
            )

    # ------------------------------------------------------------------
    def get(self, key) -> Optional[object]:
        """The recorded outcome for ``key``, or ``None`` if not journaled."""
        return self._entries.get(tuple(key))

    def record(self, key, outcome) -> None:
        """Append one completed subtree's outcome; durable before returning.

        Idempotent per key — re-recording (a resumed run completing a
        subtree whose ancestor was then journaled) is a no-op, so the
        stream never holds conflicting entries for one key.
        """
        key = tuple(key)
        if key in self._entries:
            return
        self._entries[key] = outcome
        if self._fh is None:
            self._fh = open(self.entries_path, "ab")
        pickle.dump((key, outcome), self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._entries

    def keys(self):
        """The recorded subtree keys (insertion order)."""
        return self._entries.keys()

    def close(self) -> None:
        """Release the append handle; idempotent."""
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
