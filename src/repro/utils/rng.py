"""Randomness handling.

CONGEST vertices have unlimited *local* randomness but no shared randomness.
For reproducibility every algorithm in this library threads a single
:class:`numpy.random.Generator` (or an integer seed) through its call tree;
:func:`ensure_rng` normalises either form, and :func:`spawn` derives
independent per-vertex streams, which models "each vertex flips its own
coins" without any hidden global state.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy Generator from an int seed, an existing Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators (per-vertex randomness)."""
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


def stream_root(seed: SeedLike = None) -> int:
    """Draw one 64-bit *stream root* from a generator (one draw, then done).

    The root is the only thing a batched computation takes from the shared
    sequential stream: every task inside it derives its own generator with
    :func:`split_stream` from the root and a counter-based ``spawn_key``, so
    the shared generator advances by exactly one draw no matter how many
    tasks run, in what order, or on how many workers.  This is what makes
    sequential, 1-worker, and N-worker executions of the same batch consume
    the caller's stream identically (see :mod:`repro.parallel`).
    """
    return int(ensure_rng(seed).integers(0, 1 << 63))


def split_stream(root: int, *spawn_key: int) -> np.random.Generator:
    """Counter-based child stream: a generator keyed by ``(root, spawn_key)``.

    Implemented with :class:`numpy.random.SeedSequence`'s ``spawn_key``
    mechanism, which hashes ``(entropy, spawn_key)`` into an independent
    well-mixed stream — the same construction ``seed_seq.spawn`` uses, but
    *addressed by counters* instead of by spawn order.  Two properties the
    parallel engine relies on:

    * **Determinism** — the same ``(root, key)`` always yields the same
      stream, on any process, in any order.  A Nibble instance keyed by
      ``(batch_index, instance_index)`` therefore draws the same start
      vertex and truncation scale whether it runs inline, on worker 0, or
      on worker 7 — scheduling cannot leak into outputs.
    * **Independence** — distinct keys yield statistically independent
      streams (SeedSequence's design guarantee), so the batch keeps the
      "independent RandomNibble instances" semantics the paper's
      probability argument needs.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root, spawn_key=tuple(int(k) for k in spawn_key))
    )


def component_stream_key(smallest_repr: str) -> int:
    """A stable 63-bit stream key for a component: its smallest ``repr``, hashed.

    The expander decomposition addresses each searched component's
    randomness as ``split_stream(root, depth, component_stream_key(r))``,
    where ``r`` is the smallest ``repr`` among the component's vertices —
    derived from *what* the component is, never from when or where it is
    scheduled, so sibling subtrees can decompose concurrently (or in any
    order) and still draw exactly the streams the sequential recursion
    draws.  The key is the SHA-256 of that ``repr``, which identifies the
    component uniquely among the components that can share a ``(root,
    depth)`` address: only *connected* subsets reach the cut search, and
    the searched subsets at one recursion depth are pairwise disjoint (a
    disconnected subset splits into its pieces without consuming a key;
    cut children descend to depth + 1), so their smallest reprs differ.
    SHA-256 rather than ``hash()`` because the builtin string hash is
    salted per process — a pool worker must derive the same key the
    driver would.
    """
    import hashlib

    digest = hashlib.sha256(smallest_repr.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def subtree_journal_key(depth: int, smallest_repr: str, size: int) -> tuple[int, int, int]:
    """The checkpoint address of one recursion subtree: collision-free per run.

    The :class:`~repro.resilience.journal.RunJournal` keys each completed
    subtree by ``(depth, component_stream_key(smallest_repr), size)`` —
    the same content-derived address that names the subtree's randomness,
    so a journal written by a pooled run replays into a sequential one
    and vice versa.  Collision-freedom within a run: subtrees rooted at
    one depth are pairwise disjoint or nested.  Disjoint subsets have
    distinct smallest vertex ``repr``\\ s, hence distinct stream keys;
    the only same-depth *nested* pair — a disconnected subset and the
    piece of it that shares its smallest vertex (pieces recurse at the
    parent's depth) — shares the stream key but differs in size, which
    the third field separates.  Cut children descend to ``depth + 1``,
    so an ancestor can never collide with a descendant across depths.
    """
    return (int(depth), component_stream_key(smallest_repr), int(size))


def task_stream(root: int, batch_index: int, instance_index: int) -> np.random.Generator:
    """The canonical per-Nibble-instance stream: keyed by batch and instance.

    A thin, named wrapper over :func:`split_stream` pinning the repository
    convention that the spawn key is ``(batch_index, instance_index)`` —
    derived from *what* the task is, never from *where* it runs (worker ids
    would make outputs scheduling-dependent).
    """
    return split_stream(root, batch_index, instance_index)


def sample_index_by_weight(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Sample a position of ``weights`` proportionally to its value.

    The single shared weighted draw behind every degree-proportional start
    sample: the dict path (:func:`sample_by_degree`) and the peeled-CSR path
    (:meth:`repro.graphs.peel.PeeledCSR.sample_start`) both route through
    this function with identical weight vectors, so the two backends consume
    the RNG stream identically and pick the same vertex for a shared seed.
    """
    total = weights.sum()
    if total <= 0:
        raise ValueError("cannot sample from a zero-volume graph")
    return int(rng.choice(len(weights), p=weights / total))


def sample_by_degree(rng: np.random.Generator, degrees: dict, total: Optional[int] = None):
    """Sample one vertex proportionally to its degree (the ψ_V distribution).

    Iteration order of ``degrees`` determines which vertex a given RNG draw
    maps to; callers that need to reproduce the pipeline's draws build the
    dict in ``repr``-sorted order, the order
    :meth:`repro.graphs.peel.PeeledCSR.sample_start` draws in.
    ``total``, when given, only pre-validates the caller's volume; the
    normaliser is always the weight sum itself.
    """
    if total is not None and total <= 0:
        raise ValueError("cannot sample from a zero-volume graph")
    items = list(degrees.items())
    weights = np.array([d for _, d in items], dtype=float)
    return items[sample_index_by_weight(rng, weights)][0]
