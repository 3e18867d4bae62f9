"""Deterministic fault injection for the parallel execution layer.

A :class:`ChaosExecutor` behaves exactly like the sharded engine except
that each shipped work item — a slice of a round of ParallelNibble
batches — runs through one worker wrapper, :func:`chaos_run_task`, and
may be hit by a seeded fault:

* **crash** — the worker raises :class:`ChaosInjectedCrash`;
* **hang** — the worker sleeps past the engine's per-task timeout;
* **slow** — the worker sleeps briefly, exercising completion races;
* **corrupt** — the worker returns a *detectably wrong* result (a cut
  whose recomputed conductance cannot match, or a scale outside the
  parameter schedule), which the engine's re-verification layer must
  catch and recover from.

Fault decisions are a pure function of ``(ChaosSpec.seed, work-item
address)`` — the address the driver gives each slice, ``("slice", root,
batch, first instance)`` of its first item, hashed with SHA-256 like
every other cross-process key in this repository — so a chaos run is
exactly reproducible: the same spec injects the same faults into the
same slices on any machine and in any scheduling order.  Because the
retry layer recovers every fault by re-running the work inline on its
counter-addressed streams, a chaos run's *outputs* must be bit-identical
to the fault-free oracle — which is precisely what the chaos
differential suite and the CI ``chaos-parity`` job assert.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

from ..parallel.executor import SHARD_MIN_VERTICES, ShardedExecutor


class ChaosInjectedCrash(RuntimeError):
    """The crash fault: raised inside a worker instead of doing the work."""


@dataclass(frozen=True)
class ChaosSpec:
    """The fault plan: per-kind injection probabilities plus the chaos seed.

    Probabilities are evaluated per work item from one uniform draw (the
    SHA-256 of the item's address), checked in crash → hang → slow →
    corrupt order, so the kinds are mutually exclusive per item and their
    rates sum as given.  Frozen and plain-data: the spec is pickled to
    every worker alongside the work itself.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    corrupt: float = 0.0
    #: How long a "hung" worker sleeps — far past any sane task timeout.
    hang_seconds: float = 30.0
    #: How long a "slow" worker sleeps — enough to scramble completion order.
    slow_seconds: float = 0.02

    def roll(self, *address) -> str:
        """The fault (or ``"none"``) for a work item named by ``address``.

        Deterministic across processes: the builtin ``hash`` is salted
        per interpreter, so the draw is the SHA-256 of
        ``repr((seed, *address))`` — the same technique
        :func:`repro.utils.rng.component_stream_key` uses.
        """
        payload = repr((self.seed,) + tuple(address)).encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        u = int.from_bytes(digest[:8], "big") / float(1 << 64)
        for kind, probability in (
            ("crash", self.crash),
            ("hang", self.hang),
            ("slow", self.slow),
            ("corrupt", self.corrupt),
        ):
            if u < probability:
                return kind
            u -= probability
        return "none"


def _corrupt_triples(results):
    """Make a batch result detectably wrong (the corrupt fault's payload).

    The first present cut gets its claimed conductance shifted by +0.5 —
    impossible to reproduce from the cut's own vertices, so the driver's
    recomputation must disagree.  A batch with no cuts gets an
    out-of-schedule scale on its first triple instead (scales are bounded
    by the parameter ``ell``).  Either way the corruption is *detectable
    by re-verification*, never silently plausible.
    """
    corrupted = list(results)
    for position, (index, scale, cut) in enumerate(corrupted):
        if cut is not None:
            corrupted[position] = (
                index,
                scale,
                replace(cut, conductance=cut.conductance + 0.5),
            )
            return corrupted
    if corrupted:
        index, scale, cut = corrupted[0]
        corrupted[0] = (index, 10**9, cut)
    return corrupted


def _corrupt_slice(chunks):
    """Make a slice's result detectably wrong: corrupt one of its chunks.

    The first chunk with a cut — else the first non-empty one — goes
    through :func:`_corrupt_triples`; the driver re-verifies every chunk
    of a shipped slice, so the slice fails as a whole.
    """
    corrupted = list(chunks)
    victims = [
        k for k, triples in enumerate(corrupted)
        if any(cut is not None for _, _, cut in triples)
    ] + [k for k, triples in enumerate(corrupted) if triples]
    if victims:
        corrupted[victims[0]] = _corrupt_triples(corrupted[victims[0]])
    return corrupted


def chaos_run_task(spec: ChaosSpec, address: tuple, fn, *args):
    """Worker-side entry point with fault injection; pool-picklable.

    Runs ``fn(*args)`` — the slice's real worker entry point — unless the
    spec's roll for the driver-given ``address`` injects a fault; a
    corrupt fault passes the result through :func:`_corrupt_slice`.  The
    address uses the same facts the slice's first stream key does, so the
    fault plan is independent of scheduling, exactly like the randomness
    it perturbs.
    """
    fault = spec.roll(*address)
    if fault == "crash":
        raise ChaosInjectedCrash(f"injected crash in {address!r}")
    if fault == "hang":
        time.sleep(spec.hang_seconds)
    elif fault == "slow":
        time.sleep(spec.slow_seconds)
    result = fn(*args)
    return _corrupt_slice(result) if fault == "corrupt" else result


class ChaosExecutor(ShardedExecutor):
    """A sharded executor whose shipped work is fault-injected per the spec.

    Everything else — publication cache, stream discipline, the one
    dispatch path with its always-on result re-verification — is
    inherited.  Guard rails the chaos contract needs are enforced at
    construction: a non-zero hang rate requires a per-task timeout
    (default 5 s) so no configuration can hang, and the rebuild budget
    defaults to effectively unlimited so injected faults exercise the
    *retry* path rather than the terminal degrade (tests pin the terminal
    path separately with ``max_pool_rebuilds=0``).
    """

    name = "chaos"

    def __init__(
        self,
        workers: int,
        spec: ChaosSpec = None,
        min_shard_vertices: int = SHARD_MIN_VERTICES,
        max_pool_rebuilds: int = 1_000_000,
        task_timeout: float = None,
        retry_backoff: float = 0.0,
    ) -> None:
        spec = spec if spec is not None else ChaosSpec()
        if spec.hang > 0 and task_timeout is None:
            task_timeout = 5.0
        super().__init__(
            workers,
            min_shard_vertices=min_shard_vertices,
            max_pool_rebuilds=max_pool_rebuilds,
            task_timeout=task_timeout,
            retry_backoff=retry_backoff,
        )
        self.spec = spec

    def _worker_call(self, address: tuple, chunks: list) -> tuple:
        """Route every slice through :func:`chaos_run_task`."""
        return (chaos_run_task, self.spec, address, *super()._worker_call(address, chunks))
