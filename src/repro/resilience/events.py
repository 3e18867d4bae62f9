"""Structured degrade events: what went wrong, where, and what happened next.

The resilient executor layer (:mod:`repro.parallel.executor`) used to
communicate failure through a single one-shot ``RuntimeWarning``; with
bounded pool-rebuild retries a run can now survive *several* distinct
failure episodes, so each one is recorded as a :class:`DegradeEvent` on
the executor's ``events`` list — machine-readable, assertable in tests,
and printable by bench — while the warning is reserved for the terminal
"retries exhausted, inline forever" transition.

This module imports nothing from the rest of the package (it sits below
both :mod:`repro.parallel` and :mod:`repro.decomposition` in the import
graph), so every layer can raise and record against it freely.
"""

from __future__ import annotations

from dataclasses import dataclass


class ResultValidationError(RuntimeError):
    """A pool worker returned a result that fails re-verification.

    Raised by the executor's batch validator when a returned cut's
    recomputed conductance/volume/boundary disagrees with what the worker
    claimed, or a chunk's instance indices or truncation scales are not
    the ones it was asked for.  The caller treats it exactly like a
    crashed worker: the work is re-run inline
    (bit-identically, per the counter-addressed stream discipline) and the
    pool is rebuilt — a corrupted result can therefore never reach a
    caller, only cost time.
    """


@dataclass(frozen=True)
class DegradeEvent:
    """One failure episode of a pooled engine.

    ``kind`` is one of ``"pool-failure"`` (a submit or worker crash),
    ``"timeout"`` (a per-task timeout expired and the worker was killed),
    ``"corrupt-result"`` (a returned result failed re-verification), or
    ``"deadline-cancel"`` (the run's :class:`~repro.resilience.deadline.
    Deadline` expired while pool results were outstanding — not a fault,
    so it never counts against the rebuild budget).  ``fatal`` marks the
    episode that exhausted ``max_pool_rebuilds`` and degraded the engine to
    inline execution permanently.
    """

    kind: str
    error: str
    fatal: bool = False
