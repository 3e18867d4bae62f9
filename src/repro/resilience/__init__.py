"""Resilient execution: checkpoint/resume, deadlines, retries, and chaos.

The decomposition is self-certifying — every component carries a
conductance certificate — so the system can always *detect* bad or
missing work; this package is what lets it *survive* it:

* :mod:`~repro.resilience.journal` — :class:`RunJournal`, the
  checkpoint/resume store keyed by the per-subtree stream address, so an
  interrupted ``expander_decomposition(..., journal=...)`` resumes
  bit-identically (docs/RESILIENCE.md carries the argument).
* :mod:`~repro.resilience.deadline` — :class:`Deadline` budgets with
  graceful degradation: expiry yields a flagged
  ``PartialDecomposition``, never an exception and never silent
  wrongness.
* :mod:`~repro.resilience.events` — structured :class:`DegradeEvent`
  records replacing the old one-shot degradation warning, plus
  :class:`ResultValidationError`, the re-verification failure.
* :mod:`~repro.resilience.chaos` — :class:`ChaosExecutor`, seeded
  deterministic fault injection (crash / hang / slow / corrupt) into the
  pool's slices of rounds, across the whole differential matrix.

The first three modules import nothing from the rest of the package, so
every layer can depend on them; :mod:`~repro.resilience.chaos` sits
*above* :mod:`repro.parallel` and is therefore loaded lazily here (a
module ``__getattr__``) to keep the import graph acyclic.
"""

from .deadline import (
    Deadline,
    DeadlineExpired,
    active_deadline,
    check_walk_deadline,
    deadline_scope,
    resolve_deadline,
)
from .events import DegradeEvent, ResultValidationError
from .journal import RunJournal

_CHAOS_NAMES = {
    "ChaosExecutor",
    "ChaosInjectedCrash",
    "ChaosSpec",
    "chaos_run_task",
}

__all__ = [
    "Deadline",
    "DeadlineExpired",
    "DegradeEvent",
    "ResultValidationError",
    "RunJournal",
    "active_deadline",
    "check_walk_deadline",
    "deadline_scope",
    "resolve_deadline",
    *sorted(_CHAOS_NAMES),
]


def __getattr__(name: str):
    """Lazy chaos exports: loaded on first touch, after repro.parallel exists."""
    if name in _CHAOS_NAMES:
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
