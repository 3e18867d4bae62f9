"""Deadlines: a wall-clock budget a decomposition can honour gracefully.

A :class:`Deadline` is a latched countdown over an injectable clock.  The
decomposition driver checks it at every subtree boundary, the sparse-cut
loop checks it between ParallelNibble batches, and the walk kernels check
it once per lazy walk step through the ambient :func:`deadline_scope` /
:func:`check_walk_deadline` pair — so expiry is noticed within one walk
step even in the middle of a long truncated walk, without threading a
deadline argument through every kernel signature.

Expiry is never an error at the API surface: the sparse cut returns an
``interrupted`` result and the decomposition returns a
:class:`~repro.decomposition.expander.PartialDecomposition` whose
unfinished components are explicitly flagged.  :class:`DeadlineExpired`
exists only as the *internal* unwind signal from a walk loop back to the
sparse-cut driver, which catches it; it never escapes
``expander_decomposition``.

The clock is injectable (``clock=``) so tests can drive expiry
deterministically — e.g. a counting clock that "expires" after exactly N
checks — instead of racing real time.  The latch matters for exactness:
once :meth:`Deadline.expired` has returned True it returns True forever,
so a test clock that jumps backwards cannot un-expire a run halfway
through emitting its unfinished markers.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Callable, Optional, Union


class DeadlineExpired(Exception):
    """Internal unwind signal: an ambient deadline expired inside a walk loop.

    Raised by :func:`check_walk_deadline` and caught by
    :func:`repro.decomposition.sparse_cut.nearly_most_balanced_sparse_cut`,
    which converts it into an ``interrupted`` result.  Layers between the
    two (executors included) must re-raise it rather than treat it as a
    pool failure.
    """


class Deadline:
    """A latched wall-clock budget with an injectable clock.

    ``Deadline(seconds)`` starts counting immediately against
    ``time.monotonic``; :meth:`remaining` and :meth:`expired` answer
    against the same clock.  Once expired, always expired (the latch), so
    every layer that consults the deadline after expiry agrees — which is
    what makes the partial decomposition's "everything after the expiry
    point is an unfinished marker" prefix argument exact.  An infinite
    budget never expires; a NaN budget raises :class:`ValueError` (it
    would compare false against every elapsed time and leave nothing
    remaining without ever expiring).
    """

    def __init__(
        self, seconds: float, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.budget = float(seconds)
        if math.isnan(self.budget):
            raise ValueError(
                f"deadline budget must be a number of seconds, got {seconds!r}"
            )
        self._clock = clock if clock is not None else time.monotonic
        self._start = self._clock()
        self._expired = False

    @classmethod
    def after(
        cls, seconds: float, clock: Optional[Callable[[], float]] = None
    ) -> "Deadline":
        """A deadline ``seconds`` from now (the readable construction form)."""
        return cls(seconds, clock=clock)

    def elapsed(self) -> float:
        """Seconds consumed so far, per the deadline's own clock."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left before expiry; 0.0 once expired (never negative)."""
        if self._expired:
            return 0.0
        return max(0.0, self.budget - self.elapsed())

    def expired(self) -> bool:
        """Whether the budget has run out; latched — never un-expires."""
        if not self._expired and self.elapsed() >= self.budget:
            self._expired = True
        return self._expired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "expired" if self._expired else f"{self.remaining():.3f}s left"
        return f"Deadline(budget={self.budget:.3f}s, {state})"


def resolve_deadline(
    deadline: Union[None, int, float, Deadline],
) -> Optional[Deadline]:
    """Coerce the user-facing ``deadline=`` value: seconds become a Deadline.

    ``None`` stays ``None`` (no budget); a number starts a
    :class:`Deadline` *now*; an existing :class:`Deadline` passes through
    (its clock keeps running — callers can share one budget across several
    calls).
    """
    if deadline is None or isinstance(deadline, Deadline):
        return deadline
    return Deadline.after(float(deadline))


#: The ambient-deadline stack for :func:`deadline_scope`.  A plain list:
#: scopes nest within one thread (the driver's), and pool workers never
#: enter a scope at all (their copy of this module starts empty), so the
#: walk-loop check is a no-op everywhere a deadline was not installed.
_SCOPES: list = []


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Install ``deadline`` as the ambient deadline for the enclosed code.

    The walk kernels consult the innermost installed deadline through
    :func:`check_walk_deadline`; ``None`` installs nothing, making the
    scope free for unbounded runs.  Always balanced — the deadline is
    popped even when the body unwinds via :class:`DeadlineExpired`.
    """
    if deadline is None:
        yield
        return
    _SCOPES.append(deadline)
    try:
        yield
    finally:
        _SCOPES.pop()


def active_deadline() -> Optional[Deadline]:
    """The innermost ambient deadline, or ``None`` outside every scope."""
    return _SCOPES[-1] if _SCOPES else None


def check_walk_deadline() -> None:
    """Raise :class:`DeadlineExpired` if the ambient deadline has expired.

    Called once per lazy walk step by both walk/sweep backends
    (:func:`repro.nibble.nibble.scan_walk_sequence` and its CSR twin) and
    once per lockstep step by
    :func:`repro.nibble.lockstep.lockstep_approximate_nibble`.
    The empty-stack fast path is one list truthiness test, so unbounded
    runs pay essentially nothing.
    """
    if _SCOPES and _SCOPES[-1].expired():
        raise DeadlineExpired(
            f"walk interrupted: deadline of {_SCOPES[-1].budget:.3f}s expired"
        )
