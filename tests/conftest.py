"""Suite-wide fixtures and guards.

Three pieces of machinery live here.  ``tests/differential`` goes on
``sys.path``, so the differential harness (``diffharness.py``, with its
:func:`~diffharness.precheck_off` oracle) and the frozen-oracle fixture
import by name from any test module, under any import mode.  The
``kernel`` fixture puts the ParallelNibble batches on one kernel:
``"lockstep"`` runs every batch as lockstep rows, ``"workspace"`` runs
one workspace walk per draw, by moving the cell budget
:data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`.

The last is an opt-in per-test timeout: pool-backed tests can hang
forever if a worker deadlocks instead of crashing (a crash is caught by
the degrade path; a deadlock is not).  CI sets
``REPRO_TEST_TIMEOUT=<seconds>`` so a wedged test fails loudly with a
stack trace instead of eating the job's whole ``timeout-minutes``.  The
guard uses :mod:`signal` alarms — no third-party plugin — and is a no-op
when the variable is unset, on non-main threads, or where ``SIGALRM``
does not exist.
"""

import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.nibble import lockstep

DIFFERENTIAL = str(Path(__file__).resolve().parent / "differential")
if DIFFERENTIAL not in sys.path:
    sys.path.insert(0, DIFFERENTIAL)

#: Cell budgets that put every ParallelNibble batch on one kernel.
KERNEL_BUDGETS = {"lockstep": float("inf"), "workspace": 0}


@pytest.fixture
def kernel(monkeypatch):
    """``with kernel("lockstep"):`` / ``with kernel("workspace"):`` — one batch kernel.

    ``"auto"`` keeps the library's default, so a test can loop over every
    kernel and ``"auto"``.
    """

    @contextmanager
    def scope(name: str):
        with monkeypatch.context() as patch:
            if name != "auto":
                patch.setattr(lockstep, "LOCKSTEP_CELL_BUDGET", KERNEL_BUDGETS[name])
            yield

    return scope


def _timeout_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")
    except ValueError:
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_seconds()
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def expired(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={seconds:g}s: {item.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
