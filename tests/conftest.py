"""Suite-wide fixtures and guards.

Three pieces of machinery live here.  The ``engine`` fixture puts the
triangle enumerators on their dict or their CSR engine, by moving the
size threshold :func:`repro.graphs.csr.uses_csr_engine` reads — the
library picks that engine from the graph, so this is how a test compares
the two on one input.  The ``kernel`` fixture does the same for the
ParallelNibble batches: ``"lockstep"`` runs every batch as lockstep
rows, ``"workspace"`` runs one workspace walk per draw, by moving the
cell budget :data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`.

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
import threading
from contextlib import contextmanager

import pytest

from repro.graphs import csr as csr_module
from repro.nibble import lockstep

#: Size thresholds that put every triangle enumeration on one engine.
ENGINE_THRESHOLDS = {"dict": 10**9, "csr": 0}

#: Cell budgets that put every ParallelNibble batch on one kernel.
KERNEL_BUDGETS = {"lockstep": float("inf"), "workspace": 0}


def _forcing_fixture(monkeypatch, module, attribute: str, settings: dict):
    """A ``with scope(name):`` factory that pins ``module.attribute``.

    ``"auto"`` keeps the library's default, so a test can loop over every
    name of ``settings`` and ``"auto"``.
    """

    @contextmanager
    def scope(name: str):
        with monkeypatch.context() as patch:
            if name != "auto":
                patch.setattr(module, attribute, settings[name])
            yield

    return scope


@pytest.fixture
def engine(monkeypatch):
    """``with engine("dict"):`` / ``with engine("csr"):`` — one triangle engine."""
    return _forcing_fixture(
        monkeypatch, csr_module, "CSR_AUTO_THRESHOLD", ENGINE_THRESHOLDS
    )


@pytest.fixture
def kernel(monkeypatch):
    """``with kernel("lockstep"):`` / ``with kernel("workspace"):`` — one batch kernel."""
    return _forcing_fixture(
        monkeypatch, lockstep, "LOCKSTEP_CELL_BUDGET", KERNEL_BUDGETS
    )


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
