"""Suite-wide fixtures and guards.

Two pieces of machinery live here.  The ``engine`` fixture forces every
working graph a test builds onto the dict or the CSR engine, by moving
the size threshold :func:`repro.graphs.csr.uses_csr_engine` reads — the
library itself picks the engine from the graph, so this is how a test
compares the two on one input.

The other is an opt-in per-test timeout: pool-backed tests can hang
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

#: Size thresholds that put every graph the suite builds on one engine.
ENGINE_THRESHOLDS = {"dict": 10**9, "csr": 0}


@pytest.fixture
def engine(monkeypatch):
    """``with engine("dict"):`` / ``with engine("csr"):`` — one engine throughout.

    ``"auto"`` keeps the library's default size rule, so a test can loop
    over all three names.
    """

    @contextmanager
    def scope(name: str):
        with monkeypatch.context() as patch:
            if name != "auto":
                patch.setattr(
                    csr_module, "CSR_AUTO_THRESHOLD", ENGINE_THRESHOLDS[name]
                )
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
