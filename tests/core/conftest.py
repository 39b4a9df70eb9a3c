"""Fixtures for the lease-book tests: a hand-driven monotonic clock and
the lease, socket and worker policy constants."""

import pytest


class FakeClock:
    """A monotonic clock that moves only when a test moves ``t``."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock(monkeypatch):
    """The one lease clock hook (``supervisor._monotonic``), faked — the
    book and the broker both read time through it."""
    from repro.core import supervisor

    fake = FakeClock()
    monkeypatch.setattr(supervisor, "_monotonic", fake)
    return fake


@pytest.fixture
def constants(monkeypatch):
    """Set policy constants of ``repro.core.supervisor``,
    ``repro.core.service.broker`` or ``repro.core.service.worker`` for
    one test, by name: ``constants(HOLD_BASE_S=1.0,
    HEARTBEAT_TIMEOUT_S=0.8)``.  Forked workers inherit the values."""
    from repro.core import supervisor
    from repro.core.service import broker, worker

    def set_constants(**values):
        for name, value in values.items():
            module, = [m for m in (supervisor, broker, worker)
                       if hasattr(m, name)]
            monkeypatch.setattr(module, name, value)

    return set_constants


@pytest.fixture
def lease_book(clock, constants):
    """Factory for a lease book on the fake clock.  Holds are a fixed
    1 s unless a test sets the hold constants."""
    from repro.config import SupervisorConfig
    from repro.core.supervisor import _LeaseBook

    constants(HOLD_BASE_S=1.0, HOLD_MAX_S=1.0)

    def make(cells=(("pool1", 40), ("pool1", 80)), **policy):
        defaults = dict(cell_timeout_s=10.0, max_retries=3)
        defaults.update(policy)
        return _LeaseBook(list(cells), SupervisorConfig(**defaults))

    return make
