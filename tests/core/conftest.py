"""Fixtures for the lease-book tests: a hand-driven monotonic clock."""

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
    book, the pool transport and the broker all read time through it."""
    from repro.core import supervisor

    fake = FakeClock()
    monkeypatch.setattr(supervisor, "_monotonic", fake)
    return fake


@pytest.fixture
def lease_book(clock):
    """Factory for a lease book on the fake clock.  Holds are a fixed
    1 s (no jitter) unless a test overrides the backoff policy."""
    from repro.config import SupervisorConfig
    from repro.core.supervisor import _LeaseBook

    def make(cells=(("pool1", 40), ("pool1", 80)), steal_after_s=None,
             **policy):
        defaults = dict(cell_timeout_s=10.0, max_retries=3,
                        quarantine_after=2, backoff_base_s=1.0,
                        backoff_max_s=1.0, backoff_jitter=0.0)
        defaults.update(policy)
        return _LeaseBook(list(cells), SupervisorConfig(**defaults), seed=5,
                          steal_after_s=steal_after_s)

    return make
