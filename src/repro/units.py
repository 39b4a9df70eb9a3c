"""Physical unit helpers.

All quantities inside the library are plain SI floats (seconds, volts,
amperes, hertz).  These helpers exist to make call sites read like the
datasheet values they came from (``ns(10)`` rather than ``1e-8``).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Constructors: datasheet-unit -> SI float
# ---------------------------------------------------------------------------


def ns(value: float) -> float:
    """Nanoseconds to seconds."""
    return value * 1e-9


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return value * 1e6


def mv(value: float) -> float:
    """Millivolts to volts."""
    return value * 1e-3


def ua(value: float) -> float:
    """Microamperes to amperes."""
    return value * 1e-6


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def period_of(frequency_hz: float) -> float:
    """Clock period in seconds for ``frequency_hz``."""
    if frequency_hz <= 0.0:
        msg = f"frequency must be positive, got {frequency_hz}"
        # A dependency-light leaf module keeps stdlib argument errors
        # for API stability; config validation wraps them as
        # ConfigError at the public boundary.
        raise ValueError(msg)  # lint: ignore[REPRO-EXC002]
    return 1.0 / frequency_hz
