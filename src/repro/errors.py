"""Exception hierarchy for the DeepStrike reproduction.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class DRCViolation(ReproError):
    """A netlist failed design rule checking (e.g. a combinational loop)."""

    def __init__(self, rule: str, message: str) -> None:
        self.rule = rule
        super().__init__(f"DRC rule '{rule}' violated: {message}")


class PlacementError(ReproError):
    """A tenant could not be placed on the device floorplan."""


class ResourceError(ReproError):
    """A tenant requested more resources than the device provides."""


class CalibrationError(ReproError):
    """Sensor calibration failed to reach the requested operating point."""


class SchedulerError(ReproError):
    """The attack scheduler was driven through an illegal state transition."""


class SchemeError(ReproError):
    """An attacking scheme file is malformed or cannot be compiled."""


class QuantizationError(ReproError):
    """A value cannot be represented in the requested fixed-point format."""


class SimulationError(ReproError):
    """The co-simulation loop reached an inconsistent state."""


class ProfilingError(ReproError):
    """Side-channel profiling could not segment or classify a trace."""


class LinkDeadError(ReproError):
    """The remote guidance link failed permanently.

    Raised by the host-side ARQ layer once an operation has exhausted its
    retransmission budget or its per-operation timeout — the typed signal
    that the channel (not the request) is at fault.
    """

    def __init__(self, message: str, attempts: int = 0,
                 waited_s: float = 0.0) -> None:
        self.attempts = attempts
        self.waited_s = waited_s
        super().__init__(message)


class ChaosError(ReproError):
    """A failure injected by the chaos harness (not a real library bug)."""


class LintError(ReproError):
    """The contract linter could not run (bad path, rule id, or source).

    Raised by :mod:`repro.lint` for *operational* failures — a missing
    lint path, an unknown ``--rules`` id, an unparseable source file.
    Rule findings are not errors; they are data
    (:class:`repro.lint.Finding`) and drive the CLI exit code instead.
    """


class ProtocolError(ReproError):
    """A campaign-service wire frame was malformed or oversized.

    Raised by :mod:`repro.core.service.protocol` when a peer sends a
    frame that cannot be parsed: a truncated length prefix, a frame
    ending mid-payload, a length beyond ``MAX_FRAME_BYTES``, or a
    payload that is not a JSON object.  The broker treats a connection
    raising this as dead (the worker's leases are reclaimed by the
    heartbeat sweep); a worker treats it as a failed exchange and
    retries on a fresh connection.  A worker also refuses with it a
    ``job`` frame it cannot run (``repro work`` exits 2 on one line).
    """


class RecoveryExhaustedError(ReproError):
    """The hardened victim's replay budget ran out on a layer that keeps
    flagging timing errors.

    Raised by :class:`~repro.defense.HardenedAcceleratorEngine` when a
    layer's razor flags survive ``max_replays_per_layer`` rollback
    replays — the typed signal that the attack is overwhelming the
    recovery path (fail-stop, not silent corruption).
    """

    def __init__(self, message: str, layer: str = "",
                 attempts: int = 0) -> None:
        self.layer = layer
        self.attempts = attempts
        super().__init__(message)
