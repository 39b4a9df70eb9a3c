"""Defences against PDN fault injection — the paper's future-work angle.

Two complementary directions, both hinted at by the paper's own
citations (TDC sensors used defensively; FPGADefender-style bitstream
scanning; oscillators-without-combinational-loops as a known threat):

* **Runtime monitoring** (:mod:`~repro.defense.droop_monitor`): the
  victim instantiates its own TDC and watches for droop excursions that
  normal operation cannot produce.  Strike trains are glitches far below
  the activity envelope, so even simple detectors catch them; the
  interesting trade-off is detection latency versus false alarms under
  activity noise, which :mod:`~repro.defense.evaluation` quantifies.
* **Admission-time scanning** (:mod:`~repro.defense.bitstream_scan`):
  vendor DRC only rejects *combinational* loops.  Scanning for loops
  that close through transparent latches — and for the structural
  signature of power-waster banks (huge fanout enable nets driving
  latch gates) — catches DeepStrike's striker before it ever runs.
* **Detect-and-recover runtime** (:mod:`~repro.defense.hardened_engine`
  and :mod:`~repro.defense.recovery`): razor-style shadow latches on
  the DSP capture edges, droop-triggered checkpoint/rollback replay at
  a divided clock, calibrated activation clamping, and optional TMR on
  the final classifier.  The arms race between this runtime and the
  striker is quantified by :class:`~repro.defense.ArmsRaceStudy`.
"""

from .droop_monitor import DroopMonitor, MonitorVerdict
from .bitstream_scan import BitstreamScanner, ScanFinding, ScanReport
from .evaluation import (ArmsRaceCell, ArmsRaceStudy, DetectionStudy,
                         DetectionResult, arms_target, default_defenses,
                         parse_arms_target, resolve_defense)
from .hardened_engine import HardenedAcceleratorEngine
from .recovery import (ActivationClamp, RazorDetector, RecoveryStats,
                       StageBounds)

__all__ = [
    "ActivationClamp",
    "ArmsRaceCell",
    "ArmsRaceStudy",
    "BitstreamScanner",
    "DetectionResult",
    "DetectionStudy",
    "DroopMonitor",
    "HardenedAcceleratorEngine",
    "MonitorVerdict",
    "RazorDetector",
    "RecoveryStats",
    "ScanFinding",
    "ScanReport",
    "StageBounds",
    "arms_target",
    "default_defenses",
    "parse_arms_target",
    "resolve_defense",
]
