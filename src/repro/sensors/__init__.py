"""On-chip voltage sensing: the TDC delay sensor and its support pieces.

The TDC-based delay sensor is the attack scheduler's eye into the shared
PDN: supply droop slows the sensor's delay lines, shifting how far a clock
edge propagates down a carry chain before the sampling clock captures it.
The thermometer-coded capture, reduced to a ones-count, tracks transient
voltage with nanosecond resolution — enough to tell DNN layers apart
(paper Fig 1b).
"""

from .delay import GateDelayModel
from .tdc import TDCSensor, build_tdc_netlist
from .encoder import ones_count, thermometer_vector, zone_sample_indices, zone_bits
from .calibration import calibrate_theta
from .ro_sensor import build_ro_sensor_netlist
from .trace import ReadoutTrace, Segment

__all__ = [
    "GateDelayModel",
    "ReadoutTrace",
    "Segment",
    "TDCSensor",
    "build_ro_sensor_netlist",
    "build_tdc_netlist",
    "calibrate_theta",
    "ones_count",
    "thermometer_vector",
    "zone_bits",
    "zone_sample_indices",
]
