"""TDC sensor, calibration, and trace segmentation tests."""

import numpy as np
import pytest

from repro.config import TDCConfig, default_config
from repro.errors import CalibrationError, ConfigError, ProfilingError
from repro.fpga import ClockManagementTile, DesignRuleChecker
from repro.sensors import (
    GateDelayModel,
    ReadoutTrace,
    TDCSensor,
    build_tdc_netlist,
    calibrate_theta,
)
from repro.sensors.calibration import theta_for_target
from repro.sensors.trace import _runs


@pytest.fixture(scope="module")
def calibrated(delay_model_module):
    cfg = default_config()
    cmt = ClockManagementTile()
    theta, readout = calibrate_theta(cfg.tdc, delay_model_module, cmt,
                                     rng=np.random.default_rng(0))
    sensor = TDCSensor(cfg.tdc, delay_model_module, theta, rng=None)
    return sensor, readout


@pytest.fixture(scope="module")
def delay_model_module():
    return GateDelayModel(default_config().delay)


class TestTDCSensor:
    def test_calibrated_nominal_readout(self, calibrated):
        sensor, readout = calibrated
        assert abs(readout - 92) <= 3
        assert abs(sensor.readout(1.0) - 92) <= 3

    def test_readout_decreases_with_droop(self, calibrated):
        sensor, _ = calibrated
        readouts = [sensor.readout(v) for v in (1.0, 0.98, 0.95, 0.90)]
        assert readouts == sorted(readouts, reverse=True)
        assert readouts[-1] < readouts[0] - 20

    def test_sensitivity_near_half_count_per_mv(self, calibrated):
        sensor, _ = calibrated
        sens = sensor.sensitivity_counts_per_volt()
        assert 300 <= sens <= 800

    def test_capture_is_thermometer(self, calibrated):
        sensor, _ = calibrated
        vec = sensor.capture(1.0)
        k = int(vec.sum())
        assert np.all(vec[:k] == 1) and np.all(vec[k:] == 0)

    def test_trace_sampling_matches_scalar(self, calibrated):
        sensor, _ = calibrated
        volts = np.linspace(0.9, 1.0, 20)
        trace = sensor.sample_trace(volts)
        scalar = np.array([sensor.readout(float(v)) for v in volts])
        np.testing.assert_array_equal(trace, scalar)

    def test_saturation_detection(self, calibrated):
        sensor, _ = calibrated
        assert sensor.is_saturated(0)
        assert sensor.is_saturated(sensor.config.l_carry)
        assert not sensor.is_saturated(92)

    def test_uncalibrated_theta_rejected(self, delay_model_module):
        with pytest.raises(ConfigError):
            TDCSensor(default_config().tdc, delay_model_module, theta=0.0)

    def test_jitter_adds_readout_noise(self, delay_model_module):
        cfg = default_config()
        theta = theta_for_target(cfg.tdc, delay_model_module)
        noisy = TDCSensor(cfg.tdc, delay_model_module, theta,
                          rng=np.random.default_rng(3))
        values = {noisy.readout(0.99) for _ in range(64)}
        assert len(values) > 1

    def test_readout_equals_0d_array_path(self, calibrated):
        """The float readout against the path it replaced, on a grid
        that saturates at both ends of the chain."""
        sensor, _ = calibrated
        grid = np.linspace(0.3, 1.3, 20_001)
        fast = [sensor.readout(float(v)) for v in grid]
        ref = [int(sensor.stages_traversed(np.float64(v))) for v in grid]
        assert fast == ref
        assert all(type(r) is int for r in fast)
        assert min(fast) == 0 and max(fast) == sensor.config.l_carry

    def test_jittered_readout_consumes_the_same_draw(self, delay_model_module):
        cfg = default_config()
        theta = theta_for_target(cfg.tdc, delay_model_module)
        fast_rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        fast = TDCSensor(cfg.tdc, delay_model_module, theta, rng=fast_rng)
        ref = TDCSensor(cfg.tdc, delay_model_module, theta, rng=ref_rng)
        for v in np.linspace(0.93, 1.0, 2001):
            assert fast.readout(float(v)) == \
                int(ref.stages_traversed(np.float64(v)))
            assert fast_rng.normal() == ref_rng.normal()


class TestCalibration:
    def test_analytic_theta_hits_target(self, delay_model_module):
        cfg = default_config()
        theta = theta_for_target(cfg.tdc, delay_model_module, target=92)
        sensor = TDCSensor(cfg.tdc, delay_model_module, theta, rng=None)
        assert sensor.readout(1.0) == 92

    def test_calibration_at_lower_idle_voltage(self, delay_model_module):
        cfg = default_config()
        cmt = ClockManagementTile()
        theta, readout = calibrate_theta(cfg.tdc, delay_model_module, cmt,
                                         idle_voltage=0.985,
                                         rng=np.random.default_rng(1))
        assert abs(readout - cfg.tdc.calibration_target) <= 3
        sensor = TDCSensor(cfg.tdc, delay_model_module, theta, rng=None)
        assert abs(sensor.readout(0.985) - 92) <= 3

    def test_unreachable_target_raises(self, delay_model_module):
        # A drive period far too short for the delay lines: every phase
        # candidate saturates -> counting errors -> calibration fails.
        cfg = TDCConfig(l_lut=64, lut_stage_delay_nominal=2e-9)
        cmt = ClockManagementTile()
        with pytest.raises(CalibrationError):
            calibrate_theta(cfg, delay_model_module, cmt,
                            rng=np.random.default_rng(2))

    def test_bad_target_rejected(self, delay_model_module):
        cfg = default_config().tdc
        with pytest.raises(CalibrationError):
            theta_for_target(cfg, delay_model_module, target=128)


class TestTDCNetlist:
    def test_passes_drc(self):
        report = DesignRuleChecker().check(build_tdc_netlist(default_config().tdc))
        assert report.passed

    def test_resource_shape(self):
        cfg = default_config().tdc
        nl = build_tdc_netlist(cfg)
        assert nl.ff_count() == cfg.l_carry
        assert nl.lut_count() == cfg.l_lut + 1  # + carry propagate const

    def test_non_multiple_of_four_rejected(self):
        with pytest.raises(ConfigError):
            build_tdc_netlist(TDCConfig(l_carry=130))


class TestReadoutTrace:
    def _trace(self):
        readouts = np.full(600, 92)
        readouts[200:400] = 85  # one activity burst
        return ReadoutTrace(readouts, dt=5e-9, nominal=92)

    def test_segmentation_finds_burst(self):
        segments = self._trace().segment()
        kinds = [s.kind for s in segments]
        assert kinds == ["stall", "activity", "stall"]
        activity = segments[1]
        assert 180 <= activity.start <= 220
        assert 380 <= activity.end <= 420

    def test_short_blips_filtered(self):
        readouts = np.full(400, 92)
        readouts[100:104] = 80  # 4-tick blip: below min_activity_ticks
        trace = ReadoutTrace(readouts, dt=5e-9, nominal=92)
        assert trace.activity_segments() == []

    def test_micro_stalls_merged(self):
        readouts = np.full(800, 92)
        readouts[100:300] = 85
        readouts[310:500] = 85  # 10-tick gap inside one layer
        trace = ReadoutTrace(readouts, dt=5e-9, nominal=92)
        activity = trace.activity_segments()
        assert len(activity) == 1

    def test_fluctuation_and_droop_metrics(self):
        trace = self._trace()
        assert trace.fluctuation() == 7
        assert 0 < trace.droop_depth() < 7

    def test_empty_trace_rejected(self):
        with pytest.raises(ProfilingError):
            ReadoutTrace(np.array([]), dt=5e-9, nominal=92)

    def test_segments_cover_trace(self):
        segments = self._trace().segment()
        assert segments[0].start == 0
        assert segments[-1].end == 600
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start

    def test_runs_equal_the_element_loop(self):
        """The vectorized run-length encoder against the per-element
        loop it replaced, on random and degenerate masks."""
        rng = np.random.default_rng(11)
        masks = [np.zeros(0, dtype=bool), np.ones(1, dtype=bool),
                 np.zeros(1, dtype=bool), np.ones(500, dtype=bool),
                 np.zeros(500, dtype=bool)]
        for _ in range(200):
            n = int(rng.integers(1, 400))
            if rng.random() < 0.5:
                masks.append(rng.random(n) < rng.random())
            else:  # long runs, like a smoothed activity mask
                lengths = rng.integers(1, 60, size=n // 10 + 1)
                values = np.arange(lengths.size) % 2 == rng.integers(2)
                masks.append(np.repeat(values, lengths))
        for mask in masks:
            runs = _runs(mask)
            assert runs == _element_loop_runs(mask)
            assert all(type(v) is bool and type(s) is int and type(e) is int
                       for v, s, e in runs)


def _element_loop_runs(mask):
    """The per-element loop :func:`repro.sensors.trace._runs` replaced."""
    runs = []
    start = 0
    for k in range(1, len(mask) + 1):
        if k == len(mask) or mask[k] != mask[start]:
            runs.append((bool(mask[start]), start, k))
            start = k
    return runs
