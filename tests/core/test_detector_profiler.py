"""DNN start detector and side-channel profiler tests."""

import numpy as np
import pytest

from repro.core import DNNStartDetector, DetectorState, SideChannelProfiler
from repro.errors import ProfilingError, SchedulerError
from repro.sensors.encoder import zone_bits_from_readout


class TestDetector:
    def _idle_then_activity(self, idle=40, active=60):
        return np.concatenate([np.full(idle, 92), np.full(active, 86)])

    def test_triggers_on_layer_start(self):
        det = DNNStartDetector()
        trace = self._idle_then_activity()
        hit = det.find_trigger(trace)
        assert hit is not None
        assert 40 <= hit <= 40 + det.debounce

    def test_does_not_trigger_without_arming(self):
        """Starting mid-activity must not trigger (needs idle first)."""
        det = DNNStartDetector()
        assert det.find_trigger(np.full(100, 86)) is None

    def test_small_wobble_ignored(self):
        """+-1 count wobble around the calibrated point never triggers —
        the 'purification' property of the zone sampler (Fig 3)."""
        rng = np.random.default_rng(0)
        trace = 92 + rng.integers(-1, 2, size=2000)
        det = DNNStartDetector()
        assert det.find_trigger(trace) is None

    def test_single_glitch_debounced(self):
        trace = np.full(100, 92)
        trace[50] = 80  # one noisy sample
        det = DNNStartDetector(debounce=3)
        assert det.find_trigger(trace) is None

    def test_state_machine_progression(self):
        det = DNNStartDetector(debounce=2)
        assert det.state is DetectorState.IDLE
        for _ in range(2):
            det.observe_readout(92)
        assert det.state is DetectorState.ARMED
        det.observe_readout(85)
        fired = det.observe_readout(85)
        assert fired and det.state is DetectorState.TRIGGERED

    def test_multiple_triggers_with_rearm(self):
        one = self._idle_then_activity()
        trace = np.concatenate([one, one, one])
        det = DNNStartDetector()
        hits = det.find_all_triggers(trace, rearm_gap=10)
        assert len(hits) == 3

    def test_detector_input_trace_levels(self):
        det = DNNStartDetector()
        hw = det.detector_input_trace(np.array([92, 86, 60, 10]))
        assert list(hw) == [4, 3, 2, 0]

    @pytest.mark.parametrize("geometry", [
        {},
        {"l_carry": 64, "zones": 4, "fraction": 0.3},
    ])
    def test_integer_weight_equals_zone_word(self, geometry):
        """observe_readout's weight, counted on the int, equals the
        summed zone word for every readout (and a few outside the
        chain, where a custom readout filter could put one)."""
        det = DNNStartDetector(**geometry)
        seen = []
        det._advance = seen.append
        readouts = range(-3, det.l_carry + 4)
        for readout in readouts:
            det.observe_readout(readout)
        words = zone_bits_from_readout(np.array(readouts), det.l_carry,
                                       det.zones, det.fraction)
        assert seen == words.sum(axis=1).tolist()

    def test_bad_thresholds_rejected(self):
        with pytest.raises(SchedulerError):
            DNNStartDetector(arm_hw=3, trigger_hw=3)
        with pytest.raises(SchedulerError):
            DNNStartDetector(debounce=0)


class TestProfiler:
    def _synthetic_trace(self):
        """stall | pool-ish | stall | conv-ish | stall | fc-ish | stall."""
        parts = [
            np.full(300, 92),
            np.full(200, 90),    # shallow, short -> pool
            np.full(300, 92),
            np.full(1000, 85),   # deep -> conv
            np.full(300, 92),
            np.full(4000, 90),   # shallow, long -> fc
            np.full(300, 92),
        ]
        return np.concatenate(parts)

    def test_profile_segments_and_kinds(self):
        prof = SideChannelProfiler(nominal_readout=92)
        sigs = prof.profile(self._synthetic_trace(), dt=5e-9)
        assert len(sigs) == 3
        assert [s.kind_guess for s in sigs] == ["pool", "conv", "fc"]

    def test_durations_recovered(self):
        prof = SideChannelProfiler(nominal_readout=92)
        sigs = prof.profile(self._synthetic_trace(), dt=5e-9)
        assert sigs[1].duration_ticks == pytest.approx(1000, abs=60)
        assert sigs[2].duration_ticks == pytest.approx(4000, abs=80)

    def test_empty_trace_raises(self):
        prof = SideChannelProfiler(nominal_readout=92)
        with pytest.raises(ProfilingError):
            prof.profile(np.full(1000, 92), dt=5e-9)

    def test_library_averages_traces(self):
        prof = SideChannelProfiler(nominal_readout=92)
        rng = np.random.default_rng(1)
        traces = [
            self._synthetic_trace() + rng.integers(-1, 2,
                                                   size=6400)
            for _ in range(3)
        ]
        library = prof.build_library(traces, dt=5e-9)
        assert len(library) == 3
        assert library[1].kind_guess == "conv"

    def test_disagreeing_traces_rejected(self):
        prof = SideChannelProfiler(nominal_readout=92)
        with pytest.raises(ProfilingError):
            prof.build_library(
                [self._synthetic_trace(),
                 np.concatenate([np.full(300, 92), np.full(500, 85),
                                 np.full(300, 92)])],
                dt=5e-9,
            )

    def test_signature_units(self):
        prof = SideChannelProfiler(nominal_readout=92)
        sigs = prof.profile(self._synthetic_trace(), dt=5e-9)
        conv = sigs[1]
        assert conv.duration_cycles(2) == conv.duration_ticks // 2
        assert conv.start_cycle(2) == conv.start_tick // 2

    def test_summary_text(self):
        prof = SideChannelProfiler(nominal_readout=92)
        sigs = prof.profile(self._synthetic_trace(), dt=5e-9)
        text = prof.library_summary(sigs)
        assert "conv" in text and "#0" in text

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ProfilingError):
            SideChannelProfiler(nominal_readout=92,
                                conv_droop_threshold=0.0)
