"""Mapper and schedule tests — the paper's layer timing facts."""

import pytest

from repro.accel import map_model, propagate_shapes
from repro.errors import ConfigError
from repro.nn.model import PROBE_INPUT_SHAPE


class TestMapper:
    def test_lenet_plan_ops(self, victim, config):
        plans = {p.name: p for p in map_model(victim.quantized, config.accel)}
        assert plans["conv1"].ops == 117_600
        assert plans["conv2"].ops == 240_000
        assert plans["fc1"].ops == 192_000
        assert plans["fc2"].ops == 1_200
        assert plans["pool1"].ops == 1_176

    def test_shapes_propagate(self, victim):
        shapes = propagate_shapes(victim.quantized)
        assert (16, 10, 10) in shapes
        assert shapes[-1] == (10,)

    def test_conv2_larger_and_longer_than_conv1(self, victim, config):
        """Paper: 'CONV2 is larger than CONV1 and takes longer to execute'."""
        plans = {p.name: p for p in map_model(victim.quantized, config.accel)}
        assert plans["conv2"].ops > plans["conv1"].ops
        assert plans["conv2"].cycles > plans["conv1"].cycles

    def test_fc1_takes_longest(self, victim, config):
        """Paper: 'FC1 takes the longest time to execute' (serial adds)."""
        plans = map_model(victim.quantized, config.accel)
        longest = max(plans, key=lambda p: p.cycles)
        assert longest.name == "fc1"

    def test_ops_at_cycle_ranges(self, victim, config):
        plans = {p.name: p for p in map_model(victim.quantized, config.accel)}
        conv2 = plans["conv2"]
        assert conv2.ops_at_cycle(0) == (0, 32)
        start, end = conv2.ops_at_cycle(conv2.cycles - 1)
        assert end == conv2.ops
        with pytest.raises(ConfigError):
            conv2.ops_at_cycle(conv2.cycles)

    def test_probe_model_maps(self, probe_quantized, config):
        plans = map_model(probe_quantized, config.accel, PROBE_INPUT_SHAPE)
        assert [p.kind for p in plans] == ["pool", "conv", "conv"]


class TestSchedule:
    def test_layers_separated_by_stalls(self, lenet_engine, config):
        windows = lenet_engine.schedule.windows()
        stall = config.accel.interlayer_stall_cycles
        assert windows[0].start_cycle == stall
        for a, b in zip(windows, windows[1:]):
            assert b.start_cycle - a.end_cycle == stall

    def test_layer_at_resolution(self, lenet_engine):
        sched = lenet_engine.schedule
        conv2 = sched.window("conv2")
        assert sched.layer_at(conv2.start_cycle).plan.name == "conv2"
        assert sched.layer_at(conv2.end_cycle) is None  # stall after

    def test_layer_at_out_of_range(self, lenet_engine):
        with pytest.raises(ConfigError):
            lenet_engine.schedule.layer_at(-1)
        with pytest.raises(ConfigError):
            lenet_engine.schedule.layer_at(lenet_engine.schedule.total_cycles)

    def test_ops_at_absolute_cycle(self, lenet_engine):
        sched = lenet_engine.schedule
        conv1 = sched.window("conv1")
        window, (start, end) = sched.ops_at(conv1.start_cycle + 3)
        assert window.plan.name == "conv1"
        assert (start, end) == (96, 128)

    def test_stall_cycle_has_no_ops(self, lenet_engine):
        window, (start, end) = lenet_engine.schedule.ops_at(0)
        assert window is None and start == end

    def test_durations(self, lenet_engine, config):
        durations = lenet_engine.schedule.durations_s(
            config.clock.victim_frequency_hz
        )
        assert durations["conv2"] == pytest.approx(75e-6)

    def test_unknown_layer_rejected(self, lenet_engine):
        with pytest.raises(ConfigError):
            lenet_engine.schedule.window("conv9")

    def test_summary_lists_layers(self, lenet_engine):
        text = lenet_engine.schedule.summary()
        for name in ("conv1", "pool1", "conv2", "fc1", "fc2"):
            assert name in text
