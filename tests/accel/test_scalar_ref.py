"""Cross-validation: vectorized fault injector vs live DSP48 array."""

import numpy as np
import pytest

from repro.accel import AcceleratorEngine, StruckCycles
from repro.accel.scalar_ref import run_conv_layer_scalar
from repro.dsp import TimingFaultModel
from repro.sensors import GateDelayModel


@pytest.fixture(scope="module")
def small_conv(probe_engine_module):
    """The probe model's 1x1 conv: 12,544 MACs — scalar-tractable."""
    engine = probe_engine_module
    stage = engine.model.stage("conv1x1")
    plan = engine.schedule.window("conv1x1").plan
    return engine, stage, plan


@pytest.fixture(scope="module")
def probe_engine_module():
    from repro.accel import AcceleratorEngine
    from repro.nn import build_probe_model, quantize_model
    from repro.nn.model import PROBE_INPUT_SHAPE

    return AcceleratorEngine(quantize_model(build_probe_model()),
                             rng=np.random.default_rng(500),
                             input_shape=PROBE_INPUT_SHAPE)


@pytest.fixture(scope="module")
def probe_input(small_conv):
    """Activation codes arriving at the conv1x1 stage."""
    engine, stage, plan = small_conv
    rng = np.random.default_rng(7)
    image = rng.uniform(0, 1, size=(1,) + engine.input_shape)
    codes = engine.model.quantize_input(image)
    for s in engine.model.stages:
        if s.name == "conv1x1":
            break
        codes = s.forward_codes(codes)
    return codes[0]  # single image (C, H, W)


class TestCleanEquivalence:
    def test_scalar_matches_functional_model(self, small_conv, probe_input):
        _, stage, plan = small_conv
        result = run_conv_layer_scalar(stage, probe_input, plan.lanes,
                                       voltage=lambda c: 1.0,
                                       rng=np.random.default_rng(1))
        expected = stage.forward_codes(probe_input[None, ...])[0]
        np.testing.assert_array_equal(result.acc, expected)
        assert result.faults == 0
        assert result.cycles == plan.cycles

    def test_voltage_array_form(self, small_conv, probe_input):
        _, stage, plan = small_conv
        volts = np.full(plan.cycles, 1.0)
        result = run_conv_layer_scalar(stage, probe_input, plan.lanes,
                                       voltage=volts,
                                       rng=np.random.default_rng(2))
        assert result.faults == 0


class TestFaultRateAgreement:
    def test_scalar_fault_rate_matches_model(self, small_conv, probe_input,
                                             config):
        """Scalar per-op fault occurrence must track the analytic rate
        (within the transition-eligibility discount)."""
        _, stage, plan = small_conv
        volts = 0.93
        result = run_conv_layer_scalar(stage, probe_input, plan.lanes,
                                       voltage=lambda c: volts,
                                       rng=np.random.default_rng(3))
        fm = TimingFaultModel(config.dsp, GateDelayModel(config.delay),
                              np.random.default_rng(4))
        p = fm.fault_probability(volts)
        total_ops = plan.ops
        rate = result.faults / total_ops
        # Eligibility (repeated products cannot fault) discounts the
        # analytic rate; it must stay within [0.3p, 1.05p].
        assert 0.3 * p <= rate <= 1.05 * p

    def test_corruption_extent_matches_vectorized(self, small_conv,
                                                  probe_input,
                                                  probe_engine_module):
        """Fraction of corrupted output pixels: scalar array vs the
        vectorized injector, same voltage, all cycles struck."""
        engine, stage, plan = small_conv
        volts = 0.93

        scalar = run_conv_layer_scalar(stage, probe_input, plan.lanes,
                                       voltage=lambda c: volts,
                                       rng=np.random.default_rng(5))
        clean = stage.forward_codes(probe_input[None, ...])[0]
        scalar_frac = (scalar.acc != clean).mean()

        # Vectorized: strike every cycle of conv1x1 on the same input.
        image_codes = probe_input[None, ...]
        acc = stage.forward_codes(image_codes)
        entry = StruckCycles(
            "conv1x1",
            np.arange(plan.cycles, dtype=np.int64),
            np.full(plan.cycles, volts),
        )
        faulted = engine._fault_conv(stage, plan, entry, image_codes,
                                     acc.copy())
        vec_frac = (faulted[0] != clean).mean()

        assert scalar_frac == pytest.approx(vec_frac, abs=0.10)
        assert scalar_frac > 0.01
