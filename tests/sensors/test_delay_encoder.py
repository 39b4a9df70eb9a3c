"""Delay model and encoder tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DelayModelConfig
from repro.errors import ConfigError
from repro.sensors import GateDelayModel, ones_count, thermometer_vector
from repro.sensors.encoder import (
    hamming_weight,
    zone_bits,
    zone_bits_from_readout,
    zone_sample_indices,
)


class TestGateDelayModel:
    def test_unity_at_nominal(self, delay_model):
        assert delay_model.factor(1.0) == pytest.approx(1.0)

    def test_slower_below_nominal(self, delay_model):
        assert delay_model.factor(0.9) > 1.05

    def test_monotone_decreasing_in_voltage(self, delay_model):
        volts = np.linspace(0.6, 1.1, 50)
        factors = delay_model.factor(volts)
        assert np.all(np.diff(factors) < 0)

    def test_saturates_near_threshold(self, delay_model):
        assert delay_model.factor(0.30) <= GateDelayModel.MAX_FACTOR_CAP

    def test_inverse_round_trip(self, delay_model):
        for factor in (1.05, 1.2, 1.5):
            v = delay_model.voltage_for_factor(factor)
            assert delay_model.factor(v) == pytest.approx(factor, rel=1e-6)

    def test_absolute_delay_scales(self, delay_model):
        assert delay_model.delay(2e-9, 0.9) == pytest.approx(
            2e-9 * delay_model.factor(0.9)
        )

    def test_nonpositive_delay_rejected(self, delay_model):
        with pytest.raises(ConfigError):
            delay_model.delay(0.0, 1.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            GateDelayModel(DelayModelConfig(v_threshold=1.2))

    @pytest.mark.parametrize("alpha", [1.3, 2.5])
    def test_float_path_equals_0d_path_bit_for_bit(self, alpha):
        """The co-simulation's float branch against the numpy 0-d form
        it replaced, on a dense grid across the MIN_HEADROOM knee and,
        at alpha 2.5, the MAX_FACTOR_CAP clamp."""
        model = GateDelayModel(DelayModelConfig(alpha=alpha))
        knee = model.config.v_threshold + GateDelayModel.MIN_HEADROOM
        cap = model.voltage_for_factor(GateDelayModel.MAX_FACTOR_CAP)
        edges = np.array([knee, cap])
        grid = np.concatenate([
            np.linspace(0.3, 1.2, 20_001),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
        ])
        fast = np.array([model.factor(float(v)) for v in grid])
        ref = np.array([model.factor(np.asarray(v)) for v in grid])
        assert type(model.factor(0.95)) is float
        np.testing.assert_array_equal(fast.view(np.int64), ref.view(np.int64))
        clamped = ref == ref.max()
        assert clamped.any() and not clamped.all()
        if alpha > 2:
            assert ref.max() == GateDelayModel.MAX_FACTOR_CAP
            assert (ref[grid < knee] == GateDelayModel.MAX_FACTOR_CAP).all()


class TestEncoder:
    def test_thermometer_shape_and_count(self):
        vec = thermometer_vector(90, 128)
        assert vec.shape == (128,)
        assert ones_count(vec) == 90
        assert vec[89] == 1 and vec[90] == 0

    def test_thermometer_bounds(self):
        assert ones_count(thermometer_vector(0, 16)) == 0
        assert ones_count(thermometer_vector(16, 16)) == 16
        with pytest.raises(ConfigError):
            thermometer_vector(17, 16)

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=1),
                         min_size=1, max_size=256))
    def test_ones_count_is_hamming_weight(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        assert ones_count(arr) == int(arr.sum())
        assert hamming_weight(arr) == ones_count(arr)

    def test_zone_indices_partition(self):
        taps = zone_sample_indices(128, 5)
        assert len(taps) == 5
        assert taps == sorted(taps)
        assert all(0 <= t < 128 for t in taps)

    def test_zone_bits_match_tap_reads(self):
        vec = thermometer_vector(92, 128)
        word = zone_bits(vec)
        taps = zone_sample_indices(128, 5)
        np.testing.assert_array_equal(word, vec[taps])

    def test_calibrated_idle_word_weight_is_four(self):
        word = zone_bits_from_readout(92)
        assert int(word.sum()) == 4

    def test_droop_drops_weight_to_three(self):
        word = zone_bits_from_readout(88)
        assert int(word.sum()) == 3

    def test_vectorized_words(self):
        words = zone_bits_from_readout(np.array([92, 88, 40, 128, 0]))
        assert words.shape == (5, 5)
        assert list(words.sum(axis=1)) == [4, 3, 2, 5, 0]

    @settings(max_examples=40, deadline=None)
    @given(readout=st.integers(min_value=0, max_value=128))
    def test_word_from_readout_consistent_with_vector(self, readout):
        vec = thermometer_vector(readout, 128)
        np.testing.assert_array_equal(
            zone_bits(vec), zone_bits_from_readout(readout)
        )

    def test_too_many_zones_rejected(self):
        with pytest.raises(ConfigError):
            zone_sample_indices(8, 16)
