"""Configuration and unit-helper tests."""

import dataclasses

import pytest

from repro.config import (
    ClockConfig,
    DSPConfig,
    PDNConfig,
    TDCConfig,
    default_config,
)
from repro.errors import ConfigError
from repro import units


class TestUnits:
    def test_constructors(self):
        assert units.ns(10) == 1e-8
        assert units.mhz(200) == 2e8
        assert units.mv(950) == pytest.approx(0.95)
        assert units.ua(46) == pytest.approx(4.6e-5)

    def test_period_frequency_inverse(self):
        assert units.period_of(units.mhz(200)) == pytest.approx(units.ns(5))
        with pytest.raises(ValueError):
            units.period_of(0.0)


class TestConfigs:
    def test_default_config_validates(self):
        cfg = default_config()
        assert cfg.clock.sim_dt == pytest.approx(5e-9)
        assert cfg.clock.ticks_per_victim_cycle == 2

    def test_paper_tdc_parameters(self):
        cfg = default_config().tdc
        assert cfg.l_lut == 4
        assert cfg.l_carry == 128
        assert abs(cfg.calibration_target - 90) <= 3

    def test_strike_duration_is_10ns(self):
        cfg = default_config().clock
        assert 1.0 / cfg.victim_frequency_hz == pytest.approx(10e-9)

    def test_non_divisible_clock_rejected(self):
        with pytest.raises(ConfigError):
            ClockConfig(victim_frequency_hz=66.6e6).validate()

    def test_overdamped_pdn_rejected(self):
        with pytest.raises(ConfigError):
            PDNConfig(damping_ratio=1.2).validate()

    def test_dsp_must_close_timing_at_nominal(self):
        with pytest.raises(ConfigError):
            DSPConfig(critical_path_nominal=5.5e-9).validate()

    def test_excitation_span_bounded(self):
        with pytest.raises(ConfigError):
            DSPConfig(excitation_base=0.95, excitation_span=0.2).validate()

    def test_tdc_target_in_chain(self):
        with pytest.raises(ConfigError):
            TDCConfig(calibration_target=128).validate()

    def test_nominal_voltages_must_agree(self):
        cfg = default_config()
        bad = cfg.with_overrides(pdn=dataclasses.replace(cfg.pdn,
                                                         v_nominal=0.9))
        with pytest.raises(ConfigError):
            bad.validate()

    def test_with_overrides_copies(self):
        cfg = default_config()
        other = cfg.with_overrides(seed=7)
        assert other.seed == 7 and cfg.seed != 7

    def test_describe_keys(self):
        desc = default_config().describe()
        assert "tdc_l_carry" in desc and "seed" in desc
