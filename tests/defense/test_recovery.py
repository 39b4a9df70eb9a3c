"""Unit tests for the recovery building blocks (razor, clamp, stats)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import RecoveryConfig, default_config
from repro.defense import (
    ActivationClamp,
    HardenedAcceleratorEngine,
    RazorDetector,
    RecoveryStats,
    StageBounds,
)
from repro.dsp.faults import FaultType
from repro.errors import ConfigError


def _types(*entries):
    return np.asarray(entries, dtype=np.int64)


class TestRazorDetector:
    def test_no_faults_never_flags_and_skips_rng(self):
        razor = RazorDetector(RecoveryConfig(), np.random.default_rng(0))
        clean = np.full(50, FaultType.NONE)
        assert razor.observe(clean) is False
        # The clean path must not consume randomness: the next draw
        # matches a fresh generator with the same seed.
        assert razor.rng.random() == np.random.default_rng(0).random()
        assert razor.stats["dup_seen"] == 0
        assert razor.stats["random_seen"] == 0

    def test_full_coverage_always_flags(self):
        cfg = RecoveryConfig(razor_dup_coverage=1.0,
                             razor_random_coverage=1.0)
        razor = RazorDetector(cfg, np.random.default_rng(1))
        assert razor.observe(_types(FaultType.DUPLICATION)) is True
        assert razor.observe(_types(FaultType.RANDOM)) is True
        assert razor.stats["dup_flagged"] == 1
        assert razor.stats["random_flagged"] == 1

    def test_zero_coverage_never_flags(self):
        cfg = RecoveryConfig(razor_dup_coverage=0.0,
                             razor_random_coverage=0.0)
        razor = RazorDetector(cfg, np.random.default_rng(2))
        mixed = _types(FaultType.DUPLICATION, FaultType.RANDOM,
                       FaultType.NONE)
        for _ in range(20):
            assert razor.observe(mixed) is False
        assert razor.stats["dup_seen"] == 20
        assert razor.stats["dup_flagged"] == 0

    def test_class_conditional_coverage_rates(self):
        cfg = RecoveryConfig(razor_dup_coverage=0.95,
                             razor_random_coverage=0.65)
        razor = RazorDetector(cfg, np.random.default_rng(3))
        n = 4000
        razor.observe(np.full(n, FaultType.DUPLICATION))
        razor.observe(np.full(n, FaultType.RANDOM))
        assert razor.stats["dup_flagged"] / n == pytest.approx(0.95,
                                                               abs=0.02)
        assert razor.stats["random_flagged"] / n == pytest.approx(0.65,
                                                                  abs=0.03)

    def test_deterministic_under_fixed_seed(self):
        cfg = RecoveryConfig()
        stream = _types(FaultType.DUPLICATION, FaultType.NONE,
                        FaultType.RANDOM)
        a = RazorDetector(cfg, np.random.default_rng(7))
        b = RazorDetector(cfg, np.random.default_rng(7))
        flags_a = [a.observe(stream) for _ in range(30)]
        flags_b = [b.observe(stream) for _ in range(30)]
        assert flags_a == flags_b
        assert a.stats == b.stats


class TestActivationClamp:
    def test_calibrated_clamp_is_noop_on_clean(self, probe_quantized):
        rng = np.random.default_rng(5)
        images = rng.random((6, 4, 28, 28))
        clamp = ActivationClamp.calibrate(probe_quantized, images,
                                          margin=0.0)
        codes = probe_quantized.quantize_input(images)
        for stage in probe_quantized.stages:
            codes = stage.forward_codes(codes)
            if getattr(stage, "kind", "") in ("conv", "dense", "pool"):
                clipped, n_clamped = clamp.apply(stage.name, codes)
                assert n_clamped == 0
                assert np.array_equal(clipped, codes)

    @pytest.mark.parametrize("dtype", ["fxp", "fp32"])
    def test_engine_calibration_equals_the_int64_reference(self, victim,
                                                           dtype):
        """The hardened engine calibrates on the exact float64 GEMM
        forward whatever its dtype policy; the bounds are the int64
        chain's."""
        config = replace(default_config(), dtype_policy=dtype)
        engine = HardenedAcceleratorEngine(victim.quantized, config,
                                           np.random.default_rng(0))
        images = victim.dataset.test_images[:64]
        got = engine.calibrate(images)
        rc = config.recovery
        want = ActivationClamp.calibrate(
            victim.quantized, images[:rc.calibration_images],
            rc.clamp_margin)
        assert got.bounds == want.bounds
        assert got.margin == want.margin

    def test_out_of_range_garbage_clamped(self, probe_quantized):
        rng = np.random.default_rng(6)
        images = rng.random((4, 4, 28, 28))
        clamp = ActivationClamp.calibrate(probe_quantized, images)
        name = next(iter(clamp.bounds))
        lo, hi = clamp.limits(name)
        garbage = np.asarray([lo - 10_000, hi + 10_000, (lo + hi) // 2])
        clipped, n_clamped = clamp.apply(name, garbage)
        assert n_clamped == 2
        assert clipped.min() >= lo and clipped.max() <= hi

    def test_margin_widens_the_envelope(self):
        clamp_tight = ActivationClamp({"l": StageBounds(-100, 100)}, 0.0)
        clamp_wide = ActivationClamp({"l": StageBounds(-100, 100)}, 0.1)
        assert clamp_tight.limits("l") == (-100, 100)
        assert clamp_wide.limits("l") == (-120, 120)

    def test_unknown_layer_rejected(self):
        clamp = ActivationClamp({"l": StageBounds(0, 1)})
        with pytest.raises(ConfigError):
            clamp.limits("nope")

    def test_empty_bounds_and_bad_margin_rejected(self):
        with pytest.raises(ConfigError):
            ActivationClamp({})
        with pytest.raises(ConfigError):
            ActivationClamp({"l": StageBounds(0, 1)}, margin=-0.1)

    def test_empty_calibration_batch_rejected(self, probe_quantized):
        with pytest.raises(ConfigError):
            ActivationClamp.calibrate(probe_quantized,
                                      np.empty((0, 4, 28, 28)))


class TestRecoveryStats:
    def test_overhead_zero_without_work(self):
        assert RecoveryStats().overhead_fraction == 0.0
        assert RecoveryStats(base_cycles=100).overhead_fraction == 0.0

    def test_overhead_fraction(self):
        stats = RecoveryStats(base_cycles=1000, replay_cycles=300,
                              tmr_cycles=200)
        assert stats.overhead_fraction == pytest.approx(0.5)

    def test_as_dict_round_trip(self):
        stats = RecoveryStats(images=4, base_cycles=10, replays=2)
        payload = stats.as_dict()
        assert payload["images"] == 4
        assert payload["replays"] == 2
        assert "overhead_fraction" in payload
        assert "extra" not in payload


class TestRecoveryConfig:
    def test_defaults_validate(self):
        RecoveryConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"razor_dup_coverage": 1.5},
        {"razor_random_coverage": -0.1},
        {"max_replays_per_layer": -1},
        {"replay_clock_divisor": 0},
        {"clamp_margin": -0.5},
        {"calibration_images": 0},
        {"exhaustion_policy": "panic"},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RecoveryConfig(**kwargs).validate()
