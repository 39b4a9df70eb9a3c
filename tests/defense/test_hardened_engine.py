"""Tests of the detect-and-recover hardened engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accel import AcceleratorEngine
from repro.accel.engine import StruckCycles
from repro.config import RecoveryConfig, default_config
from repro.core import DeepStrike
from repro.defense import HardenedAcceleratorEngine, resolve_defense
from repro.errors import ConfigError, RecoveryExhaustedError
from repro.nn.model import PROBE_INPUT_SHAPE

#: Rail voltage in the mid-intensity regime (faults common, replay at
#: half clock comes out clean) and in the overwhelming regime (even a
#: full-rate replay faults on every exposed op).
MID_DROOP_V = 0.935
DEEP_DROOP_V = 0.90


def _images(n=8, seed=5):
    return np.random.default_rng(seed).random((n,) + PROBE_INPUT_SHAPE)


def _strikes(layer="conv3x3", n_cycles=6, voltage=MID_DROOP_V):
    cycles = np.arange(n_cycles)
    return [StruckCycles(layer, cycles, np.full(n_cycles, voltage))]


def _engine(probe_quantized, recovery=None, seed=1, calibrate=None):
    config = default_config()
    if recovery is not None:
        config = replace(config, recovery=recovery)
    engine = HardenedAcceleratorEngine(probe_quantized, config,
                                       np.random.default_rng(seed),
                                       PROBE_INPUT_SHAPE)
    if calibrate is not None:
        engine.calibrate(calibrate)
    return engine


class TestCleanPath:
    def test_clean_outputs_bit_identical_to_undefended(self,
                                                       probe_quantized):
        images = _images()
        base = AcceleratorEngine(probe_quantized, default_config(),
                                 np.random.default_rng(1),
                                 PROBE_INPUT_SHAPE)
        hard = _engine(probe_quantized, calibrate=images)
        assert np.array_equal(base.infer_under_attack(images, []),
                              hard.infer_under_attack(images, []))

    def test_clean_traffic_costs_nothing(self, probe_quantized):
        images = _images()
        hard = _engine(probe_quantized, calibrate=images)
        hard.infer_under_attack(images, [])
        assert hard.stats.overhead_fraction == 0.0
        assert hard.stats.razor_flags == 0
        assert hard.stats.replays == 0
        assert hard.stats.clamped_values == 0

    def test_clamp_enabled_requires_calibration(self, probe_quantized):
        hard = _engine(probe_quantized)
        with pytest.raises(ConfigError):
            hard.infer_under_attack(_images(), [])


class TestRecovery:
    def test_mid_intensity_strike_fully_recovered(self, probe_quantized):
        images = _images()
        base = AcceleratorEngine(probe_quantized, default_config(),
                                 np.random.default_rng(1),
                                 PROBE_INPUT_SHAPE)
        hard = _engine(probe_quantized, calibrate=images)
        clean = base.infer_under_attack(images, [])
        struck_base = base.infer_under_attack(images, _strikes())
        struck_hard = hard.infer_under_attack(images, _strikes())
        # The attack damages the undefended engine...
        assert not np.array_equal(struck_base, clean)
        # ...and the hardened engine replays its way back to clean.
        assert np.array_equal(struck_hard, clean)
        assert hard.stats.razor_flags > 0
        assert hard.stats.replays > 0
        assert hard.stats.exhausted == 0
        assert hard.stats.overhead_fraction > 0.0

    def test_only_flagged_images_replay(self, probe_quantized):
        """Razor flags are per image; the replay set is the flagged set,
        bounded by the batch."""
        images = _images(n=16)
        hard = _engine(probe_quantized, calibrate=images)
        hard.infer_under_attack(images, _strikes(n_cycles=2))
        assert hard.stats.replays <= 16
        assert hard.stats.replays >= hard.stats.razor_flags - 16

    def test_exhaustion_raises_with_layer_and_attempts(self,
                                                       probe_quantized):
        # A full-rate "replay" (divisor 1) at deep droop faults again
        # every attempt, so the budget must run out.
        recovery = RecoveryConfig(replay_clock_divisor=1,
                                  max_replays_per_layer=2)
        images = _images(n=4)
        hard = _engine(probe_quantized, recovery, seed=3,
                       calibrate=images)
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            hard.infer_under_attack(
                images, _strikes(n_cycles=8, voltage=DEEP_DROOP_V))
        assert excinfo.value.layer == "conv3x3"
        assert excinfo.value.attempts == 2

    def test_accept_policy_survives_exhaustion(self, probe_quantized):
        recovery = RecoveryConfig(replay_clock_divisor=1,
                                  max_replays_per_layer=2,
                                  exhaustion_policy="accept")
        images = _images(n=4)
        hard = _engine(probe_quantized, recovery, seed=3,
                       calibrate=images)
        out = hard.infer_under_attack(
            images, _strikes(n_cycles=8, voltage=DEEP_DROOP_V))
        assert out.shape[0] == 4
        assert hard.stats.exhausted > 0

    def test_razor_disabled_matches_undefended_outcomes(self,
                                                        probe_quantized):
        """With detection and containment off, the hardened engine is
        the undefended engine: same RNG stream, same faulted outputs."""
        recovery = RecoveryConfig(razor_enabled=False,
                                  clamp_activations=False)
        images = _images()
        base = AcceleratorEngine(probe_quantized, default_config(),
                                 np.random.default_rng(9),
                                 PROBE_INPUT_SHAPE)
        hard = _engine(probe_quantized, recovery, seed=9)
        assert np.array_equal(base.infer_under_attack(images, _strikes()),
                              hard.infer_under_attack(images, _strikes()))
        assert hard.stats.razor_flags == 0
        assert hard.stats.replays == 0


class TestDeterminism:
    def test_same_seed_same_outputs_and_stats(self, probe_quantized):
        images = _images()

        def run():
            hard = _engine(probe_quantized, seed=42, calibrate=images)
            out = hard.infer_under_attack(images, _strikes())
            return out, hard.stats.as_dict()

        out_a, stats_a = run()
        out_b, stats_b = run()
        assert np.array_equal(out_a, out_b)
        assert stats_a == stats_b


class TestDeepStrikeExecute:
    def test_execute_equals_accuracy_under_attack(self, victim, config):
        """``DeepStrike.execute`` hands the hardened engine the clean
        stage codes, which it accepts and does not read: the attacked
        accuracy and the recovery stats are those of a direct
        ``accuracy_under_attack`` on a fresh engine of the same seed."""
        images = victim.dataset.test_images[:16]
        labels = victim.dataset.test_labels[:16]
        cfg = replace(config, recovery=resolve_defense("recover"))

        def recover_engine():
            hard = HardenedAcceleratorEngine(victim.quantized, cfg,
                                             np.random.default_rng(4))
            hard.calibrate(images)
            return hard

        planner = DeepStrike(recover_engine(), bank_cells=8000,
                             rng=np.random.default_rng(1))
        plan = planner.plan_for_layer("conv2", 4500)
        attacked = recover_engine()
        outcome = DeepStrike(attacked, bank_cells=8000).execute(
            images, labels, plan)
        direct = recover_engine()
        accuracy = direct.accuracy_under_attack(images, labels,
                                                plan.struck)
        assert outcome.attacked_accuracy == accuracy
        assert attacked.stats.as_dict() == direct.stats.as_dict()
        # Vacuity guard: the razor caught the strikes.
        assert attacked.stats.razor_flags > 0


class TestDroopAlarms:
    def test_layers_at_ticks_maps_schedule(self, probe_quantized):
        hard = _engine(probe_quantized,
                       RecoveryConfig(clamp_activations=False))
        tpc = hard.config.clock.ticks_per_victim_cycle
        window = hard.schedule.window("conv1x1")
        ticks = [(window.start_cycle + 1) * tpc,
                 (window.start_cycle + 2) * tpc,  # same layer: no dup
                 hard.schedule.total_cycles * tpc + 99]  # past the end
        assert hard.layers_at_ticks(ticks) == ["conv1x1"]

    def test_stall_ticks_map_to_no_layer(self, probe_quantized):
        hard = _engine(probe_quantized,
                       RecoveryConfig(clamp_activations=False))
        assert hard.layers_at_ticks([0]) == []  # initial load stall

    def test_alarm_on_unstruck_layer_costs_but_preserves_output(
            self, probe_quantized):
        images = _images()
        quiet = _engine(probe_quantized, seed=11, calibrate=images)
        alarmed = _engine(probe_quantized, seed=11, calibrate=images)
        out_quiet = quiet.infer_under_attack(images, [])
        out_alarmed = alarmed.infer_under_attack(
            images, [], alarmed_layers=["conv1x1"])
        assert np.array_equal(out_quiet, out_alarmed)
        assert alarmed.stats.forced_replays == images.shape[0]
        assert alarmed.stats.overhead_fraction > 0.0
        assert quiet.stats.overhead_fraction == 0.0

    def test_alarm_on_struck_layer_forces_full_replay(self,
                                                      probe_quantized):
        images = _images(n=4)
        hard = _engine(probe_quantized, seed=12, calibrate=images)
        hard.infer_under_attack(images, _strikes(n_cycles=1),
                                alarmed_layers=["conv3x3"])
        # Every image replays, flagged or not.
        assert hard.stats.replays >= images.shape[0]

    def test_unknown_alarmed_layer_rejected(self, probe_quantized):
        hard = _engine(probe_quantized, calibrate=_images())
        with pytest.raises(ConfigError):
            hard.infer_under_attack(_images(), [],
                                    alarmed_layers=["fc99"])


class TestTMR:
    def test_tmr_votes_final_fc_back_to_clean(self, victim, config):
        """At shallow droop the same element rarely corrupts in two of
        three runs, so the median vote restores most of what the
        undefended engine gets wrong.  (Deep droop corrupts every vote —
        TMR is a backstop, not the primary defense.)

        Fault decisions are stochastic, so a single seed is a coin
        flip; aggregating mispredictions over many independent seeds
        gives the halving assertion below roughly a 4-sigma margin.
        """
        images = victim.dataset.test_images[:64]
        recovery = RecoveryConfig(tmr_final_fc=True,
                                  razor_enabled=False,
                                  clamp_activations=False)
        cfg = replace(config, recovery=recovery)
        cycles = np.arange(2)
        strikes = [StruckCycles("fc2", cycles,
                                np.full(cycles.shape, 0.949),
                                force_class="random")]
        undefended_errors = voted_errors = 0
        for seed in range(20):
            hard = HardenedAcceleratorEngine(victim.quantized, cfg,
                                             np.random.default_rng(seed))
            base = AcceleratorEngine(victim.quantized, config,
                                     np.random.default_rng(seed))
            clean = hard.predict_clean(images)
            voted = hard.predict_under_attack(images, strikes)
            undefended = base.predict_under_attack(images, strikes)
            undefended_errors += int((undefended != clean).sum())
            voted_errors += int((voted != clean).sum())
            assert hard.stats.tmr_votes == images.shape[0]
            assert hard.stats.tmr_cycles > 0
            assert hard.stats.overhead_fraction > 0.0
        # The attack must actually bite, and the vote must repair at
        # least half of the corrupted predictions.
        assert undefended_errors > 0
        assert voted_errors * 2 < undefended_errors
