"""Fault characterization harness tests (the Fig 6b machinery)."""

import pytest

from repro.dsp import FaultCharacterization
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def harness():
    return FaultCharacterization(seed=13)


class TestStrikeVoltage:
    def test_more_cells_deeper_droop(self, harness):
        volts = [harness.strike_voltage(n) for n in (4000, 8000, 16000, 24000)]
        assert all(a > b for a, b in zip(volts, volts[1:]))

    def test_zero_cells_idle_voltage(self, harness):
        v = harness.strike_voltage(0)
        assert v > 0.97

    def test_longer_strike_not_shallower(self, harness):
        short = harness.strike_voltage(16000, strike_ticks=2)
        long = harness.strike_voltage(16000, strike_ticks=20)
        assert long <= short + 1e-9

    def test_zero_tick_strike_rejected(self, harness):
        with pytest.raises(SimulationError):
            harness.strike_voltage(1000, strike_ticks=0)


class TestVectorizedRates:
    def test_small_bank_harmless(self, harness):
        rates = harness.run(2000, trials=2000)
        assert rates.total_rate < 0.01

    def test_large_bank_saturates(self, harness):
        rates = harness.run(24000, trials=2000)
        assert rates.total_rate > 0.9

    def test_rates_are_rates(self, harness):
        rates = harness.run(12000, trials=1000)
        assert 0.0 <= rates.duplication_rate <= 1.0
        assert 0.0 <= rates.random_rate <= 1.0
        assert rates.total_rate == pytest.approx(
            rates.duplication_rate + rates.random_rate
        )

    def test_sweep_sorted_and_complete(self, harness):
        sweep = harness.sweep([16000, 8000], trials=500)
        assert [r.n_cells for r in sweep] == [8000, 16000]

    def test_zero_trials_rejected(self, harness):
        with pytest.raises(SimulationError):
            harness.run(1000, trials=0)


class TestCosimCrossValidation:
    def test_cosim_matches_vectorized_at_extremes(self):
        harness = FaultCharacterization(seed=99)
        quiet = harness.run_cosim(2000, trials=60)
        assert quiet.total_rate < 0.1
        loud = harness.run_cosim(24000, trials=60)
        assert loud.total_rate > 0.8

    def test_cosim_mid_range_within_band(self):
        harness = FaultCharacterization(seed=7)
        vec = harness.run(16000, trials=4000)
        cosim = harness.run_cosim(16000, trials=120)
        assert cosim.total_rate == pytest.approx(vec.total_rate, abs=0.2)

    @pytest.mark.parametrize("n_cells, duplication, random", [
        (8000, 0.02, 0.0),
        (16000, 29 / 150, 0.3),
        (24000, 0.24, 0.76),
    ])
    def test_cosim_rates_pinned(self, n_cells, duplication, random):
        """Recorded from the run that rebuilt the struck-op set on every
        tick; keeping the set as ops are issued moves no rate."""
        rates = FaultCharacterization(seed=3).run_cosim(n_cells, trials=150)
        assert rates.trials == 150
        assert (rates.duplication_rate, rates.random_rate) == (
            duplication, random)
