"""PDN model tests: stability, droop physics, streaming/vectorized parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PDNConfig, default_config
from repro.errors import SimulationError
from repro.fpga.pdn import PowerDistributionNetwork


@pytest.fixture()
def pdn(config):
    return PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt, rng=None)


class TestBasics:
    def test_idle_voltage_below_nominal(self, pdn, config):
        v = pdn.settle(0.0)
        assert 0.95 < v < config.pdn.v_nominal

    def test_settles_to_closed_form(self, pdn):
        v = pdn.settle(0.1)
        assert v == pytest.approx(pdn.steady_state_voltage(0.1), abs=1e-4)

    def test_more_current_more_droop(self, pdn):
        v_low = pdn.steady_state_voltage(0.05)
        v_high = pdn.steady_state_voltage(0.50)
        assert v_high < v_low

    def test_negative_current_rejected(self, pdn):
        with pytest.raises(SimulationError):
            pdn.step(-0.1)

    def test_under_resolved_resonance_rejected(self, config):
        cfg = PDNConfig(resonance_hz=40e6)
        with pytest.raises(SimulationError):
            PowerDistributionNetwork(cfg, dt=config.clock.sim_dt)


class TestTransients:
    def test_single_strike_dips_and_recovers(self, pdn):
        pdn.settle(0.0)
        v_idle = pdn.voltage
        trace = np.zeros(600)
        trace[100:102] = 0.8
        volts = pdn.simulate(trace)
        assert volts.min() < v_idle - 0.05
        assert volts[-1] == pytest.approx(v_idle, abs=2e-3)

    def test_prompt_response_within_strike(self, pdn):
        """One 2-tick strike must realize most of its prompt droop."""
        pdn.settle(0.0)
        v_idle = pdn.voltage
        trace = np.zeros(200)
        trace[50:52] = 0.5
        volts = pdn.simulate(trace)
        expected_prompt = pdn.config.r_prompt * 0.5
        droop = v_idle - volts.min()
        assert droop > 0.8 * expected_prompt

    def test_underdamped_step_overshoots(self, config):
        """The resonant term must ring (overshoot its settled value)."""
        pdn = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                       rng=None)
        pdn.settle(0.0)
        step = np.full(4000, 0.5)
        volts = pdn.simulate(step)
        settled = pdn.steady_state_voltage(0.5)
        assert volts.min() < settled - 1e-3  # overshoot below final value

    def test_streaming_matches_vectorized(self, config, rng):
        trace = rng.uniform(0.0, 0.4, size=300)
        a = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                     rng=None)
        b = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                     rng=None)
        stepped = np.array([a.step(i) for i in trace])
        vectorized = b.simulate(trace)
        np.testing.assert_allclose(stepped, vectorized, atol=1e-12)

    def test_noise_has_configured_scale(self, config):
        pdn = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                       rng=np.random.default_rng(0))
        pdn.settle(0.1)
        volts = pdn.simulate(np.full(4000, 0.1))
        assert volts.std() == pytest.approx(config.pdn.noise_sigma_v,
                                            rel=0.25)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(current=st.floats(min_value=0.0, max_value=1.5))
    def test_voltage_monotone_in_load(self, current):
        cfg = default_config()
        pdn = PowerDistributionNetwork(cfg.pdn, dt=cfg.clock.sim_dt, rng=None)
        lighter = pdn.steady_state_voltage(current)
        heavier = pdn.steady_state_voltage(current + 0.1)
        assert heavier < lighter

    @settings(max_examples=20, deadline=None)
    @given(
        currents=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=10, max_size=200)
    )
    def test_simulation_stays_bounded(self, currents):
        cfg = default_config()
        pdn = PowerDistributionNetwork(cfg.pdn, dt=cfg.clock.sim_dt, rng=None)
        volts = pdn.simulate(np.asarray(currents))
        assert np.all(volts > 0.5)
        assert np.all(volts <= cfg.pdn.v_nominal + 0.05)

    def test_linearity_of_droop(self, config):
        """Double the current step => double the droop (linear model)."""
        def peak_droop(amps):
            pdn = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                           rng=None)
            idle = pdn.settle(0.0)
            trace = np.zeros(400)
            trace[100:110] = amps
            return idle - pdn.simulate(trace).min()

        assert peak_droop(0.4) == pytest.approx(2 * peak_droop(0.2), rel=0.02)


class TestBatch:
    """simulate_batch: the 2-D pure map of simulate (the batched pricing
    path leans on both promises — row equality and state purity)."""

    def traces(self):
        t = np.zeros((3, 400))
        t[0, 100:110] = 0.4          # one strike burst
        t[1, :] = 0.1                # steady load
        t[2, 50:350] = 0.25          # long plateau
        return t

    def test_rows_bit_equal_to_simulate_from_same_state(self, pdn):
        pdn.settle(0.15)
        snap = pdn.state
        batch = pdn.simulate_batch(self.traces())
        for row, trace in zip(batch, self.traces()):
            pdn.state = snap
            np.testing.assert_array_equal(row, pdn.simulate(trace))

    def test_batch_leaves_state_untouched(self, pdn):
        pdn.settle(0.15)
        snap = pdn.state
        first = pdn.simulate_batch(self.traces())
        assert pdn.state == snap
        np.testing.assert_array_equal(first, pdn.simulate_batch(self.traces()))

    def test_state_snapshot_round_trip(self, pdn):
        """The state property contract the batch path builds on:
        assigning a captured snapshot restores the network bit-exactly."""
        pdn.settle(0.1)
        snap = pdn.state
        after_burst = pdn.simulate(np.full(200, 0.5))
        assert pdn.state != snap
        pdn.state = snap
        np.testing.assert_array_equal(pdn.simulate(np.full(200, 0.5)),
                                      after_burst)

    def test_noise_is_drawn_row_major_on_top_of_the_clean_rows(self, config):
        """On a noisy network the batch adds one rng.normal matrix over
        the deterministic rows — reconstructable stream, untouched state."""
        clean = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                         rng=None)
        noisy = PowerDistributionNetwork(config.pdn, dt=config.clock.sim_dt,
                                         rng=np.random.default_rng(42))
        snap = noisy.state
        got = noisy.simulate_batch(self.traces())
        assert noisy.state == snap
        want = clean.simulate_batch(self.traces())
        rng = np.random.default_rng(42)
        rng.normal(0.0, config.pdn.noise_sigma_v)  # construction draw
        want = want + rng.normal(0.0, config.pdn.noise_sigma_v,
                                 size=want.shape)
        np.testing.assert_array_equal(got, want)

    def test_one_dimensional_input_rejected(self, pdn):
        with pytest.raises(SimulationError, match="2-D"):
            pdn.simulate_batch(np.zeros(100))

    def test_negative_current_rejected(self, pdn):
        bad = self.traces()
        bad[1, 7] = -0.01
        with pytest.raises(SimulationError):
            pdn.simulate_batch(bad)

    def test_empty_batch_is_empty(self, pdn):
        assert pdn.simulate_batch(np.empty((0, 10))).shape == (0, 10)
        assert pdn.simulate_batch(np.empty((4, 0))).shape == (4, 0)
