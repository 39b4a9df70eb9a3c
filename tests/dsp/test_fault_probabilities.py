"""Quadrature fault probabilities versus the sampling paths.

The injection hot path never samples per-op physics: it draws uniforms
against :meth:`TimingFaultModel.fault_probabilities`, the
noise-marginalized ``(P(fault), P(dup | fault))``.  These tests pin that
shortcut to the analytic single-voltage formulas and to Monte Carlo over
the direct per-op sampler, :meth:`TimingFaultModel.decide_array`.
"""

import numpy as np
import pytest

from repro.dsp import FaultType, TimingFaultModel


@pytest.fixture()
def model(config, delay_model):
    return TimingFaultModel(config.dsp, delay_model,
                            np.random.default_rng(3))


class TestFaultProbabilities:
    def test_noise_free_matches_analytic(self, model):
        v = np.linspace(0.92, 0.955, 8)
        p_fault, p_dup = model.fault_probabilities(v, noise_sigma=0.0)
        np.testing.assert_allclose(p_fault, model.fault_probability(v),
                                   atol=1e-12)
        np.testing.assert_allclose(p_dup, model.duplication_fraction(v),
                                   atol=2e-3)

    def test_matches_decide_array_monte_carlo(self, model, config):
        sigma = config.pdn.noise_sigma_v
        v, n = 0.94, 400_000
        noisy = v + model.rng.normal(0.0, sigma, n)
        types = model.decide_array(noisy)
        faulted = types != FaultType.NONE
        p_fault, p_dup = model.fault_probabilities(np.array([v]),
                                                   noise_sigma=sigma)
        assert faulted.mean() == pytest.approx(p_fault[0], abs=3e-3)
        assert (types[faulted] == FaultType.DUPLICATION).mean() \
            == pytest.approx(p_dup[0], abs=6e-3)

    def test_repeated_voltages_share_one_quadrature(self, model):
        v = np.array([0.94, 0.95, 0.94])
        p_fault, p_dup = model.fault_probabilities(v, noise_sigma=0.0012)
        assert p_fault[0] == p_fault[2]
        assert p_dup[0] == p_dup[2]
        assert p_fault[1] < p_fault[0]  # shallower droop, fewer faults

    def test_empty_input(self, model):
        p_fault, p_dup = model.fault_probabilities(np.empty(0),
                                                   noise_sigma=0.001)
        assert p_fault.shape == (0,) and p_dup.shape == (0,)
