"""DSP48 MAC (accumulate) mode tests — the FC-layer configuration."""

import numpy as np

from repro.config import default_config
from repro.dsp import DSP48Slice, TimingFaultModel
from repro.sensors import GateDelayModel


def make_slice(seed=0):
    cfg = default_config()
    fm = TimingFaultModel(cfg.dsp, GateDelayModel(cfg.delay),
                          np.random.default_rng(seed))
    return DSP48Slice(cfg.dsp, fm)


class TestMACMode:
    def test_reduce_computes_dot_product(self):
        dsp = make_slice()
        rng = np.random.default_rng(1)
        ops = [(int(a), int(b), int(d))
               for a, b, d in rng.integers(-50, 50, size=(40, 3))]
        expected = sum((a + d) * b for a, b, d in ops)
        assert dsp.mac_reduce(ops, voltage=1.0) == expected

    def test_accumulator_clears_between_outputs(self):
        dsp = make_slice()
        first = dsp.mac_reduce([(1, 2, 3)], voltage=1.0)
        second = dsp.mac_reduce([(1, 2, 3)], voltage=1.0)
        assert first == second == (1 + 3) * 2

    def test_incremental_mac_matches_reduce(self):
        a_slice = make_slice(seed=2)
        b_slice = make_slice(seed=2)
        ops = [(k, 3, 1) for k in range(12)]
        via_reduce = a_slice.mac_reduce(ops, voltage=1.0)
        b_slice.clear_accumulator()
        for a, b, d in ops:
            b_slice.mac(a, b, d, voltage=1.0)
        for _ in range(b_slice.depth):
            b_slice.mac(0, 0, 0, voltage=1.0)
        assert b_slice.accumulator == via_reduce

    def test_duplication_error_bounded_by_one_product(self):
        """The paper's absorption argument, at the slice level: in a long
        accumulation a duplication fault changes the sum by at most the
        difference of two adjacent products."""
        cfg = default_config()
        rng = np.random.default_rng(3)
        ops = [(int(a), int(b), int(d))
               for a, b, d in rng.integers(-20, 20, size=(200, 3))]
        exact = sum((a + d) * b for a, b, d in ops)
        products = [(a + d) * b for a, b, d in ops]
        max_adjacent_delta = max(
            abs(p - q) for p, q in zip(products, [0] + products[:-1])
        )
        # Shallow-violation regime: faults are (almost) all duplications.
        fm = TimingFaultModel(cfg.dsp, GateDelayModel(cfg.delay),
                              np.random.default_rng(4))
        shallow = fm.onset_voltage_any() - 0.003
        outliers = 0
        for trial in range(30):
            dsp = make_slice(seed=100 + trial)
            got = dsp.mac_reduce(ops, voltage=shallow)
            if abs(got - exact) > 4 * max_adjacent_delta:
                outliers += 1
        # Duplications bound the error; the rare residual random fault
        # (a few percent of the already-rare faults) may exceed it.
        assert outliers <= 2

    def test_deep_droop_corrupts_accumulator(self):
        dsp = make_slice(seed=5)
        floor = dsp.fault_model.certain_fault_voltage() - 0.02
        rng = np.random.default_rng(6)
        ops = [(int(a), int(b), int(d))
               for a, b, d in rng.integers(-50, 50, size=(50, 3))]
        exact = sum((a + d) * b for a, b, d in ops)
        got = dsp.mac_reduce(ops, voltage=floor)
        assert got != exact

    def test_accumulator_wraps_at_p_width(self):
        dsp = make_slice()
        big = (1 << 20, 1 << 20, 0)
        for _ in range(300):
            dsp.mac(*big, voltage=1.0)
        assert -(2 ** 47) <= dsp.accumulator < 2 ** 47
