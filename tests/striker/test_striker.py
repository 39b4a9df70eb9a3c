"""Power striker cell/bank tests."""

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import ConfigError
from repro.fpga import DesignRuleChecker
from repro.sensors import GateDelayModel
from repro.striker import (
    StrikerBank,
    StrikerCell,
    build_ro_cell_netlist,
    build_striker_cell_netlist,
    effective_bank_current,
)


@pytest.fixture(scope="module")
def cell():
    cfg = default_config()
    return StrikerCell(cfg.striker, GateDelayModel(cfg.delay))


class TestCellNetlist:
    def test_structure(self):
        nl = build_striker_cell_netlist()
        assert nl.lut_count() == 2  # the LUT6_2 + the Start driver
        assert nl.latch_count() == 2

    def test_passes_vendor_drc_fails_strict(self):
        nl = build_striker_cell_netlist()
        assert DesignRuleChecker().check(nl).passed
        assert not DesignRuleChecker(strict_latch_scan=True).check(nl).passed

    def test_two_loops_through_latches(self):
        nl = build_striker_cell_netlist()
        loops = nl.combinational_cycles(transparent_latches=True)
        assert len(loops) >= 2

    def test_bank_shares_one_start_net(self):
        nl = build_striker_cell_netlist(0)
        build_striker_cell_netlist(1, netlist=nl)
        start = nl.get_net("start")
        assert len(start.sinks) == 4  # 2 latches x 2 cells

    def test_ro_cell_is_banned(self):
        assert not DesignRuleChecker().check(build_ro_cell_netlist()).passed


class TestCellModel:
    def test_oscillates_near_design_frequency(self, cell):
        f = cell.oscillation_frequency(1.0)
        assert f == pytest.approx(250e6, rel=1e-6)

    def test_droop_slows_oscillation(self, cell):
        assert cell.oscillation_frequency(0.9) < cell.oscillation_frequency(1.0)

    def test_current_at_nominal(self, cell):
        assert cell.current(1.0) == pytest.approx(
            default_config().striker.current_per_cell
        )

    def test_current_self_limits_under_droop(self, cell):
        assert cell.current(0.85) < cell.current(1.0)

    def test_disabled_cell_draws_nothing(self, cell):
        assert cell.current(1.0, enabled=False) == 0.0

    def test_vectorized_current(self, cell):
        volts = np.linspace(0.85, 1.0, 10)
        currents = cell.current(volts)
        assert currents.shape == (10,)
        assert np.all(np.diff(currents) > 0)

    def test_float_current_equals_0d_form(self, cell):
        """The per-tick float branch against the 0-d form it replaced."""
        grid = np.linspace(0.3, 1.2, 5001)
        fast = np.array([cell.current(float(v)) for v in grid])
        ref = np.array([cell.current(np.asarray(v)) for v in grid])
        assert type(cell.current(0.95)) is float
        np.testing.assert_array_equal(fast.view(np.int64), ref.view(np.int64))


class TestBank:
    def test_budget_scales_with_cells(self):
        cfg = default_config()
        bank = StrikerBank(1000, cfg)
        assert bank.budget.luts == 1001
        assert bank.budget.latches == 2000

    def test_structural_truncation_keeps_full_budget(self):
        cfg = default_config()
        bank = StrikerBank(10_000, cfg, structural_cells=64)
        assert bank.budget.luts == 10_001
        assert bank.netlist.lut_count() == 64 + 1

    def test_draws_only_when_started(self):
        cfg = default_config()
        bank = StrikerBank(1000, cfg)
        assert bank.current_draw(0) == 0.0
        bank.set_start(True)
        assert bank.current_draw(1) > 0.03

    def test_voltage_feedback_reduces_draw(self):
        cfg = default_config()
        bank = StrikerBank(1000, cfg)
        bank.set_start(True)
        nominal = bank.current_draw(0)
        bank.on_voltage(0, 0.85)
        assert bank.current_draw(1) < nominal

    def test_reset_clears_start(self):
        cfg = default_config()
        bank = StrikerBank(100, cfg)
        bank.set_start(True)
        bank.reset()
        assert not bank.started

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError):
            StrikerBank(0, default_config())

    def test_effective_current_below_nominal(self, cell):
        cfg = default_config()
        eff = effective_bank_current(24_000, cell, cfg.pdn)
        nominal = 24_000 * cell.current(1.0)
        assert 0.5 * nominal < eff < nominal

    def test_effective_current_monotone_in_cells(self, cell):
        cfg = default_config()
        currents = [effective_bank_current(n, cell, cfg.pdn)
                    for n in (0, 4000, 8000, 16000, 24000)]
        assert currents[0] == 0.0
        assert all(a < b for a, b in zip(currents, currents[1:]))

    def test_bank_effective_current_bounds_active(self):
        cfg = default_config()
        bank = StrikerBank(100, cfg)
        with pytest.raises(ConfigError):
            bank.effective_current(n_active=101)
