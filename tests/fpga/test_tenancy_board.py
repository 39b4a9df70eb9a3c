"""Hypervisor admission and board co-simulation tests."""

import numpy as np
import pytest

from repro.config import default_config
from repro.errors import ConfigError, DRCViolation, ResourceError
from repro.fpga import CloudFPGA, Hypervisor, Tenant, ZYNQ_7020
from repro.fpga.resources import ResourceBudget
from repro.sensors import build_ro_sensor_netlist
from repro.striker import StrikerBank


class ConstantLoad(Tenant):
    """Test tenant drawing a fixed current."""

    def __init__(self, name: str, amps: float):
        super().__init__(name, ResourceBudget(luts=10), None, 5, 5)
        self.amps = amps
        self.seen = []

    def current_draw(self, tick):
        return self.amps

    def on_voltage(self, tick, volts):
        self.seen.append(volts)


class TestHypervisor:
    def test_ro_tenant_rejected_at_admission(self):
        hv = Hypervisor(ZYNQ_7020)
        bad = Tenant("attacker", ResourceBudget(luts=5),
                     build_ro_sensor_netlist(), 5, 5)
        with pytest.raises(DRCViolation):
            hv.admit(bad)

    def test_striker_tenant_admitted(self):
        hv = Hypervisor(ZYNQ_7020)
        bank = StrikerBank(1000, default_config())
        report = hv.admit(bank)
        assert report.passed

    def test_resource_hog_rejected(self):
        hv = Hypervisor(ZYNQ_7020)
        hog = Tenant("hog", ResourceBudget(dsp_slices=500), None, 5, 5)
        with pytest.raises(ResourceError):
            hv.admit(hog)

    def test_duplicate_name_rejected(self):
        hv = Hypervisor(ZYNQ_7020)
        hv.admit(ConstantLoad("a", 0.0))
        with pytest.raises(ConfigError):
            hv.admit(ConstantLoad("a", 0.0))

    def test_failed_placement_releases_resources(self):
        hv = Hypervisor(ZYNQ_7020)
        big = Tenant("big", ResourceBudget(luts=10), None, 100, 100)
        hv.admit(big)
        small = Tenant("small", ResourceBudget(luts=10), None, 10, 10)
        with pytest.raises(Exception):
            hv.admit(small)  # no floorplan room left
        # Resources were rolled back, so a later tiny region succeeds
        # once we rebuild the floorplan.
        assert hv.utilization.total().luts == 10


class TestCloudFPGA:
    def test_cosimulation_voltage_reflects_load(self):
        board = CloudFPGA.pynq_z1(seed=5)
        quiet = ConstantLoad("quiet", 0.0)
        loud = ConstantLoad("loud", 0.4)
        board.admit(quiet)
        volts_quiet = board.cosimulate(200).mean()
        board.admit(loud)
        volts_loud = board.cosimulate(200).mean()
        assert volts_loud < volts_quiet - 0.03

    def test_tenants_observe_voltage(self):
        board = CloudFPGA.pynq_z1(seed=5)
        t = ConstantLoad("watcher", 0.0)
        board.admit(t)
        board.cosimulate(50)
        assert len(t.seen) == 50

    def test_trace_hook_called(self):
        board = CloudFPGA.pynq_z1(seed=5)
        board.admit(ConstantLoad("t", 0.1))
        rows = []
        board.add_trace_hook(lambda tick, load, v: rows.append((tick, load, v)))
        board.cosimulate(10)
        assert len(rows) == 10
        assert rows[0][1] == pytest.approx(0.1)

    def test_reset_restores_clock_and_pdn(self):
        board = CloudFPGA.pynq_z1(seed=5)
        board.cosimulate(100)
        board.reset()
        assert board.clock.tick == 0

    def test_vectorized_activity_path(self):
        board = CloudFPGA.pynq_z1(seed=5)
        volts = board.simulate_activity(np.full(100, 0.2))
        assert volts.shape == (100,)
        assert board.clock.tick == 100

    def test_seed_reproducibility(self):
        a = CloudFPGA.pynq_z1(seed=9)
        b = CloudFPGA.pynq_z1(seed=9)
        a.admit(ConstantLoad("t", 0.1))
        b.admit(ConstantLoad("t", 0.1))
        np.testing.assert_allclose(a.cosimulate(64), b.cosimulate(64))
