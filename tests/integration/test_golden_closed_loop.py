"""Golden bytes of the closed loop: board co-simulation and profiler.

The closed loop runs tick by tick: victim draw, PDN step, TDC readout,
start detector, signal RAM, striker Start.  The profiler segments TDC
traces of clean inferences into the layer library the black-box attack
plans from.  Neither has a second implementation to be compared
against, so these digests were recorded once.  They pin every rail
voltage, every readout and the trigger tick of five closed-loop runs,
and the ``repr`` of six profiled libraries.  A change that moves one
bit of the tick arithmetic, reorders one RNG draw, or shifts one
segment boundary fails here.

Each run follows perfbench's ``blackbox`` session: reset and settle the
board, load a scheme planned against the known schedule, then
co-simulate.  The first three runs cover the full LeNet-5 schedule plus
400 idle cycles (76,544 ticks).
"""

import hashlib

import numpy as np
import pytest

from repro.accel import AcceleratorEngine
from repro.accel.activity import STALL_CURRENT
from repro.chaos import ChaosInjector, chaos_preset
from repro.config import default_config
from repro.core import DeepStrike
from repro.fpga import BackgroundTenant
from repro.sensors import GateDelayModel, TDCSensor
from repro.sensors.calibration import theta_for_target
from repro.testbed import build_attack_testbed

#: Whole-schedule run length: (total cycles + 400 idle) * ticks/cycle.
FULL = None

#: name -> (seed, bank cells, target layer, strikes, ticks, extra).
CASES = {
    "conv2-full": (0, 5500, "conv2", 4500, FULL, None),
    "conv1-early-trigger": (1, 8000, "conv1", 1800, FULL, None),
    "fc1-full": (7, 3000, "fc1", 3000, FULL, None),
    "chaos-hostile": (2, 5500, "conv2", 3000, 30_000, "chaos"),
    "background-tenant": (3, 5500, "conv1", 2000, 30_000, "background"),
}

#: name -> (trigger tick, blake2s of voltages then readouts).
LOOP_DIGESTS = {
    "conv2-full": (802,
        "9c80b021950ac1eafa13f2278d413285c4b2f8a1b457b471570e088304d48819"),
    "conv1-early-trigger": (334,
        "cdfd280c9fd61a717b792d604f97602e9c1f41b50f40143c12c2d0f8250be444"),
    "fc1-full": (802,
        "2632bcab3270856178312c641b14083ed7a8b68b052050f1a1b2d4bd56b15958"),
    "chaos-hostile": (650,
        "9862bc61793060d6de2821688583f79082f5a557275200f07329cb2d7bd13d18"),
    "background-tenant": (802,
        "202b9625b31d727e58014505e189125d9c8e4f975c36f5c30676541f7f08e976"),
}

#: unit seed -> blake2s of ``repr(library)`` (perfbench's profile).
LIBRARY_DIGESTS = {
    0: "748e39ec6671de69efed83c089fbacaf90f122ea94e0b3e977a243768e762241",
    1: "7133cd3bb11d051a1dd81886109ffb2c47900f53f668b5b996957b9790e6be98",
    2: "59bd61206685a2bb87a44dda894060d74039bc1c77bbd461fb53f0ab89c0ea5a",
    3: "a7583920dc30d3cda1d57ecac80309cab5e1982c65d88370d47dd3f3d3301f1e",
    4: "3aca004a5842fceb494af9cb82157467e003d8a5243cec63250d23823be5526f",
    5: "958455f13f56101c9236b0f9f636c9911c338e3869f104fec9907c1ca08516ab",
}


def digest(data: bytes) -> str:
    return hashlib.blake2s(data).hexdigest()


def run_case(victim, name):
    seed, bank, layer, strikes, ticks, extra = CASES[name]
    testbed = build_attack_testbed(victim.quantized, bank_cells=bank,
                                   seed=seed)
    if extra == "background":
        testbed.board.admit(BackgroundTenant(rng=np.random.default_rng(0)))
    plan = DeepStrike(testbed.engine, bank_cells=bank).plan_for_layer(
        layer, strikes)
    testbed.board.reset()
    testbed.board.settle(STALL_CURRENT)
    testbed.scheduler.load_scheme(plan.scheme)
    if ticks is FULL:
        ticks = (testbed.engine.schedule.total_cycles + 400) \
            * testbed.board.config.clock.ticks_per_victim_cycle
    if extra == "chaos":
        injector = ChaosInjector(chaos_preset("hostile", seed=1))
        with injector.applied(scheduler=testbed.scheduler):
            volts = testbed.run(ticks)
        # The run must exercise the detector's chaos hook, not only the
        # readout filter.
        assert injector.stats["dropped_triggers"] == 1
    else:
        volts = testbed.run(ticks)
    readouts = testbed.scheduler.readout_trace()
    assert volts.shape == readouts.shape == (ticks,)
    data = (np.ascontiguousarray(volts, dtype=np.float64).tobytes()
            + np.ascontiguousarray(readouts, dtype=np.int64).tobytes())
    return testbed.scheduler.trigger_tick, digest(data)


def profiled_library(victim, seed):
    config = default_config().with_overrides(seed=seed)
    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(seed))
    attack = DeepStrike(engine, rng=np.random.default_rng(seed + 1))
    delay_model = GateDelayModel(config.delay)
    theta = theta_for_target(config.tdc, delay_model, voltage=0.9867)
    sensor = TDCSensor(config.tdc, delay_model, theta,
                       rng=np.random.default_rng(seed + 2))
    return attack.profile_victim(sensor, nominal_readout=92, n_traces=3)


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_loop_matches_recorded_digest(victim, name):
    assert run_case(victim, name) == LOOP_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(LIBRARY_DIGESTS))
def test_profiled_library_matches_recorded_digest(victim, seed):
    library = profiled_library(victim, seed)
    assert len(library) == 5
    assert digest(repr(library).encode()) == LIBRARY_DIGESTS[seed]
