"""Engine hot-path micro-benchmarks.

Measures the three components the attack simulator spends its time in
(see docs/performance.md for the hot-path anatomy):

* **injection** — per-layer fault-injection throughput: every cycle of
  one layer struck at a fixed deep-droop voltage, measured as exposed
  MAC/pool decisions per second through the full
  ``predict_under_attack`` path;
* **pdn** — vectorized :meth:`PowerDistributionNetwork.simulate`
  throughput in ticks per second over a long mixed trace;
* **cell** — end-to-end latency of one campaign cell (plan + execute
  ``conv2`` at 4500 strikes over 120 images), the unit the campaign
  executor parallelizes over.

``benchmarks/test_engine_hotpath.py`` runs these against the regression
floors committed in ``BENCH_engine.json``; ``python -m repro bench``
runs them ad hoc.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from .config import SimulationConfig, default_config

__all__ = ["BENCH_VOLTAGE", "bench_campaign_modes", "bench_defense",
           "bench_engine"]

#: Strike voltage for the injection benches: deep enough droop that the
#: faulted tail is dense (the expensive regime), matching the rail the
#: full-size striker bank reaches.
BENCH_VOLTAGE = 0.93

#: Fraction of a measured throughput a regression may keep (floors are
#: measured * this when first recorded).
FLOOR_FRACTION = 0.25


def _best_of(repeats: int, fn) -> float:
    """Best-of-N wall time of ``fn()`` (min is the standard noise
    rejection for micro-benches on a shared host)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_injection(engine, images: np.ndarray,
                    repeats: int = 3) -> Dict[str, dict]:
    """Per-layer injection throughput: all cycles struck at
    :data:`BENCH_VOLTAGE`, reported as exposed decisions per second."""
    from .accel import StruckCycles

    out: Dict[str, dict] = {}
    for plan in engine.plans:
        if plan.kind not in ("conv", "dense", "pool"):
            continue
        cycles = np.arange(plan.cycles)
        strikes = [StruckCycles(plan.name, cycles,
                                np.full(plan.cycles, BENCH_VOLTAGE))]
        elapsed = _best_of(
            repeats,
            lambda s=strikes: engine.predict_under_attack(images, s),
        )
        decisions = int(plan.ops) * int(images.shape[0])
        out[plan.name] = {
            "kind": plan.kind,
            "exposed_ops": int(plan.ops),
            "images": int(images.shape[0]),
            "seconds": round(elapsed, 4),
            "ops_per_sec": round(decisions / elapsed, 1),
        }
    return out


def bench_pdn(config: SimulationConfig, ticks: int = 2_000_000,
              repeats: int = 3) -> dict:
    """Vectorized PDN throughput over a mixed idle/strike current trace."""
    from .fpga.pdn import PowerDistributionNetwork

    dt = config.clock.sim_dt
    pdn = PowerDistributionNetwork(config.pdn, dt, rng=None)
    # Bursty square-ish load: exercises both transient and settled code.
    t = np.arange(ticks)
    trace = 0.05 + 0.45 * ((t // 500) % 2).astype(np.float64)
    pdn.reset()
    elapsed = _best_of(repeats, lambda: pdn.simulate(trace))
    return {
        "ticks": int(ticks),
        "seconds": round(elapsed, 4),
        "ticks_per_sec": round(ticks / elapsed, 1),
    }


def bench_cell(attack, images: np.ndarray, labels: np.ndarray,
               layer: str = "conv2", strikes: int = 4500) -> dict:
    """End-to-end latency of one campaign cell (plan + execute)."""
    start = time.perf_counter()
    plan = attack.plan_for_layer(layer, strikes)
    outcome = attack.execute(images, labels, plan)
    elapsed = time.perf_counter() - start
    return {
        "layer": layer,
        "strikes": int(strikes),
        "images": int(images.shape[0]),
        "seconds": round(elapsed, 4),
        "accuracy_drop": round(outcome.accuracy_drop, 4),
    }


def bench_engine(images: int = 64, repeats: int = 3, seed: int = 7,
                 pdn_ticks: int = 2_000_000,
                 config: Optional[SimulationConfig] = None) -> dict:
    """Run the full engine hot-path bench; returns the payload that
    ``BENCH_engine.json`` persists (sans floors, which the regression
    test manages)."""
    from .accel import AcceleratorEngine
    from .core import DeepStrike
    from .zoo import get_pretrained

    config = config or default_config()
    victim = get_pretrained()
    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(seed))
    attack = DeepStrike(engine, rng=np.random.default_rng(seed + 1))
    eval_images = victim.dataset.test_images[:images]
    cell_images = victim.dataset.test_images[:120]
    cell_labels = victim.dataset.test_labels[:120]
    return {
        "bench": "engine-hotpath",
        "strike_voltage": BENCH_VOLTAGE,
        "injection": bench_injection(engine, eval_images, repeats=repeats),
        "pdn": bench_pdn(config, ticks=pdn_ticks, repeats=repeats),
        "cell": bench_cell(attack, cell_images, cell_labels),
    }


#: The dtype policies the campaign bench runs serially on numpy.  The
#: fast fp32 mode runs first — it pins the speedup acceptance, so it
#: gets the coolest measurement window before the heavier fxp leg has
#: saturated the host.
CAMPAIGN_MODES = ("fp32", "fxp")


def bench_campaign_modes(repeats: int = 3, seed: int = 66) -> dict:
    """Fig 5(b) *sweep-column* throughput per dtype policy.

    A sweep column is the cells sharing a struck layer, differing only
    in intensity/seed; the metric times the fig5b sweeps alone, without
    the blind baseline.

    Methodology (identical for every mode, so the ratios are honest):
    best-of-``repeats`` end-to-end ``run_campaign`` wall time of the
    fig5b sweeps, minus the same measurement of a one-cheap-cell spec
    (``pool1@40``, itself a fig5b sweep cell that costs microseconds to
    inject) — the subtraction removes the clean-baseline forward pass
    and campaign assembly overhead that any number of columns
    amortizes.  Throughput is the *remaining* 14 cells over the
    remaining time.
    """
    import dataclasses

    from .accel import AcceleratorEngine
    from .core import CampaignSpec, DeepStrike, run_campaign
    from .zoo import get_pretrained

    victim = get_pretrained()
    images = victim.dataset.test_images
    labels = victim.dataset.test_labels
    sweep_spec = dataclasses.replace(CampaignSpec.fig5b_default(),
                                     blind_counts=())
    base_spec = dataclasses.replace(sweep_spec,
                                    sweeps=(("pool1", (40,)),))
    n_measured = len(sweep_spec.cells()) - len(base_spec.cells())

    def campaign_time(config, spec):
        def once():
            engine = AcceleratorEngine(victim.quantized, config=config,
                                       rng=np.random.default_rng(seed))
            attack = DeepStrike(engine, rng=np.random.default_rng(seed + 11))
            run_campaign(attack, images, labels, spec)
        return _best_of(repeats, once)

    modes: Dict[str, dict] = {}
    for dtype in CAMPAIGN_MODES:
        config = dataclasses.replace(default_config(), dtype_policy=dtype)
        t_sweep = campaign_time(config, sweep_spec)
        t_base = campaign_time(config, base_spec)
        busy = max(t_sweep - t_base, 1e-9)
        modes[f"serial-numpy-{dtype}"] = {
            "campaign_seconds": round(t_sweep, 4),
            "overhead_seconds": round(t_base, 4),
            "column_seconds": round(busy, 4),
            "cells_per_sec": round(n_measured / busy, 3),
        }
    return {
        "spec": "fig5b_default sweeps only",
        "cells": len(sweep_spec.cells()),
        "measured_cells": n_measured,
        "repeats": repeats,
        "modes": modes,
    }


#: The (warmth, dtype policy) modes the defense bench records on numpy.
#: Warm legs time a second sweep on a study whose clamp calibration,
#: defended clean caches, and dense product grids are already built —
#: the steady-state regime a long arms-race campaign spends its time
#: in; the cold leg is the historical build-everything-per-sweep
#: serial loop, the 5x anchor's denominator.
DEFENSE_MODES = (
    ("warm", "fp32"),
    ("warm", "fxp"),
    ("cold", "fxp"),
)

#: The default arms-race grid the defense bench times: every striker
#: bank size of the ``repro defend`` default x (none, recover, TMR).
DEFENSE_BENCH_BANKS = (3000, 5500, 8000)
DEFENSE_BENCH_STRIKES = 4500


def bench_defense(images: int = 64, repeats: int = 3,
                  seed: int = 1) -> dict:
    """Arms-race sweep throughput per (warmth, dtype) mode.

    Times :meth:`~repro.defense.ArmsRaceStudy.sweep` over the default
    9-cell grid (:data:`DEFENSE_BENCH_BANKS` x none/recover/tmr at
    :data:`DEFENSE_BENCH_STRIKES` strikes).  Cold builds a fresh study
    per repeat; warm times a second sweep on an already-swept study.
    The fxp warm leg must return cell-for-cell identical results to the
    cold leg (cross-cell reuse may never change bytes), asserted here so
    a throughput number can never be bought with a correctness drift.
    """
    import dataclasses as _dc

    from .defense import ArmsRaceStudy, resolve_defense
    from .zoo import get_pretrained

    victim = get_pretrained()
    eval_images = victim.dataset.test_images[:images]
    eval_labels = victim.dataset.test_labels[:images]
    grid = [(c, DEFENSE_BENCH_STRIKES) for c in DEFENSE_BENCH_BANKS]
    defenses = [(label, resolve_defense(label))
                for label in ("none", "recover", "tmr")]
    n_cells = len(grid) * len(defenses)

    def make_study(dtype):
        config = _dc.replace(default_config(), dtype_policy=dtype)
        return ArmsRaceStudy(victim.quantized, eval_images, eval_labels,
                             config=config, seed=seed)

    modes: Dict[str, dict] = {}
    reference_cells = None
    for warmth, dtype in DEFENSE_MODES:
        key = f"{warmth}-numpy-{dtype}"
        if warmth == "cold":
            def once():
                make_study(dtype).sweep(grid, defenses)
            elapsed = _best_of(repeats, once)
        else:
            study = make_study(dtype)
            cells = study.sweep(grid, defenses)  # build every cache
            if dtype == "fxp":
                reference_cells = cells
            elapsed = _best_of(
                repeats, lambda s=study: s.sweep(grid, defenses))
        modes[key] = {
            "sweep_seconds": round(elapsed, 4),
            "cells_per_sec": round(n_cells / elapsed, 3),
        }
    if reference_cells is not None:
        # Differential guard: warm fxp results == cold fxp results.
        fresh = make_study("fxp").sweep(grid, defenses)
        if [vars(c) for c in fresh] != [vars(c) for c in reference_cells]:
            raise AssertionError(
                "warm arms-race sweep drifted from the cold reference "
                "under the fxp byte-parity policy")
    return {
        "grid": {
            "banks": list(DEFENSE_BENCH_BANKS),
            "strikes": DEFENSE_BENCH_STRIKES,
            "defenses": [label for label, _ in defenses],
            "images": int(eval_images.shape[0]),
        },
        "cells": n_cells,
        "repeats": repeats,
        "modes": modes,
    }


def derive_floors(payload: dict) -> dict:
    """Initial regression floors from a fresh measurement: throughput
    floors at :data:`FLOOR_FRACTION` of measured, latency ceiling at
    the reciprocal multiple."""
    return {
        "injection_ops_per_sec": {
            name: round(row["ops_per_sec"] * FLOOR_FRACTION, 1)
            for name, row in payload["injection"].items()
        },
        "pdn_ticks_per_sec": round(
            payload["pdn"]["ticks_per_sec"] * FLOOR_FRACTION, 1
        ),
        "cell_seconds_max": round(
            payload["cell"]["seconds"] / FLOOR_FRACTION, 4
        ),
    }
