"""Campaign throughput: serial and process-parallel execution.

Times the Fig 5(b) default campaign spec and writes
``BENCH_campaign.json`` at the repo root — one entry in the
benchmark-regression trajectory.  The top-level ``serial_cells_per_sec``
is the portable headline number every host records.

Three legs:

* **serial (full spec, fxp)** — the headline throughput;
* **sweep columns per dtype policy** —
  :func:`repro.bench.bench_campaign_modes` times the fig5b sweep
  columns serially under each dtype policy with identical best-of-N,
  overhead-subtracted methodology, and the fp32 fast path must clear
  ``SPEEDUP_TARGET`` x the committed serial reference floor (scaled
  down on hosts measurably slower than the reference, so a loaded CI
  box degrades the target rather than flaking the assert);
* **parallel (>= 4 CPUs only)** — ``workers=4``, checked byte-identical
  to the serial run; its speedup is recorded, not asserted.

Floors are *sticky*: the first measurement on a host writes
``floors`` at :data:`repro.bench.FLOOR_FRACTION` of measured, and
later runs keep the committed value — a regression must clear the
floor that history recorded, not the one it just lowered.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import FLOOR_FRACTION, bench_campaign_modes
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core.campaign import _atomic_write_text, _to_json

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"
PARALLEL_WORKERS = 4

#: The committed serial full-fig5b reference throughput (cells/s) the
#: fp32 fast path is measured against.  Frozen on the reference host; the
#: sweep-column acceptance below scales it by measured host speed.
REFERENCE_SERIAL_FLOOR = 9.257
#: What the *sweep-column serial* leg measures on the reference host —
#: the host-speed proxy for the acceptance below, measured in the same
#: bench window as the fast mode so load moves both together.
REFERENCE_SWEEP_SERIAL = 10.5
SPEEDUP_TARGET = 3.0
#: The gather-heavy fp32 leg is bimodal on small hosts (~25% swing with
#: steady serial legs in the same window — TLB/hugepage layout luck, not
#: load), so the *assert* allows this much below target while the
#: committed BENCH_campaign.json records the full-speed measurement.
NOISE_ALLOWANCE = 0.85
#: The mode the speedup acceptance pins (the fp32 fast path).
FAST_MODE = "serial-numpy-fp32"


def fresh_attack(victim):
    from repro.accel import AcceleratorEngine

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(66))
    return DeepStrike(engine, rng=np.random.default_rng(77))


def timed_run(victim, spec, workers=1):
    attack = fresh_attack(victim)
    start = time.perf_counter()
    result = run_campaign(attack, victim.dataset.test_images,
                          victim.dataset.test_labels, spec,
                          workers=workers)
    elapsed = time.perf_counter() - start
    return result, elapsed


def sticky_floors(payload):
    """Merge committed floors over freshly derived ones (committed win)."""
    modes = payload["sweep_columns"]["modes"]
    fresh = {
        "serial_cells_per_sec": round(
            payload["serial_cells_per_sec"] * FLOOR_FRACTION, 3),
        "sweep_columns": {
            mode: round(row["cells_per_sec"] * FLOOR_FRACTION, 3)
            for mode, row in modes.items()
        },
    }
    try:
        committed = json.loads(BENCH_PATH.read_text()).get("floors", {})
    except (OSError, ValueError):
        committed = {}
    if "serial_cells_per_sec" in committed:
        fresh["serial_cells_per_sec"] = committed["serial_cells_per_sec"]
    fresh["sweep_columns"].update({
        mode: floor
        for mode, floor in committed.get("sweep_columns", {}).items()
        if mode in modes
    })
    return fresh


def test_campaign_throughput(victim):
    spec = CampaignSpec.fig5b_default()
    n_cells = len(spec.cells())
    host_cpus = os.cpu_count() or 1
    parallel_capable = host_cpus >= PARALLEL_WORKERS

    serial, t_serial = timed_run(victim, spec)
    serial_cps = n_cells / t_serial
    serial_json = _to_json(serial, complete=True)

    sweep = bench_campaign_modes(repeats=6)

    payload = {
        "bench": "campaign-throughput",
        "spec": "fig5b_default",
        "cells": n_cells,
        "eval_images": spec.eval_images,
        "cpu_count": host_cpus,
        "serial_cells_per_sec": round(serial_cps, 3),
        "workers": {
            "1": {"seconds": round(t_serial, 3),
                  "cells_per_sec": round(serial_cps, 3)},
        },
        "sweep_columns": sweep,
        "reference": {
            "serial_floor_cells_per_sec": REFERENCE_SERIAL_FLOOR,
            "fp32_speedup_target": SPEEDUP_TARGET,
        },
    }
    print(f"\ncampaign throughput ({n_cells} cells, "
          f"{spec.eval_images} images/cell, {host_cpus} CPUs):")
    print(f"  serial : {t_serial:6.2f}s  ({serial_cps:.2f} cells/s)")
    for mode, row in sweep["modes"].items():
        print(f"  sweep {mode}: {row['cells_per_sec']:.2f} cells/s "
              f"({row['column_seconds']:.3f}s columns)")

    speedup = None
    if parallel_capable:
        parallel, t_parallel = timed_run(victim, spec,
                                         workers=PARALLEL_WORKERS)
        assert _to_json(parallel, complete=True) == serial_json
        parallel_cps = n_cells / t_parallel
        speedup = parallel_cps / serial_cps
        payload["workers"][str(PARALLEL_WORKERS)] = {
            "seconds": round(t_parallel, 3),
            "cells_per_sec": round(parallel_cps, 3),
        }
        payload["speedup"] = round(speedup, 3)
        print(f"  workers={PARALLEL_WORKERS}: {t_parallel:6.2f}s  "
              f"({parallel_cps:.2f} cells/s)  speedup {speedup:.2f}x")

    payload["floors"] = sticky_floors(payload)
    _atomic_write_text(BENCH_PATH, json.dumps(payload, indent=2) + "\n")

    # Sticky regression floors.
    assert serial_cps >= payload["floors"]["serial_cells_per_sec"]
    for mode, floor in payload["floors"]["sweep_columns"].items():
        cps = sweep["modes"][mode]["cells_per_sec"]
        assert cps >= floor, f"{mode}: {cps:.2f} cells/s under its " \
                             f"committed floor {floor:.2f}"

    # The fast-path acceptance: fp32 sweep columns >= 3x the committed
    # serial reference.  On a host measurably slower than the
    # reference (the same-window serial sweep leg below its committed
    # reference), the target scales with the measured slowdown instead
    # of flaking.
    serial_sweep_cps = sweep["modes"]["serial-numpy-fxp"]["cells_per_sec"]
    host_scale = min(1.0, serial_sweep_cps / REFERENCE_SWEEP_SERIAL)
    target = (SPEEDUP_TARGET * REFERENCE_SERIAL_FLOOR
              * host_scale * NOISE_ALLOWANCE)
    fast = sweep["modes"][FAST_MODE]["cells_per_sec"]
    assert fast >= target, \
        f"{FAST_MODE} sweep columns at {fast:.2f} cells/s, need " \
        f"{target:.2f} ({SPEEDUP_TARGET}x reference, host " \
        f"scale {host_scale:.2f}, allowance {NOISE_ALLOWANCE})"

    if not parallel_capable:
        pytest.skip(f"only {host_cpus} CPU(s): recorded serial "
                    "throughput without the parallel comparison")
