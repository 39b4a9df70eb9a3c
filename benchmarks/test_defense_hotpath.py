"""Defense hot-path throughput: the arms-race sweep per execution mode.

Times :func:`repro.bench.bench_defense` — the default 9-cell arms-race
grid (3 striker banks x none/recover/tmr) through every (warmth, dtype)
mode — and writes ``BENCH_defense.json`` at the repo
root, a sibling of ``BENCH_campaign.json`` in the benchmark-regression
trajectory.

The headline acceptance is the tentpole's: the warm fp32 sweep must
clear ``SPEEDUP_TARGET`` x the *frozen pre-batching serial loop*
throughput (``REFERENCE_ARMS_SERIAL``, measured on the reference host
before the defended engine was vectorized).  On a host measurably
slower than the reference — the same-window cold serial leg below its
committed reference — the target scales with the measured slowdown
instead of flaking, exactly like the campaign bench.

Floors are *sticky*: the first measurement on a host writes ``floors``
at :data:`repro.bench.FLOOR_FRACTION` of measured, and later runs keep
the committed value.
"""

import json
from pathlib import Path

from repro.bench import FLOOR_FRACTION, bench_defense
from repro.core.campaign import _atomic_write_text

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_defense.json"

#: Throughput of the pre-batching per-image serial arms-race loop on
#: the reference host (cells/s over the default 9-cell grid).  Frozen:
#: this is the denominator of the tentpole's >= 5x acceptance.
REFERENCE_ARMS_SERIAL = 2.881
#: What the *cold serial fxp* leg of this bench measures on the
#: reference host with the current code — the host-speed proxy,
#: measured in the same window as the fast mode so load moves both.
REFERENCE_COLD_SERIAL = 4.27
SPEEDUP_TARGET = 5.0
#: The gather-heavy fp32 leg is bimodal on small hosts (TLB/hugepage
#: layout luck, not load); the assert allows this much below target
#: while the committed JSON records the full-speed measurement.
NOISE_ALLOWANCE = 0.85
#: The mode the speedup acceptance pins (the fp32 fast tier on a warm
#: study — the steady-state regime of a long arms-race campaign).
FAST_MODE = "warm-numpy-fp32"


def sticky_floors(payload):
    """Merge committed floors over freshly derived ones (committed win)."""
    fresh = {
        mode: round(row["cells_per_sec"] * FLOOR_FRACTION, 3)
        for mode, row in payload["modes"].items()
    }
    try:
        committed = json.loads(BENCH_PATH.read_text()).get("floors", {})
    except (OSError, ValueError):
        committed = {}
    merged = dict(fresh)
    merged.update({mode: floor for mode, floor in committed.items()
                   if mode in payload["modes"]})
    return merged


def test_defense_hotpath():
    payload = bench_defense(repeats=3)
    payload["bench"] = "defense-hotpath"
    payload["reference"] = {
        "arms_serial_cells_per_sec": REFERENCE_ARMS_SERIAL,
        "cold_serial_cells_per_sec": REFERENCE_COLD_SERIAL,
        "speedup_target": SPEEDUP_TARGET,
    }

    print(f"\ndefense hot path ({payload['cells']} cells, "
          f"{payload['grid']['images']} images/cell):")
    for mode, row in payload["modes"].items():
        print(f"  {mode}: {row['sweep_seconds']:6.3f}s  "
              f"({row['cells_per_sec']:.2f} cells/s)")

    cold = payload["modes"]["cold-numpy-fxp"]["cells_per_sec"]
    fast = payload["modes"][FAST_MODE]["cells_per_sec"]
    payload["speedup_vs_reference"] = round(fast / REFERENCE_ARMS_SERIAL, 3)

    payload["floors"] = sticky_floors(payload)
    _atomic_write_text(BENCH_PATH, json.dumps(payload, indent=2) + "\n")

    # Sticky regression floors.
    for mode, floor in payload["floors"].items():
        row = payload["modes"][mode]
        assert row["cells_per_sec"] >= floor, \
            f"{mode}: {row['cells_per_sec']:.2f} cells/s under its " \
            f"committed floor {floor:.2f}"

    # The tentpole acceptance: warm fp32 arms-race sweep >= 5x the
    # frozen pre-batching serial loop, host-scaled.
    host_scale = min(1.0, cold / REFERENCE_COLD_SERIAL)
    target = (SPEEDUP_TARGET * REFERENCE_ARMS_SERIAL
              * host_scale * NOISE_ALLOWANCE)
    assert fast >= target, \
        f"{FAST_MODE} at {fast:.2f} cells/s, need {target:.2f} " \
        f"({SPEEDUP_TARGET}x the pre-batching serial loop at " \
        f"{REFERENCE_ARMS_SERIAL} cells/s, host scale {host_scale:.2f}, " \
        f"allowance {NOISE_ALLOWANCE})"
