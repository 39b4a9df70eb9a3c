#!/usr/bin/env python3
"""One benchmark for the DeepStrike simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig5b --seed 0 --seconds 12 --trace 0

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a fixed number of
units twice, untraced then traced, and reports the per-layer metrics,
the two passes' end-to-end figures and the tracing overhead; its spans
and a per-phase x per-layer self-time table go to
``.perfbench/traces/``.  Human-readable lines come first; the last line
of standard output is the JSON result.  See ``perfbench/README.md``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Set-ups per run; ``setup_s`` reports import time plus their median.
SETUP_REPS = 3
#: Median times of the two calibration kernels (numpy, interpreter) on the
#: reference host, a 2-vCPU Xeon VM.  Timings are scaled to that host's
#: speed; see HostSpeed.
CALIBRATION_REF_MS = (7.0, 5.4)
#: Iterations of the interpreter kernel's loop.
PY_KERNEL_LOOPS = 100_000
#: Hard stop for one measuring loop, whatever the cell floor says.
MAX_MEASURE_S = 100.0
#: A run whose units keep failing stops after this many problems.
MAX_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("fig5b", "arms-race", "blackbox",
                                 "fig5b-pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's output digests in "
                             "perfbench/reference.json instead of "
                             "checking them")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class HostSpeed:
    """Two fixed kernels, timed just before each set-up and each unit: a
    numpy one (sort and cumsum of 2^19 doubles) and an interpreter one (a
    Python loop), because the simulator's time is split between the two.

    A shared host drifts between faster and slower spells as other
    tenants come and go, by as much as 1.5x within a minute, and the two
    kinds of work drift by different amounts.  Each set-up's and unit's
    timings are multiplied by the geometric mean of reference / kernel
    time over both kernels, so they read as host time on the reference
    host and that drift stays out of the figures.  The kernels never
    touch the program, so a change to the program moves the scaled
    figures exactly as it moves the raw ones.
    """

    def __init__(self, np) -> None:
        self._np = np
        self._data = np.random.default_rng(0).standard_normal(1 << 19)
        self.samples_ms = []
        self.factor()  # first touch of the buffers: not a host sample
        self.samples_ms.clear()

    def factor(self) -> float:
        t = time.perf_counter()
        self._np.sort(self._data)
        self._np.cumsum(self._data)
        numpy_ms = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        acc = 0
        for i in range(PY_KERNEL_LOOPS):
            acc += i & 7
        python_ms = (time.perf_counter() - t) * 1e3
        self.samples_ms.append(numpy_ms + python_ms)
        ref_numpy, ref_python = CALIBRATION_REF_MS
        return (ref_numpy / numpy_ms * ref_python / python_ms) ** 0.5


def host_stamp(np, speed: HostSpeed) -> dict:
    """Host facts and the calibration kernel's median time, printed with
    every run so host drift shows next to the numbers."""
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "calib_ms": statistics.median(speed.samples_ms)}


def ensure_victim(root: Path) -> None:
    """Train and cache the victim once per checkout (the build step); a
    later set-up only loads it."""
    if any((root / ".cache").glob("lenet5_victim_*.npz")):
        return
    from repro.zoo import get_pretrained

    print("building: training the LeNet-5 victim into .cache/", flush=True)
    get_pretrained()


def run_pass(workload, ctx, tracer, speed, seconds=None, units=None):
    """Set up ``SETUP_REPS`` times, then run units until ``seconds`` (and
    the workload's cell floor) or exactly ``units`` units are done.
    Set-up times come back scaled by ``speed``; so do the units'."""
    import workloads

    setup_times = []
    tracer.install()
    try:
        for rep in range(SETUP_REPS):
            tracer.set_group(f"setup/{rep}", None)
            state = None  # each set-up starts from nothing, as a new run
            factor = speed.factor()
            t = time.perf_counter()
            state = workload.setup(ctx, tracer)
            setup_times.append((time.perf_counter() - t) * factor)
        m = workloads.Measurement()
        start = time.perf_counter()
        while len(m.problems) < MAX_PROBLEMS:
            elapsed = time.perf_counter() - start
            if units is not None:
                if m.units >= units:
                    break
            elif (elapsed >= seconds and m.cells >= workload.min_cells) \
                    or elapsed >= MAX_MEASURE_S:
                break
            useed = workloads.unit_seed(ctx.seed, m.units)
            tracer.set_group(f"{workload.name}/{useed}", None)
            mark = m.mark()
            factor = speed.factor()
            with tracer.span("bench.unit", seed=useed):
                try:
                    workload.unit(ctx, state, m.units, tracer, m)
                except Exception as exc:  # a failed unit is a failed op
                    traceback.print_exc(file=sys.stderr)
                    m.check([f"unit {useed}: {type(exc).__name__}: {exc}"])
            m.scale_since(mark, factor)
            m.units += 1
    finally:
        tracer.uninstall()
    return setup_times, m


def end_to_end(import_s, setup_times, m, floor) -> dict:
    from metrics import latency_summary

    latency = latency_summary(m.cell_ms, floor) if m.cell_ms else {
        "n": 0, "p50": 0.0, "tail": 0.0, "tail_p": 50.0}
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "cells_per_s": (statistics.median(m.unit_rates)
                        if m.unit_rates else 0.0, "cells/s"),
        "cell_p50_ms": (latency["p50"], "ms"),
        "cell_tail_ms": (latency["tail"], "ms"),
        "session_s": (statistics.median(m.unit_s) if m.unit_s else 0.0,
                      "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, latency


def describe(label, figures, latency, m, import_s) -> None:
    """Print every end-to-end metric with its unit and sample count."""
    from workloads import sim_ticks_per_s

    notes = {
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPS} "
                   "set-ups",
        "cells_per_s": f"median of {len(m.unit_rates)} units; raw "
                       f"{m.cells} cells over {m.busy_s:.3f} s",
        "cell_p50_ms": f"n={latency['n']}",
        "cell_tail_ms": f"p{latency['tail_p']:g}, n={latency['n']}",
        "session_s": f"median of {len(m.unit_s)} units",
        "peak_rss_mb": "benchmark process + largest child",
    }
    print(f"{label} (timings scaled to the reference host by a median "
          f"factor of {statistics.median(m.factors or [1.0]):.3f}):")
    for name, (value, unit) in figures.items():
        print(f"  {name:<14} {value:14.4f} {unit:<8} ({notes[name]})")
    failed = len(m.problems)
    print(f"  {'error_rate':<14} {failed / max(1, m.attempted):14.4f} "
          f"{'ratio':<8} ({failed} failed of {m.attempted} checked)")
    if m.stats.get("cosim.ticks"):
        print(f"  {'sim_ticks_per_s':<14} {sim_ticks_per_s(m):14.1f} "
              f"{'ticks/s':<8} ({m.stats['cosim.ticks']:.0f} ticks)")
    for problem in m.problems:
        print(f"  FAILED: {problem}")


def declared(root: Path, section: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in spec[section]}


def write_trace(root: Path, name: str, seed: int, tracer) -> None:
    from metrics import self_time_table
    from workloads import measured_spans

    spans = measured_spans(tracer)
    table = self_time_table(spans)
    layers = sorted({layer for row in table.values() for layer in row})
    print("self time (s) per phase x layer:")
    print("  " + f"{'phase':<24}" + "".join(f"{c:>10}" for c in layers))
    for phase in sorted(table):
        print("  " + f"{phase:<24}" + "".join(
            f"{table[phase].get(c, 0.0):10.4f}" for c in layers))
    out = root / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-s{seed}.json").write_text(json.dumps(
        {"spans": tracer.spans, "self_time_table": table}, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    src = str(root / "src")
    sys.path[:0] = [src, str(HERE)]
    # Pool workers must import the same checkout and victim cache.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["REPRO_CACHE_DIR"] = str(root / ".cache")

    import numpy as np

    import workloads
    from spans import NullTracer

    import_s = time.perf_counter() - START
    speed = HostSpeed(np)
    import_s *= speed.factor()
    host = host_stamp(np, speed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} calib_ms={host['calib_ms']:.3f}",
          flush=True)
    ensure_victim(root)

    workload = workloads.WORKLOADS[args.workload]
    references = json.loads(REFERENCE_FILE.read_text()) \
        if REFERENCE_FILE.exists() else {}
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / ".perfbench"))
    ctx = workloads.Context(args.seed, scratch, references,
                            record=args.write_reference)
    try:
        if args.trace:
            units = workloads.TRACED_UNITS[args.workload]
            plain_setup, plain = run_pass(workload, ctx, NullTracer(), speed,
                                          units=units)
            tracer = workloads.make_tracer()
            traced_setup, m = run_pass(workload, ctx, tracer, speed,
                                       units=units)
            plain_fig, plain_lat = end_to_end(import_s, plain_setup, plain,
                                              workload.min_cells)
            traced_fig, traced_lat = end_to_end(import_s, traced_setup, m,
                                                workload.min_cells)
            describe("untraced pass", plain_fig, plain_lat, plain, import_s)
            describe("traced pass", traced_fig, traced_lat, m, import_s)
            write_trace(root, args.workload, args.seed, tracer)
            figures = workloads.per_layer(tracer, m)
            for name in ("cells_per_s", "session_s"):
                figures[f"untraced.{name}"] = plain_fig[name]
                figures[f"traced.{name}"] = traced_fig[name]
            figures["trace.overhead_ratio"] = (
                traced_fig["session_s"][0] / plain_fig["session_s"][0]
                if plain_fig["session_s"][0] else 0.0, "ratio")
            figures["host.calib_ms"] = (
                statistics.median(speed.samples_ms), "ms")
            runs = (plain, m)
            section = "per_layer"
        else:
            setup_times, m = run_pass(workload, ctx, NullTracer(), speed,
                                      seconds=args.seconds)
            figures, latency = end_to_end(import_s, setup_times, m,
                                          workload.min_cells)
            describe("end to end", figures, latency, m, import_s)
            runs = (m,)
            section = "end_to_end"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.write_reference:
        REFERENCE_FILE.write_text(
            json.dumps(dict(sorted(references.items())), indent=2) + "\n")

    want = declared(root, section)
    got = {name: unit for name, (_value, unit) in figures.items()}
    if got != want:
        print(f"perfbench: metrics {sorted(got)} do not match the "
              f"{section} of BENCHMARK.json {sorted(want)}",
              file=sys.stderr)
        return 3
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.problems) for r in runs)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }
    record = root / ".perfbench" / "runs"
    record.mkdir(parents=True, exist_ok=True)
    host["calib_ms"] = statistics.median(speed.samples_ms)
    (record / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"host": host, **result, "unscaled": {
                        "cells_per_s": m.cells / m.busy_s if m.busy_s else 0,
                        "session_s": statistics.median(m.raw_unit_s or [0])},
                    "problems": [p for r in runs for p in r.problems]},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
