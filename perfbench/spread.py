#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and quartile spread (inter-quartile distance as a share
of the median) next to its bound in ``BENCHMARK.json``.

    python3 perfbench/spread.py --workload fig5b --seeds 0-9

A metric whose spread exceeds a third of its bound is flagged: its runs
are too noisy for the bound to tell a regression from noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import quartile_spread  # noqa: E402


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {row["name"]: [] for row in spec["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed")
    for row in spec["end_to_end"]:
        runs = values[row["name"]]
        spread = quartile_spread(runs) if len(runs) > 1 else 0.0
        flag = "" if spread < row["bound"] / 3 else "  <-- above bound/3"
        print(f"  {row['name']:<14} median {statistics.median(runs):12.4f} "
              f"{row['unit']:<8} spread {spread:6.3f} "
              f"bound {row['bound']}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
