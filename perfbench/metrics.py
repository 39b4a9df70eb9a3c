"""Pure helpers of the benchmark: percentiles, span self-time, digests,
and the output checks.

Nothing here imports the simulator, so the functions are tested on
their own (``python3 -m pytest perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a latency tail may be reported at.  The tail metric is
#: capped at p90 and picked from a workload's guaranteed sample floor,
#: not the count a run happens to reach, so it is the same percentile on
#: every run of that workload.
TAIL_CANDIDATES = (90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: The profiled layer library of the LeNet-5 victim, in order.
EXPECTED_LIBRARY = ("conv", "pool", "conv", "fc", "pool")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def reportable_percentile(n: int, candidates: Iterable[float] = (
        99.0, 90.0, 50.0)) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or None when not even the lowest has."""
    for p in sorted(candidates, reverse=True):
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def latency_summary(values: Sequence[float], floor: int
                    ) -> Dict[str, float]:
    """Median and tail of a latency sample, with the tail's percentile
    and the sample count.  The tail is the highest candidate with ten
    samples beyond it at ``floor``, the fewest samples a run may stop
    with; below 20 samples it falls back to the median."""
    tail_p = reportable_percentile(floor, TAIL_CANDIDATES) or 50.0
    return {"n": len(values), "p50": percentile(values, 50.0),
            "tail_p": tail_p, "tail": percentile(values, tail_p)}


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    figure ``spread.py`` reports), using ``statistics.quantiles``."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# -- spans -------------------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict], only_children: Optional[str] = None
               ) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    ``spans`` are dicts with ``id``, ``start``, ``end`` and ``parent``.
    With ``only_children`` set, only child spans of that name are
    subtracted (e.g. campaign time minus its cell spans).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is None:
            continue
        if only_children is not None and s["name"] != only_children:
            continue
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered_length(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def self_time_table(spans: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Self time summed per phase (span name) and per LeNet-5 layer (the
    ``layer`` the span was recorded under; ``-`` outside any cell)."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {})
        layer = s.get("layer") or "-"
        row[layer] = row.get(layer, 0.0) + selfs[s["id"]]
    return table


# -- correctness -------------------------------------------------------------


def digest(data: bytes) -> str:
    """blake2s of an output, as the committed reference stores it."""
    return hashlib.blake2s(data).hexdigest()


def check_digest(references: Dict[str, str], key: str,
                 data: bytes) -> List[str]:
    """A mismatch against the committed reference digest, if ``key`` has
    one (other seeds are checked by invariants alone)."""
    want = references.get(key)
    if want is None or want == digest(data):
        return []
    return [f"{key}: digest {digest(data)[:16]} != reference {want[:16]}"]


def _accuracy_problems(where: str, record: dict,
                       fields: Sequence[str]) -> List[str]:
    return [f"{where}: {name}={record[name]!r} outside [0, 1]"
            for name in fields if not 0.0 <= record[name] <= 1.0]


def _landing_problems(where: str, record: dict) -> List[str]:
    if 0 <= record["strikes_landed"] <= record["n_strikes"]:
        return []
    return [f"{where}: landed {record['strikes_landed']} of "
            f"{record['n_strikes']} requested"]


def check_campaign(payload: dict, n_cells: int) -> List[str]:
    """Invariants of a finished campaign JSON: complete, every cell
    present (a failed cell is missing), accuracies and landings sane."""
    problems = []
    if not payload.get("complete"):
        problems.append("campaign JSON not marked complete")
    outcomes = [o for sweep in payload["sweeps"] for o in sweep["outcomes"]]
    if len(outcomes) != n_cells:
        problems.append(f"{len(outcomes)} cells completed of {n_cells}")
    problems += _accuracy_problems("campaign", payload, ["clean_accuracy"])
    for o in outcomes:
        where = f"{o.get('target_layer', o.get('defense'))}@{o['n_strikes']}"
        problems += _accuracy_problems(
            where, o, ["clean_accuracy", "attacked_accuracy"])
        problems += _landing_problems(where, o)
    return problems


def check_arms_cells(cells: Sequence[dict]) -> List[str]:
    """Invariants of an arms-race cell list: accuracies, landings, and an
    undefended cell never reporting razor activity."""
    problems = []
    for c in cells:
        where = f"{c['defense']}@{c['bank_cells']}"
        problems += _accuracy_problems(
            where, c, ["clean_accuracy", "attacked_accuracy",
                       "residual_mismatch_rate"])
        problems += _landing_problems(where, c)
        if c["defense"] == "none" and (c["razor_flags"] or c["replays"]):
            problems.append(f"{where}: undefended cell reports razor work")
    return problems


def check_outcome(where: str, outcome: dict) -> List[str]:
    """Invariants of one attack cell outcome."""
    return (_accuracy_problems(where, outcome,
                               ["clean_accuracy", "attacked_accuracy"])
            + _landing_problems(where, outcome))


def check_library(kinds: Sequence[str]) -> List[str]:
    """The profiled library must show the victim's five layers in order."""
    if tuple(kinds) == EXPECTED_LIBRARY:
        return []
    return [f"profiled library {list(kinds)} != {list(EXPECTED_LIBRARY)}"]


def check_trigger(trigger_tick: Optional[int], first_end_tick: int
                  ) -> List[str]:
    """The start detector must have fired by the end of the first layer."""
    if trigger_tick is None:
        return ["start detector never fired"]
    if trigger_tick >= first_end_tick:
        return [f"start detector fired at tick {trigger_tick}, after the "
                f"first layer ended (tick {first_end_tick})"]
    return []
