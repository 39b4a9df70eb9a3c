"""Sensor readout traces and their segmentation into layer executions.

Fig 1(b)'s observation — layers separated by "stall" zones where the
readout sits near its calibrated value — is what makes remote profiling
possible.  :class:`ReadoutTrace` captures a readout-per-tick trace and
:meth:`ReadoutTrace.segment` recovers the alternating stall/activity
structure that the profiler turns into per-layer signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ProfilingError

__all__ = ["Segment", "ReadoutTrace"]


@dataclass(frozen=True)
class Segment:
    """A contiguous span of a readout trace.

    ``kind`` is ``"stall"`` (readout near nominal: no victim activity) or
    ``"activity"`` (sustained droop: a layer executing).
    """

    kind: str
    start: int
    end: int  # exclusive
    mean: float
    std: float
    minimum: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def duration_s(self, dt: float) -> float:
        return self.length * dt


class ReadoutTrace:
    """A TDC readout trace with segmentation utilities.

    Parameters
    ----------
    readouts:
        One ones-count readout per simulation tick.
    dt:
        Tick duration, seconds.
    nominal:
        The calibrated idle readout (e.g. 92).
    """

    def __init__(self, readouts: np.ndarray, dt: float, nominal: int) -> None:
        arr = np.asarray(readouts)
        if arr.ndim != 1 or arr.size == 0:
            raise ProfilingError("readout trace must be a non-empty 1-D array")
        if dt <= 0:
            raise ProfilingError("dt must be positive")
        self.readouts = arr.astype(np.int64)
        self.dt = dt
        self.nominal = int(nominal)

    def __len__(self) -> int:
        return self.readouts.shape[0]

    # -- de-noising -----------------------------------------------------------

    def smoothed(self, window: int = 9) -> np.ndarray:
        """Moving-average smoothing (centered, edge-padded)."""
        if window < 1:
            raise ProfilingError("window must be >= 1")
        if window == 1:
            return self.readouts.astype(np.float64)
        pad = window // 2
        padded = np.pad(self.readouts.astype(np.float64), pad, mode="edge")
        kernel = np.ones(window) / window
        return np.convolve(padded, kernel, mode="valid")[: len(self)]

    # -- segmentation -----------------------------------------------------------

    def activity_mask(self, stall_band: float = 1.5, window: int = 9) -> np.ndarray:
        """Boolean mask: True where the (smoothed) readout has drooped
        more than ``stall_band`` counts below nominal."""
        smooth = self.smoothed(window)
        return (self.nominal - smooth) > stall_band

    def segment(
        self,
        stall_band: float = 1.5,
        window: int = 9,
        min_activity_ticks: int = 20,
        merge_gap_ticks: int = 40,
    ) -> List[Segment]:
        """Alternating stall/activity segments.

        Activity runs shorter than ``min_activity_ticks`` are treated as
        noise; activity runs separated by stalls shorter than
        ``merge_gap_ticks`` are merged (a layer's internal micro-stalls do
        not split it).
        """
        mask = self.activity_mask(stall_band, window)
        runs = _runs(mask)
        # Drop too-short activity bursts.
        runs = [(kind, s, e) for kind, s, e in runs
                if not (kind and (e - s) < min_activity_ticks)]
        runs = _normalize(runs, len(self))
        # Merge activity runs separated by stalls shorter than the gap:
        # activity | short stall | activity -> one activity run.
        changed = True
        while changed:
            changed = False
            for j in range(1, len(runs) - 1):
                kind, s, e = runs[j]
                if (not kind and (e - s) < merge_gap_ticks
                        and runs[j - 1][0] and runs[j + 1][0]):
                    fused = (True, runs[j - 1][1], runs[j + 1][2])
                    runs = runs[: j - 1] + [fused] + runs[j + 2:]
                    changed = True
                    break
        segments = []
        for kind, s, e in runs:
            span = self.readouts[s:e]
            segments.append(
                Segment(
                    kind="activity" if kind else "stall",
                    start=s,
                    end=e,
                    mean=float(span.mean()),
                    std=float(span.std()),
                    minimum=int(span.min()),
                )
            )
        return segments

    def activity_segments(self, **kwargs) -> List[Segment]:
        """Only the activity (layer-execution) segments, in time order."""
        return [s for s in self.segment(**kwargs) if s.kind == "activity"]

    # -- statistics ----------------------------------------------------------

    def fluctuation(self) -> float:
        """Peak-to-peak readout excursion (Fig 1b's qualitative metric)."""
        return float(self.readouts.max() - self.readouts.min())

    def droop_depth(self) -> float:
        """Mean droop below nominal over the whole trace, in counts."""
        return float(np.maximum(self.nominal - self.readouts, 0).mean())


def _runs(mask: np.ndarray) -> List[tuple]:
    """Run-length encode a boolean mask into (value, start, end) tuples."""
    arr = np.asarray(mask)
    if arr.shape[0] == 0:
        return []
    edges = (np.flatnonzero(arr[1:] != arr[:-1]) + 1).tolist()
    starts = [0] + edges
    ends = edges + [arr.shape[0]]
    return [(bool(value), s, e)
            for value, s, e in zip(arr[starts].tolist(), starts, ends)]


def _normalize(runs: List[tuple], total: int) -> List[tuple]:
    """Re-glue adjacent same-kind runs after filtering, covering [0,total)."""
    if not runs:
        return [(False, 0, total)]
    glued: List[List] = []
    for kind, s, e in runs:
        if glued and glued[-1][0] == kind:
            glued[-1][2] = e
        else:
            glued.append([kind, s, e])
    # Re-span boundaries to be contiguous.
    out = []
    cursor = 0
    for i, (kind, s, e) in enumerate(glued):
        end = glued[i + 1][1] if i + 1 < len(glued) else total
        out.append((kind, cursor, end))
        cursor = end
    return out
