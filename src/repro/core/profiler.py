"""Side-channel profiling of the victim model (paper Section III-B/D).

From nothing but TDC readout traces of normal victim inferences, the
profiler recovers the structure DeepStrike needs: how many layers run,
when each starts and ends (relative to the detector trigger), and what
kind of layer each looks like.  Layer *kind* is inferred from the trace
alone — droop depth separates wide DSP bursts (conv) from narrow ones
(fc) from pooling — exactly the "library of sensor readout patterns"
the paper proposes to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import ProfilingError
from ..sensors.trace import ReadoutTrace, Segment

__all__ = ["LayerSignature", "SideChannelProfiler"]


@dataclass(frozen=True)
class LayerSignature:
    """One profiled layer, in trace (tick) units."""

    order: int
    start_tick: int
    duration_ticks: int
    mean_droop: float  # counts below nominal
    fluctuation: float  # within-segment std, counts
    kind_guess: str  # "conv" | "fc" | "pool"

    def duration_cycles(self, ticks_per_cycle: int) -> int:
        return self.duration_ticks // ticks_per_cycle

    def start_cycle(self, ticks_per_cycle: int) -> int:
        return self.start_tick // ticks_per_cycle


class SideChannelProfiler:
    """Turns readout traces into a per-layer signature library."""

    def __init__(
        self,
        nominal_readout: int,
        stall_band: float = 0.45,
        smoothing_window: int = 21,
        min_activity_ticks: int = 40,
        merge_gap_ticks: int = 120,
        conv_droop_threshold: float = 3.0,
    ) -> None:
        if not conv_droop_threshold > 0:
            raise ProfilingError("need conv_droop_threshold > 0")
        self.nominal_readout = nominal_readout
        self.stall_band = stall_band
        self.smoothing_window = smoothing_window
        self.min_activity_ticks = min_activity_ticks
        self.merge_gap_ticks = merge_gap_ticks
        self.conv_droop_threshold = conv_droop_threshold

    # -- single-trace profiling ----------------------------------------------------------

    def profile(self, readouts: np.ndarray, dt: float) -> List[LayerSignature]:
        """Segment one inference trace into layer signatures."""
        trace = ReadoutTrace(readouts, dt=dt, nominal=self.nominal_readout)
        segments = trace.activity_segments(
            stall_band=self.stall_band,
            window=self.smoothing_window,
            min_activity_ticks=self.min_activity_ticks,
            merge_gap_ticks=self.merge_gap_ticks,
        )
        if not segments:
            raise ProfilingError(
                "no layer activity found in the trace; is the victim running?"
            )
        longest = max(seg.length for seg in segments)
        return [self._signature(k, seg, longest)
                for k, seg in enumerate(segments)]

    def _signature(self, order: int, segment: Segment,
                   longest_ticks: int) -> LayerSignature:
        droop = self.nominal_readout - segment.mean
        return LayerSignature(
            order=order,
            start_tick=segment.start,
            duration_ticks=segment.length,
            mean_droop=float(droop),
            fluctuation=segment.std,
            kind_guess=self.classify(droop, segment.length, longest_ticks),
        )

    def classify(self, mean_droop: float, duration_ticks: int,
                 longest_ticks: int) -> str:
        """Layer-kind heuristic from the trace pattern.

        Deep droop means a wide DSP burst (conv).  Shallow-droop layers
        split on duration: FC layers stream serially for a long time,
        pooling is brief.  Short shallow layers (a tiny final FC, say) are
        genuinely ambiguous from the side channel alone — the attacker has
        only the pattern library, as the paper notes.
        """
        if mean_droop >= self.conv_droop_threshold:
            return "conv"
        if duration_ticks >= 0.4 * longest_ticks:
            return "fc"
        return "pool"

    # -- multi-trace library ----------------------------------------------------------

    def build_library(self, traces: Sequence[np.ndarray],
                      dt: float, robust: bool = False) -> List[LayerSignature]:
        """Average signatures over several inference traces.

        With ``robust=False`` traces must agree on layer count (inference
        timing is deterministic, so they will unless segmentation
        glitched — a disagreement raises, which is the profiler's own
        sanity check).  With ``robust=True``, segments are cross-matched
        by interval overlap and only those present in *every* trace
        survive — real layers repeat at the same offsets each inference,
        while phantom segments from a bursty co-tenant do not.
        """
        if not traces:
            raise ProfilingError("need at least one trace")
        per_trace = [self.profile(t, dt) for t in traces]
        if robust:
            per_trace = self._cross_match(per_trace)
        counts = {len(p) for p in per_trace}
        if len(counts) != 1:
            raise ProfilingError(
                f"traces disagree on layer count: {sorted(counts)}"
            )
        n_layers = counts.pop()
        if n_layers == 0:
            raise ProfilingError("no layer present in every trace")
        durations = [
            int(np.mean([p[k].duration_ticks for p in per_trace]))
            for k in range(n_layers)
        ]
        longest = max(durations)
        library: List[LayerSignature] = []
        for k in range(n_layers):
            sigs = [p[k] for p in per_trace]
            droop = float(np.mean([s.mean_droop for s in sigs]))
            library.append(
                LayerSignature(
                    order=k,
                    start_tick=int(np.mean([s.start_tick for s in sigs])),
                    duration_ticks=durations[k],
                    mean_droop=droop,
                    fluctuation=float(np.mean([s.fluctuation for s in sigs])),
                    kind_guess=self.classify(droop, durations[k], longest),
                )
            )
        return library

    @staticmethod
    def _interval_iou(a: LayerSignature, b: LayerSignature) -> float:
        a0, a1 = a.start_tick, a.start_tick + a.duration_ticks
        b0, b1 = b.start_tick, b.start_tick + b.duration_ticks
        overlap = max(0, min(a1, b1) - max(a0, b0))
        union = max(a1, b1) - min(a0, b0)
        return overlap / union if union else 0.0

    def _cross_match(self, per_trace: List[List[LayerSignature]],
                     min_iou: float = 0.5) -> List[List[LayerSignature]]:
        """Keep only segments present (by interval overlap) in every trace.

        The first trace's segments seed clusters; each other trace's
        segments join their best-overlapping cluster.  Clusters touched
        by every trace are real layers; the rest are co-tenant bursts.
        """
        n = len(per_trace)
        clusters = [{0: seg} for seg in per_trace[0]]
        for t in range(1, n):
            for seg in per_trace[t]:
                best_iou, best = 0.0, None
                for cluster in clusters:
                    iou = self._interval_iou(cluster[0], seg)
                    if iou > best_iou:
                        best_iou, best = iou, cluster
                if best is not None and best_iou >= min_iou and t not in best:
                    best[t] = seg
        surviving = [c for c in clusters if len(c) == n]
        matched: List[List[LayerSignature]] = [
            [cluster[k] for cluster in surviving] for k in range(n)
        ]
        return matched

    # -- reporting ----------------------------------------------------------

    @staticmethod
    def library_summary(library: Sequence[LayerSignature]) -> str:
        lines = ["Layer signature library (trace units):"]
        for sig in library:
            lines.append(
                f"  #{sig.order}: start={sig.start_tick:>7} "
                f"dur={sig.duration_ticks:>7} droop={sig.mean_droop:6.2f} "
                f"flux={sig.fluctuation:5.2f} -> {sig.kind_guess}"
            )
        return "\n".join(lines)
