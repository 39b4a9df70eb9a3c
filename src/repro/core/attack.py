"""The DeepStrike planner/orchestrator.

Ties the pieces into the paper's three-step procedure:

1. **Profile** — collect TDC traces of normal victim inferences and build
   the layer signature library (:meth:`DeepStrike.profile_victim`).
2. **Plan** — pick a target layer and strike count, compile the attacking
   scheme file, and pre-compute the deterministic strike-cycle rail
   voltages through the PDN model (:meth:`DeepStrike.plan_for_layer` uses
   the ground-truth schedule for characterization;
   :meth:`DeepStrike.plan_from_profile` uses only the profiled
   signatures — the true black-box path).
3. **Strike & evaluate** — run attacked inference over a test set and
   measure accuracy (:meth:`DeepStrike.execute`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..accel.activity import STALL_CURRENT, inference_current_trace
from ..accel.engine import AcceleratorEngine, StruckCycles
from ..config import SimulationConfig
from ..errors import ConfigError, SchedulerError
from ..fpga.background import BackgroundActivity
from ..fpga.pdn import PowerDistributionNetwork
from ..sensors.delay import GateDelayModel
from ..striker.bank import effective_bank_current
from ..striker.cell import StrikerCell
from .evaluation import AttackOutcome
from .profiler import LayerSignature, SideChannelProfiler
from .scheme import AttackScheme

__all__ = ["AttackPlan", "DeepStrike"]

#: Detector latency from layer start to trigger, victim cycles
#: (debounce of 3 TDC samples at 2 samples/cycle, rounded up).
DETECTOR_LATENCY_CYCLES = 2

#: Default striker bank for the end-to-end attack.  Calibrated so one
#: strike dips the rail to the shallow-violation regime (~0.949 V with
#: victim activity) where the paper-scale accuracy drops reproduce; see
#: EXPERIMENTS.md for the discussion versus the paper's 15.03%-slice bank.
DEFAULT_ATTACK_CELLS = 5500


@dataclass
class AttackPlan:
    """A fully planned strike sequence against one inference."""

    target_layer: str
    n_strikes_requested: int
    scheme: AttackScheme
    trigger_cycle: int
    struck: List[StruckCycles] = field(default_factory=list)
    wasted_strikes: int = 0  # strikes landing in stalls (profile error)

    @property
    def strikes_landed(self) -> int:
        return sum(s.count for s in self.struck)

    def mean_strike_voltage(self) -> float:
        if not self.struck:
            return float("nan")
        all_v = np.concatenate([np.asarray(s.voltages) for s in self.struck])
        return float(all_v.mean())


class DeepStrike:
    """Plan and execute remotely-guided fault injection on a victim."""

    def __init__(
        self,
        engine: AcceleratorEngine,
        bank_cells: int = DEFAULT_ATTACK_CELLS,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.engine = engine
        self.config: SimulationConfig = engine.config
        self.bank_cells = bank_cells
        self.rng = rng if rng is not None else engine.rng
        self._cell = StrikerCell(self.config.striker,
                                 GateDelayModel(self.config.delay))
        self._strike_current = effective_bank_current(
            bank_cells, self._cell, self.config.pdn
        )
        # Deterministic (rng=None) inference current trace; identical
        # for every plan against this schedule, so priced once.
        self._trace_cache: Optional[np.ndarray] = None
        # Settled pricing-PDN state: settle() walks a per-tick Python
        # loop from reset, and its result is the same for every plan, so
        # snapshot it once and restore thereafter (bit-exact).
        self._settled_state: Optional[Tuple[float, float, float, float]] = None

    # -- step 1: profiling ----------------------------------------------------------

    def profile_victim(self, sensor, nominal_readout: int,
                       n_traces: int = 3,
                       profiler: Optional[SideChannelProfiler] = None,
                       background: Optional[BackgroundActivity] = None,
                       robust: Optional[bool] = None,
                       ) -> List[LayerSignature]:
        """Collect ``n_traces`` side-channel traces of clean victim
        inferences and build the layer signature library.

        With ``background`` set, a third tenant's bursty activity rides
        on the PDN during profiling — the multi-tenant scenario of the
        paper's future work.  Moderate background blurs but does not
        break the layer signatures; heavy background makes the profiler
        raise, which is the honest failure mode.
        """
        prof = profiler or SideChannelProfiler(nominal_readout)
        traces = []
        for k in range(n_traces):
            current = inference_current_trace(
                self.engine.schedule, self.config.accel, self.config.clock,
                rng=np.random.default_rng(
                    self.config.seed + 7000 + k
                ),
            )
            if background is not None:
                noise_rng = np.random.default_rng(self.config.seed + 9000 + k)
                current = current + background.trace(current.shape[0],
                                                     noise_rng)
            pdn = PowerDistributionNetwork(
                self.config.pdn, dt=self.config.clock.sim_dt,
                rng=np.random.default_rng(self.config.seed + 8000 + k),
            )
            pdn.settle(STALL_CURRENT)
            volts = pdn.simulate(current)
            traces.append(sensor.sample_trace(volts))
        # Cross-matching defaults on when a co-tenant may inject phantom
        # segments; off for the clean two-tenant setting.
        use_robust = (background is not None) if robust is None else robust
        return prof.build_library(traces, dt=self.config.clock.sim_dt,
                                  robust=use_robust)

    # -- step 2: planning ----------------------------------------------------------

    @property
    def default_trigger_cycle(self) -> int:
        """Cycle where the detector fires: first layer start + latency."""
        first = self.engine.schedule.windows()[0]
        return first.start_cycle + DETECTOR_LATENCY_CYCLES

    def _scheme_for_layer(self, layer_name: str, n_strikes: int,
                          trigger: int) -> AttackScheme:
        """Strike scheme covering a layer's usable window."""
        window = self.engine.schedule.window(layer_name)
        # The detector fires a couple of cycles into the first layer, so a
        # first-layer attack can only cover the remainder of its window.
        usable_start = max(window.start_cycle, trigger)
        usable_cycles = window.end_cycle - usable_start
        if usable_cycles < 1:
            raise SchedulerError(
                f"layer '{layer_name}' has already finished at the trigger"
            )
        delay = usable_start - trigger
        return AttackScheme.spread_over(delay, usable_cycles, n_strikes)

    def plan_for_layer(self, layer_name: str, n_strikes: int,
                       trigger_cycle: Optional[int] = None) -> AttackPlan:
        """Plan against the *known* schedule (characterization mode)."""
        trigger = self.default_trigger_cycle if trigger_cycle is None \
            else trigger_cycle
        scheme = self._scheme_for_layer(layer_name, n_strikes, trigger)
        return self._finalize_plan(layer_name, n_strikes, scheme, trigger)

    def plan_from_profile(self, library: Sequence[LayerSignature],
                          target_order: int, n_strikes: int) -> AttackPlan:
        """Plan using only profiled signatures (black-box mode).

        The signature's start/duration (in ticks from the trace origin)
        stand in for the schedule the attacker cannot see; strikes that
        miss the true layer window due to profiling error are counted as
        wasted, not silently retargeted.
        """
        sigs = {s.order: s for s in library}
        if target_order not in sigs:
            raise SchedulerError(f"no profiled layer with order {target_order}")
        sig = sigs[target_order]
        tpc = self.config.clock.ticks_per_victim_cycle
        start_cycle = sig.start_cycle(tpc)
        duration = max(1, sig.duration_cycles(tpc))
        trigger = self.default_trigger_cycle
        delay = max(0, start_cycle - trigger)
        scheme = AttackScheme.spread_over(delay, duration, n_strikes)
        label = f"profiled#{target_order}->{sig.kind_guess}"
        return self._finalize_plan(label, n_strikes, scheme, trigger)

    def _finalize_plan(self, target_label: str, n_strikes: int,
                       scheme: AttackScheme, trigger: int) -> AttackPlan:
        absolute = trigger + scheme.strike_start_cycles()
        voltages = self.strike_voltages(absolute, scheme.strike_cycles)
        struck, wasted = self.bucket_strikes(absolute, voltages)
        return AttackPlan(
            target_layer=target_label,
            n_strikes_requested=n_strikes,
            scheme=scheme,
            trigger_cycle=trigger,
            struck=struck,
            wasted_strikes=wasted,
        )

    # -- strike-voltage machinery ----------------------------------------------------------

    def strike_voltages(self, absolute_cycles: np.ndarray,
                        strike_cycles: int = 1,
                        extra_current: Optional[np.ndarray] = None
                        ) -> np.ndarray:
        """Deterministic rail voltage at each struck cycle.

        Simulates the full inference current trace plus the striker bank's
        pulses through the (noise-free) PDN, including victim-activity
        coupling and resonant buildup under dense strike trains; returns
        the minimum voltage within each struck cycle's ticks.

        ``extra_current`` (per-tick) adds environment load the attacker
        does not control, e.g. a background tenant's activity.
        """
        cycles = np.asarray(absolute_cycles, dtype=np.int64)
        tpc = self.config.clock.ticks_per_victim_cycle
        current = self._base_current_trace()
        if extra_current is not None:
            extra = np.asarray(extra_current, dtype=np.float64)
            n = min(extra.shape[0], current.shape[0])
            current[:n] += extra[:n]
        # Struck victim cycles -> the ticks they span; overlapping
        # strike windows stack, exactly like the per-cycle += loop did.
        span = cycles[:, None] + np.arange(strike_cycles, dtype=np.int64)
        ticks = (span.reshape(-1, 1) * tpc
                 + np.arange(tpc, dtype=np.int64)).reshape(-1)
        valid = (ticks >= 0) & (ticks < current.shape[0])
        np.add.at(current, ticks[valid], self._strike_current)
        volts = self._pricing_pdn().simulate(current)
        # Per-cycle minima, padded with +inf past the trace end so the
        # gather below clips instead of wrapping.
        n_full = volts.shape[0] // tpc
        mins = volts[:n_full * tpc].reshape(n_full, tpc).min(axis=1)
        if volts.shape[0] % tpc:
            mins = np.append(mins, volts[n_full * tpc:].min())
        padded = np.append(mins, np.inf)
        clipped = np.minimum(span, mins.shape[0])
        return padded[clipped].min(axis=1)

    def _pricing_pdn(self) -> PowerDistributionNetwork:
        """A noise-free PDN at the settled stall operating point.

        ``settle`` walks a per-tick Python loop and its result is
        identical for every plan, so the settled state is snapshotted on
        first use and restored (bit-exactly) thereafter.
        """
        pdn = PowerDistributionNetwork(self.config.pdn,
                                       dt=self.config.clock.sim_dt, rng=None)
        if self._settled_state is None:
            pdn.settle(STALL_CURRENT)
            self._settled_state = pdn.state
        else:
            pdn.state = self._settled_state
        return pdn

    def _base_current_trace(self) -> np.ndarray:
        """A private copy of the deterministic inference current trace."""
        if self._trace_cache is None:
            self._trace_cache = inference_current_trace(
                self.engine.schedule, self.config.accel, self.config.clock,
                rng=None,
            )
        return self._trace_cache.copy()

    def plan_under_background(self, plan: AttackPlan,
                              background: BackgroundActivity,
                              seed: int = 0) -> AttackPlan:
        """Re-price a plan's strike voltages with a background tenant.

        The attacker plans against its *model* of the board (no third
        tenant); at execution time the environment may differ.  This
        recomputes the true strike-cycle voltages with the background
        activity included, so the plan executes under the multi-tenant
        PDN — typically *deepening* strikes, per the paper's footnote
        that other tenants' consumption strengthens the injection.
        """
        absolute = plan.trigger_cycle + plan.scheme.strike_start_cycles()
        tpc = self.config.clock.ticks_per_victim_cycle
        n_ticks = self.engine.schedule.total_cycles * tpc
        extra = background.trace(n_ticks, np.random.default_rng(seed))
        voltages = self.strike_voltages(absolute, plan.scheme.strike_cycles,
                                        extra_current=extra)
        struck, wasted = self.bucket_strikes(absolute, voltages)
        return AttackPlan(
            target_layer=plan.target_layer,
            n_strikes_requested=plan.n_strikes_requested,
            scheme=plan.scheme,
            trigger_cycle=plan.trigger_cycle,
            struck=struck,
            wasted_strikes=wasted,
        )

    def bucket_strikes(self, absolute_cycles: np.ndarray,
                       voltages: np.ndarray):
        """Split absolute struck cycles into per-layer StruckCycles;
        strikes landing in stalls are wasted.

        Vectorized, but semantics-preserving versus the scalar
        ``layer_at`` loop it replaces: within a layer, cycles keep their
        input order, and layers appear in first-occurrence order of the
        input (both orders are byte-significant — cycle order keys the
        exposure cache and layer order feeds ``mean_strike_voltage``).
        """
        cycles = np.asarray(absolute_cycles, dtype=np.int64)
        volts = np.asarray(voltages, dtype=np.float64)
        windows = self.engine.schedule.windows()
        starts = np.array([w.start_cycle for w in windows], dtype=np.int64)
        ends = np.array([w.end_cycle for w in windows], dtype=np.int64)
        total = self.engine.schedule.total_cycles
        widx = np.searchsorted(starts, cycles, side="right") - 1
        clipped = np.clip(widx, 0, len(windows) - 1)
        # A hit is in schedule range, at/after some window's start, and
        # before that window's end (cycles in inter-layer stalls fail
        # the last test and are wasted, exactly like layer_at -> None).
        hit = ((cycles >= 0) & (cycles < total) & (widx >= 0)
               & (cycles < ends[clipped]))
        wasted = int(cycles.shape[0] - np.count_nonzero(hit))
        sel = np.flatnonzero(hit)
        struck: List[StruckCycles] = []
        if sel.size:
            hit_widx = widx[sel]
            uniq, first_pos = np.unique(hit_widx, return_index=True)
            for k in np.argsort(first_pos, kind="stable"):
                w = windows[uniq[k]]
                members = sel[hit_widx == uniq[k]]
                struck.append(StruckCycles(
                    w.plan.name,
                    cycles[members] - w.start_cycle,
                    volts[members],
                ))
        return struck, wasted

    # -- step 3: execution ----------------------------------------------------------

    def clean_predictions(self, images: np.ndarray) -> np.ndarray:
        """Clean top-1 predictions from the engine's cached forward pass.

        Identical to ``engine.predict_clean`` (dequantization is a
        positive power-of-two scale, so the argmax is unchanged) but
        shares the stage-code cache with :meth:`execute`, letting a
        campaign price its clean baseline without an extra forward pass.
        """
        codes = self.engine.clean_stage_codes(images)[-1]
        return np.argmax(self.engine._dequantize_scores(codes), axis=1)

    def execute(self, images: np.ndarray, labels: np.ndarray,
                plan: AttackPlan,
                clean_accuracy: Optional[float] = None) -> AttackOutcome:
        """Run attacked inference over a test set and measure accuracy.

        The engine's cached clean stage codes give both the clean
        baseline and the attacked pass's untouched prefix.
        ``clean_accuracy`` supplies an already measured clean baseline
        (campaigns measure it once for all cells).  An empty image batch
        is refused with :class:`~repro.errors.ConfigError`.
        """
        if len(images) == 0:
            raise ConfigError("cannot attack an empty image batch "
                              "(need at least 1 image)")
        stage_codes = self.engine.clean_stage_codes(images)
        if clean_accuracy is None:
            preds = np.argmax(
                self.engine._dequantize_scores(stage_codes[-1]), axis=1
            )
            clean_accuracy = float((preds == labels).mean())
        attacked = self.engine.accuracy_under_attack(
            images, labels, plan.struck, stage_codes=stage_codes,
        )
        return AttackOutcome(
            target_layer=plan.target_layer,
            n_strikes=plan.n_strikes_requested,
            strikes_landed=plan.strikes_landed,
            clean_accuracy=float(clean_accuracy),
            attacked_accuracy=float(attacked),
            mean_strike_voltage=plan.mean_strike_voltage(),
        )
