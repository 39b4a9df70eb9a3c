"""Detect-and-recover victim runtime.

:class:`HardenedAcceleratorEngine` wraps the fault-aware
:class:`~repro.accel.AcceleratorEngine` with the layered defense of
docs/defense.md:

1. **Razor detection** — shadow latches watch every DSP capture the
   strikes expose (via the engine's batched ``_observe_fault_sites``
   hook) and flag timing misses class-conditionally: shallow duplication
   faults with high coverage, deep random faults with lower coverage.
2. **Checkpoint/rollback replay** — a layer's input is its checkpoint
   (the engine already threads it to the injectors).  A razor flag, or a
   droop-monitor alarm on the layer, rolls the layer back and replays it
   at a divided clock: the DDR capture period stretches by
   ``replay_clock_divisor``, so the same strike train finds positive
   slack and the replay comes out clean except under extreme droop.
   The budget is ``max_replays_per_layer`` per image; exhaustion either
   raises :class:`~repro.errors.RecoveryExhaustedError` (fail-stop) or
   accepts the last replay's output, per ``exhaustion_policy``.
3. **Algorithmic containment** — calibrated per-layer activation
   clamping bounds the damage of faults the razor misses, and optional
   temporal TMR majority-votes the final classifier.

All recovery work is metered in :class:`~repro.defense.RecoveryStats`;
on clean traffic the runtime adds zero overhead and leaves outputs
bit-identical to the undefended engine.

Hot path (docs/performance.md, "defense hot path"): the razor watches
the injectors' *sparse fault sites* through one batched observation per
injection pass instead of a dense per-image Python loop.  The razor's
coverage test is the one step here that reads the dtype policy, as the
fault test is in the base engine: ``fxp`` draws it with
:meth:`RazorDetector.observe_batch_dense`, whose RNG stream is
byte-identical to the per-image reference, and ``fp32`` with the
per-site draws of :meth:`RazorDetector.observe_batch_sparse`
(distribution-identical, different stream).  Every other step runs the
same code under both policies.  The defended clean forward pass (every
stage upstream of the first struck/alarmed/TMR layer, clamps included)
is cached per images identity, and the
divided-clock replay fault models are built once per engine with their
voltage-quadrature results memoized per (exposure record, model), so a
study reusing one engine across cells never re-prices the replay
physics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace as dc_replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.engine import (AcceleratorEngine, StruckCycles,
                            _pool_path_config)
from ..config import SimulationConfig
from ..dsp.faults import TimingFaultModel
from ..errors import ConfigError, RecoveryExhaustedError
from ..nn.quantize import QuantizedModel
from ..sensors.delay import GateDelayModel
from .recovery import ActivationClamp, RazorDetector, RecoveryStats

__all__ = ["HardenedAcceleratorEngine"]


class HardenedAcceleratorEngine(AcceleratorEngine):
    """Accelerator engine with razor detection, rollback replay at a
    divided clock, activation containment, and optional final-FC TMR.

    Behaviour is controlled by ``config.recovery``
    (:class:`~repro.config.RecoveryConfig`).  If activation clamping is
    enabled, :meth:`calibrate` must run before :meth:`infer_under_attack`.
    """

    def __init__(self, model: QuantizedModel,
                 config: Optional[SimulationConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 input_shape: Tuple[int, ...] = (1, 28, 28)) -> None:
        super().__init__(model, config, rng, input_shape)
        rc = self.config.recovery
        self.razor = RazorDetector(rc, self.rng)
        self.stats = RecoveryStats()
        self.clamp: Optional[ActivationClamp] = None
        # Replay-path fault models: same physics, capture period
        # stretched by the replay clock divisor.  Built once per engine;
        # their per-strike-pattern quadratures are memoized inside the
        # exposure records (keyed by model identity), so replays after
        # the first pay only the injection itself.
        delay_model = GateDelayModel(self.config.delay)
        dsp = self.config.dsp
        self._dsp_faults_replay = TimingFaultModel(
            dc_replace(dsp, ddr_frequency_hz=dsp.ddr_frequency_hz
                       / rc.replay_clock_divisor),
            delay_model, self.rng,
        )
        pool_cfg = _pool_path_config(
            dsp, self.config.clock.victim_frequency_hz
        )
        self._pool_faults_replay = TimingFaultModel(
            dc_replace(pool_cfg, ddr_frequency_hz=pool_cfg.ddr_frequency_hz
                       / rc.replay_clock_divisor),
            delay_model, self.rng,
        )
        # Per-image razor flags captured during one injection pass, one
        # array per injection batch; None outside a capture window
        # (clean paths never sample the razor).
        self._capture: Optional[List[np.ndarray]] = None
        # Defended clean forward pass (stage outputs with clamps
        # applied, plus per-stage clamp counts), cached per (images
        # identity, clamp identity).  Deterministic and RNG-free, so a
        # study can reuse it across every cell on the same eval slice.
        self._defended_prefix: Optional[tuple] = None

    # -- calibration ----------------------------------------------------------

    def calibrate(self, images: np.ndarray) -> ActivationClamp:
        """Learn per-layer activation envelopes from clean traffic, on
        the engine's exact GEMM forward."""
        rc = self.config.recovery
        batch = np.asarray(images)[: rc.calibration_images]
        self.clamp = ActivationClamp.calibrate(self.model, batch,
                                               rc.clamp_margin,
                                               forward=self.forward_stage)
        return self.clamp

    # -- razor hook ----------------------------------------------------------

    def _observe_fault_sites(self, n_images: int, n_ops: int,
                             img: np.ndarray, pos: np.ndarray,
                             dup: np.ndarray) -> None:
        if self._capture is None:
            return
        if not self.config.recovery.razor_enabled:
            self._capture.append(np.zeros(n_images, dtype=bool))
        elif self.config.dtype_policy == "fp32":
            self._capture.append(
                self.razor.observe_batch_sparse(n_images, img, dup)
            )
        else:
            # The fault test is done with the draw block by now.
            self._capture.append(
                self.razor.observe_batch_dense(
                    n_images, n_ops, img, pos, dup,
                    scratch=self._draw_block(n_ops))
            )

    # -- droop-monitor glue ----------------------------------------------------------

    def layers_at_ticks(self, ticks: Iterable[int]) -> List[str]:
        """Map droop-monitor alarm ticks to the layers executing then.

        Ticks are sensor-trace samples (``ticks_per_victim_cycle`` per
        victim cycle, the convention of
        :class:`~repro.defense.DetectionStudy`); ticks landing in stall
        zones or past the inference are ignored.
        """
        tpc = self.config.clock.ticks_per_victim_cycle
        names: List[str] = []
        for tick in ticks:
            cycle = int(tick) // tpc
            if not 0 <= cycle < self.schedule.total_cycles:
                continue
            window = self.schedule.layer_at(cycle)
            if window is not None and window.plan.name not in names:
                names.append(window.plan.name)
        return names

    # -- hardened inference ----------------------------------------------------------

    def _defended_clean(self, images: np.ndarray
                        ) -> Tuple[List[np.ndarray], List[int]]:
        """Defended clean forward pass, cached per images identity.

        Returns ``(codes, clamped)``: ``codes[0]`` is the quantized
        input and ``codes[i + 1]`` stage ``i``'s output *after* any
        activation clamp; ``clamped[i]`` is stage ``i``'s clamp count.
        Entirely deterministic and RNG-free, so reuse cannot shift any
        injection stream; callers must treat the arrays as read-only.
        """
        cache = self._defended_prefix
        if cache is not None and cache[0] is images \
                and cache[1] is self.clamp:
            return cache[2], cache[3]
        rc = self.config.recovery
        codes = self.model.quantize_input(np.asarray(images))
        out = [codes]
        clamped: List[int] = []
        for stage in self.model.stages:
            name = getattr(stage, "name", "")
            plan = self._plan_by_name.get(name)
            codes = self.forward_stage(stage, codes)
            n_clamped = 0
            if (plan is not None and rc.clamp_activations
                    and plan.kind in ("conv", "dense", "pool")):
                codes, n_clamped = self.clamp.apply(name, codes)
            out.append(codes)
            clamped.append(n_clamped)
        self._defended_prefix = (images, self.clamp, out, clamped)
        return out, clamped

    def infer_under_attack(self, images: np.ndarray,
                           struck: Sequence[StruckCycles],
                           stage_codes: Optional[List[np.ndarray]] = None,
                           alarmed_layers: Optional[Sequence[str]] = None,
                           ) -> np.ndarray:
        """Logits with strikes applied and the recovery pipeline active.

        ``alarmed_layers`` names layers flagged externally (droop-monitor
        alarms mapped through :meth:`layers_at_ticks`); they are replayed
        at the divided clock even if no razor flag fires.

        Stages upstream of the first struck/alarmed/TMR layer come from
        the cached defended clean pass (:meth:`_defended_clean`) — they
        draw no randomness and their clamp counts are replayed into the
        stats, so the skip is invisible to both the RNG stream and the
        accounting.  ``stage_codes``, the undefended clean pass that the
        base engine resumes from, is accepted and not read: the
        defended prefix is the clamped one.
        """
        rc = self.config.recovery
        by_layer = self._index_strikes(struck)
        alarmed = set(alarmed_layers or ())
        for name in alarmed:
            if name not in self._plan_by_name:
                raise ConfigError(f"no layer named '{name}'")
        if rc.clamp_activations and self.clamp is None:
            raise ConfigError(
                "activation clamping is enabled but the engine is not "
                "calibrated; call calibrate() first"
            )
        final_fc = self._final_dense_name()
        stages = self.model.stages
        active = [self._plan_by_name[name].stage_index
                  for name, entry in by_layer.items() if entry.count > 0]
        active.extend(self._plan_by_name[name].stage_index
                      for name in alarmed)
        if rc.tmr_final_fc and final_fc:
            active.append(self._plan_by_name[final_fc].stage_index)
        first = min(active) if active else len(stages)

        prefix_codes, prefix_clamped = self._defended_clean(images)
        n_images = int(prefix_codes[0].shape[0])
        self.stats.images += n_images
        self.stats.base_cycles += n_images * self.schedule.total_cycles
        self.stats.clamped_values += sum(prefix_clamped[:first])
        codes = prefix_codes[first]
        for index in range(first, len(stages)):
            stage = stages[index]
            name = getattr(stage, "name", "")
            plan = self._plan_by_name.get(name)
            if plan is None:  # tanh/flatten: no schedule window, no DSPs
                codes = self.forward_stage(stage, codes)
                continue
            x_in = codes
            entry = by_layer.get(name)
            struck_here = entry is not None and entry.count > 0
            if rc.tmr_final_fc and name == final_fc:
                codes = self._tmr_stage(stage, index, plan, entry, x_in)
            elif struck_here:
                codes = self._recover_layer(stage, index, plan, entry,
                                            x_in, name in alarmed)
            else:
                codes = self.forward_stage(stage, codes)
                if name in alarmed:
                    # Precautionary replay: the monitor alarmed on a
                    # layer the planner did not strike.  The slow-clock
                    # recompute is deterministic and clean, so only the
                    # cycle cost is modelled.
                    self.stats.forced_replays += n_images
                    self.stats.replays += n_images
                    self.stats.replay_cycles += (
                        n_images * plan.cycles * rc.replay_clock_divisor
                    )
            if rc.clamp_activations and plan.kind in ("conv", "dense",
                                                      "pool"):
                codes, n_clamped = self.clamp.apply(name, codes)
                self.stats.clamped_values += n_clamped
        return self._dequantize_scores(codes)

    # -- recovery machinery ----------------------------------------------------------

    def _final_dense_name(self) -> str:
        """Name of the last dense layer (the TMR target)."""
        for plan in reversed(self.plans):
            if plan.kind == "dense":
                return plan.name
        return ""

    @contextmanager
    def _replay_models(self) -> Iterator[None]:
        """Swap the fault models for their divided-clock replay twins."""
        saved = (self.dsp_faults, self.pool_faults)
        self.dsp_faults = self._dsp_faults_replay
        self.pool_faults = self._pool_faults_replay
        try:
            yield
        finally:
            self.dsp_faults, self.pool_faults = saved

    def _inject_with_flags(self, stage, index: int, entry: StruckCycles,
                           x_in: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one layer with injection and razor capture.

        Returns ``(flags, codes)`` where ``flags[i]`` says image ``i``'s
        shadow latches caught a timing miss.
        """
        codes = self.forward_stage(stage, x_in)
        self._capture = []
        try:
            codes = self._apply_stage_faults(stage, index, entry, x_in,
                                             codes)
        finally:
            captured = self._capture
            self._capture = None
        flags = np.concatenate(captured) if captured \
            else np.zeros(0, dtype=bool)
        if flags.shape[0] != x_in.shape[0]:
            # The injectors report fault sites exactly once per batch.
            raise ConfigError(
                "razor capture out of step with the injection path"
            )
        self.stats.razor_flags += int(np.count_nonzero(flags))
        return flags, codes

    def _recover_layer(self, stage, index: int, plan, entry: StruckCycles,
                       x_in: np.ndarray, forced_alarm: bool) -> np.ndarray:
        """Detect-and-replay state machine for one struck layer.

        Attempt 0 is the full-rate execution (faults land, razor
        watches).  Flagged images roll back to ``x_in`` and replay at
        the divided clock; still-flagged images retry until the budget
        runs out.
        """
        rc = self.config.recovery
        flags, out = self._inject_with_flags(stage, index, entry, x_in)
        if forced_alarm:
            self.stats.forced_replays += int(np.count_nonzero(~flags))
            flags = np.ones_like(flags)
        pending = np.nonzero(flags)[0]
        attempt = 0
        while pending.size:
            if attempt >= rc.max_replays_per_layer:
                self.stats.exhausted += int(pending.size)
                if rc.exhaustion_policy == "raise":
                    raise RecoveryExhaustedError(
                        f"layer '{plan.name}' still flags timing errors "
                        f"after {attempt} replays on {pending.size} "
                        f"image(s)",
                        layer=plan.name, attempts=attempt,
                    )
                break  # "accept": keep the last replay's output
            attempt += 1
            self.stats.replays += int(pending.size)
            self.stats.replay_cycles += int(
                pending.size * plan.cycles * rc.replay_clock_divisor
            )
            with self._replay_models():
                sub_flags, sub = self._inject_with_flags(
                    stage, index, entry, x_in[pending]
                )
            out[pending] = sub
            pending = pending[sub_flags]
        return out

    def _tmr_stage(self, stage, index: int, plan,
                   entry: Optional[StruckCycles],
                   x_in: np.ndarray) -> np.ndarray:
        """Temporal TMR on the final classifier: run thrice, vote.

        An odd strike outcome must corrupt two of three runs the same
        way to survive the element-wise median, which independent fault
        sampling makes vanishingly unlikely.  Costs two extra layer
        executions whenever enabled (the runs are serial on the same
        DSP bank).
        """
        n_images = int(x_in.shape[0])
        votes = []
        for _ in range(3):
            codes = self.forward_stage(stage, x_in)
            if entry is not None and entry.count > 0:
                codes = self._apply_stage_faults(stage, index, entry,
                                                 x_in, codes)
            votes.append(np.asarray(codes))
        self.stats.tmr_votes += n_images
        self.stats.tmr_cycles += 2 * plan.cycles * n_images
        stacked = np.stack(votes)
        return np.median(stacked, axis=0).astype(votes[0].dtype)
