"""Fault-aware accelerator engine.

Executes the quantized model's integer dataflow exactly as
:class:`~repro.nn.QuantizedModel` does — a cross-check test pins the two
to identical outputs when no strikes land — and additionally applies
power-strike faults to the MAC/pool ops the attack schedule exposes.

The injection path mirrors the DSP slice physics op-for-op:

* the ops issued during a struck cycle are exactly
  ``LayerPlan.ops_at_cycle``,
* each exposed op draws a fault decision from the *same*
  :class:`~repro.dsp.TimingFaultModel` the scalar DSP model uses, at the
  struck cycle's rail voltage (plus per-image supply noise),
* a duplication fault substitutes the *previous* op's correct product
  (the stale-pipeline behaviour), a random fault substitutes uniform
  garbage over the DSP product width.

Pooling runs on LUT fabric at the victim clock with generous slack, so
pool ops consult a second fault model with the pool path's timing — they
only fault under far deeper droop, reproducing the paper's finding that
the pooling layer is the least fault-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DSPConfig, SimulationConfig, default_config
from ..errors import ConfigError, SimulationError
from ..nn.ops import im2col
from ..nn.quantize import QConv, QDense, QuantizedModel
from ..sensors.delay import GateDelayModel
from ..dsp.faults import TimingFaultModel
from ..units import ns
from .mapper import LayerPlan, map_model
from .schedule import AcceleratorSchedule

__all__ = ["StruckCycles", "AcceleratorEngine"]

#: Width of the random garbage a random fault writes (DSP product bits).
_RANDOM_FAULT_BITS = 18


@dataclass(frozen=True)
class StruckCycles:
    """Strikes landing inside one layer.

    ``cycles`` are victim-clock cycles *relative to the layer start*;
    ``voltages`` are the deterministic rail voltages at those cycles (the
    attack planner computes them from the PDN model; per-image supply
    noise is added at decision time).
    """

    layer_name: str
    cycles: np.ndarray
    voltages: np.ndarray
    #: Force every fault to one class ("duplication" | "random"); fault
    #: *occurrence* still follows the voltage.  Used by the fault-type
    #: ablation (E8); None reproduces the physical mix.
    force_class: Optional[str] = None

    def __post_init__(self) -> None:
        c = np.asarray(self.cycles)
        v = np.asarray(self.voltages)
        if c.shape != v.shape or c.ndim != 1:
            raise ConfigError("cycles and voltages must be matching 1-D arrays")
        if self.force_class not in (None, "duplication", "random"):
            raise ConfigError(
                f"force_class must be None/'duplication'/'random', "
                f"got {self.force_class!r}"
            )

    @property
    def count(self) -> int:
        return int(np.asarray(self.cycles).shape[0])


def _pool_path_config(dsp: DSPConfig, victim_frequency_hz: float) -> DSPConfig:
    """Timing config of the LUT-fabric pooling path: single-rate clock,
    much shorter path, hence far more slack than the DDR DSP path."""
    return dc_replace(
        dsp,
        pipeline_depth=2,
        ddr_frequency_hz=victim_frequency_hz,
        critical_path_nominal=ns(6.5),
    )


def uniform_rows(rng: np.random.Generator, n_rows: int, block: np.ndarray):
    """Draw ``rng.random((n_rows, n_cols))`` into ``block``, a reused
    ``(rows, n_cols)`` float64 array, ``rows`` rows at a time: yields
    ``(first_row, drawn rows)``, the last block short if need be.

    Contiguous row-major blocks consume exactly the stream of the one
    whole draw, so blocking moves no output byte; it keeps each block in
    cache while its caller reads it, and no draw matrix is allocated.
    """
    for row in range(0, n_rows, block.shape[0]):
        yield row, rng.random(out=block[:n_rows - row])


class AcceleratorEngine:
    """Integer inference with schedule-aligned fault injection."""

    def __init__(self, model: QuantizedModel,
                 config: Optional[SimulationConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 input_shape: Tuple[int, ...] = (1, 28, 28)) -> None:
        self.config = (config or default_config()).validate()
        self.model = model
        self.input_shape = input_shape
        self.rng = rng if rng is not None else np.random.default_rng(
            self.config.seed
        )
        self.plans: List[LayerPlan] = map_model(model, self.config.accel,
                                                input_shape)
        self.schedule = AcceleratorSchedule(self.plans, self.config.accel)
        delay_model = GateDelayModel(self.config.delay)
        self.dsp_faults = TimingFaultModel(self.config.dsp, delay_model, self.rng)
        self.pool_faults = TimingFaultModel(
            _pool_path_config(self.config.dsp,
                              self.config.clock.victim_frequency_hz),
            delay_model,
            self.rng,
        )
        self._plan_by_name: Dict[str, LayerPlan] = {p.name: p for p in self.plans}
        # Per-stage float64 GEMM weight/bias twins, built lazily.
        self._gemm_cache: Dict[str, tuple] = {}
        # The one reused buffer of the fxp dense draws (the fault test,
        # the razor, the non-PCG64 skip), one row block at a time: see
        # _draw_block and uniform_rows.
        self._draw_buf = np.empty(0)
        # Exposure records keyed on (layer, struck cycles, voltages):
        # the exposed ops and per-cycle voltages plus the per-kind
        # gather indices derived from them.  Campaign cells re-evaluate
        # one strike pattern over the whole test set, so the hit rate is
        # extremely high.
        self._exposure_cache: Dict[tuple, dict] = {}
        # Single-slot cache of clean per-stage activation codes, keyed
        # on the *identity* of the images array (campaigns evaluate one
        # fixed test slice over and over).
        self._stage_cache: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None

    #: Exposure-cache entries kept before the cache is dropped wholesale.
    _EXPOSURE_CACHE_MAX = 64

    #: Bytes of one row block of the fxp dense draws: about half of a
    #: 2 MiB per-core L2 cache, so a block is read while still cached.
    _DRAW_BLOCK_BYTES = 1 << 20

    # -- clean path ----------------------------------------------------------

    def infer_clean(self, images: np.ndarray) -> np.ndarray:
        """Fault-free logits (identical to ``model.forward``)."""
        return self.model.forward(images)

    def predict_clean(self, images: np.ndarray) -> np.ndarray:
        return self.model.predict(images)

    def clean_stage_codes(self, images: np.ndarray) -> List[np.ndarray]:
        """Clean activation codes at every stage boundary, cached.

        ``codes[0]`` is the quantized input; ``codes[i + 1]`` is stage
        ``i``'s output.  The result is cached per *images array
        identity* (one slot), which lets a campaign compute the clean
        forward pass once and share it across every cell; callers must
        treat the returned arrays as read-only.
        """
        cache = self._stage_cache
        if cache is not None and cache[0] is images:
            return cache[1]
        codes = self.model.quantize_input(images)
        out = [codes]
        for stage in self.model.stages:
            codes = self.forward_stage(stage, codes)
            out.append(codes)
        self._stage_cache = (images, out)
        return out

    def _gemm_params(self, stage) -> tuple:
        """``(weights, bias, row_sum, bias_max)`` of a MAC stage: the
        ``(OUT, fan-in)`` weight matrix and the bias in float64, the
        largest absolute weight-row sum and the largest absolute bias
        code."""
        cached = self._gemm_cache.get(stage.name)
        if cached is None:
            w_mat = stage.w_codes.reshape(stage.w_codes.shape[0], -1)
            cached = (w_mat.astype(np.float64),
                      stage.b_codes.astype(np.float64),
                      int(np.abs(w_mat).sum(axis=1).max()),
                      int(np.abs(stage.b_codes).max()))
            self._gemm_cache[stage.name] = cached
        return cached

    #: Every integer below this magnitude is exact in float64.
    _EXACT_F64 = 1 << 53

    def forward_stage(self, stage, codes: np.ndarray) -> np.ndarray:
        """One clean stage forward, equal to the int64 reference
        ``stage.forward_codes``.

        Conv and dense stages run as one float64 GEMM (im2col first for
        a conv) cast back to int64, exact by construction: every product
        and partial sum is an integer no larger than the input's largest
        magnitude times the stage's largest absolute weight-row sum, so
        while that bound plus the largest bias stays below 2**53 (below
        2**25 for 8-bit codes at the victims' fan-in of at most 1,600)
        nothing rounds, whatever order or FMA fusion BLAS picks.  The
        bound is checked on every call; an input that breaks it raises
        :class:`SimulationError`, with no int64 fallback.  Both dtype
        policies, both engines, the clamp calibration and the arms-race
        clean predictions run on it.
        """
        kind = stage.kind
        if kind not in ("conv", "dense"):
            return stage.forward_codes(codes)
        w_mat, bias, row_sum, bias_max = self._gemm_params(stage)
        if codes.size:
            peak = max(int(codes.max()), -int(codes.min()))
            if peak * row_sum + bias_max >= self._EXACT_F64:
                raise SimulationError(
                    f"{stage.name}: input codes up to {peak} can "
                    f"round a float64 accumulation")
        x = codes.astype(np.float64, copy=False)
        if kind == "conv":
            cols, out_h, out_w = im2col(x, stage.w_codes.shape[-1],
                                        stage.stride, stage.pad)
            acc = cols @ w_mat.T
        else:
            acc = x @ w_mat.T
        acc += bias
        acc = acc.astype(np.int64)
        if kind == "conv":
            return acc.reshape(codes.shape[0], out_h, out_w,
                               -1).transpose(0, 3, 1, 2)
        return acc

    # -- attacked path ----------------------------------------------------------

    def infer_under_attack(self, images: np.ndarray,
                           struck: Sequence[StruckCycles],
                           stage_codes: Optional[List[np.ndarray]] = None,
                           ) -> np.ndarray:
        """Logits with the given strikes applied to every inference.

        The strike *timing* repeats each inference (the detector re-arms
        per image and the schedule is deterministic); the fault *outcomes*
        are sampled independently per image.

        ``stage_codes`` (from :meth:`clean_stage_codes` on the same
        images) lets the engine skip recomputing every stage upstream of
        the first struck layer — the fault pattern and RNG stream are
        unaffected, since injection only consumes randomness at struck
        layers.  With exactly one struck stage, only the image rows the
        strike changed run through the later stages
        (:meth:`_forward_changed_rows`).
        """
        by_layer = self._index_strikes(struck)
        first = 0
        codes: Optional[np.ndarray] = None
        if stage_codes is None:
            codes = self.model.quantize_input(images)
        else:
            live = [entry for entry in by_layer.values() if entry.count > 0]
            if not live:
                return self._dequantize_scores(stage_codes[-1])
            if len(live) == 1:
                return self._dequantize_scores(
                    self._forward_changed_rows(live[0], stage_codes))
            first = min(self._plan_by_name[entry.layer_name].stage_index
                        for entry in live)
        for index, stage in enumerate(self.model.stages):
            if index < first:
                continue
            if stage_codes is not None and index == first:
                x_in = stage_codes[index]
                # The injectors mutate their accumulator in place; hand
                # them a private copy of the cached clean output.
                codes = stage_codes[index + 1].copy()
            else:
                x_in = codes
                codes = self.forward_stage(stage, codes)
            entry = by_layer.get(getattr(stage, "name", ""))
            if entry is None or entry.count == 0:
                continue
            codes = self._apply_stage_faults(stage, index, entry, x_in, codes)
        return self._dequantize_scores(codes)

    def _forward_changed_rows(self, entry: StruckCycles,
                              stage_codes: List[np.ndarray]) -> np.ndarray:
        """Final codes of a one-stage strike, forwarding only the rows
        it changed.

        The injector writes into a copy of the struck stage's cached
        clean output.  A row that comes out identical to its clean row
        is clean all the way down — every later stage is row-independent
        and draws no randomness — so it takes its cached clean final
        codes, and only the changed rows run through the later stages.
        Every stage is exact integer arithmetic, so the result is
        bit-identical to forwarding the whole batch.  The pooling
        layer rarely faults (Fig 5(b)), so its cells usually forward
        nothing.
        """
        index = self._plan_by_name[entry.layer_name].stage_index
        stage = self.model.stages[index]
        clean_out = stage_codes[index + 1]
        codes = self._apply_stage_faults(stage, index, entry,
                                         stage_codes[index], clean_out.copy())
        n_images = codes.shape[0]
        changed = np.flatnonzero(
            (codes != clean_out).reshape(n_images, -1).any(axis=1))
        if changed.size == 0:
            return stage_codes[-1]
        if changed.size < n_images:
            codes = codes[changed]
        for later in self.model.stages[index + 1:]:
            codes = self.forward_stage(later, codes)
        if changed.size == n_images:
            return codes
        final = stage_codes[-1].copy()
        final[changed] = codes
        return final

    def _index_strikes(self, struck: Sequence[StruckCycles]
                       ) -> Dict[str, StruckCycles]:
        """Validate and index a strike sequence by target layer."""
        by_layer: Dict[str, StruckCycles] = {}
        for entry in struck:
            if entry.layer_name not in self._plan_by_name:
                raise ConfigError(f"no layer named '{entry.layer_name}'")
            if entry.layer_name in by_layer:
                raise ConfigError(
                    f"duplicate strike set for layer '{entry.layer_name}'"
                )
            by_layer[entry.layer_name] = entry
        return by_layer

    def _apply_stage_faults(self, stage, index: int, entry: StruckCycles,
                            x_in: np.ndarray,
                            codes: np.ndarray) -> np.ndarray:
        """Inject one layer's strikes into its freshly computed codes.

        ``x_in`` is the layer's input (its rollback checkpoint); ``codes``
        is ``forward_stage(stage, x_in)``, possibly mutated in place.
        """
        plan = self._plan_by_name[entry.layer_name]
        if plan.stage_index != index:
            raise SimulationError("plan/stage index mismatch")
        if plan.kind == "conv":
            return self._fault_conv(stage, plan, entry, x_in, codes)
        if plan.kind == "dense":
            return self._fault_dense(stage, plan, entry, x_in, codes)
        if plan.kind == "pool":
            return self._fault_pool(plan, entry, codes)
        return codes

    def _dequantize_scores(self, codes: np.ndarray) -> np.ndarray:
        """Final accumulator codes -> real-valued logits."""
        scale = 2.0 ** (-self.model.product_frac_bits)
        return np.asarray(codes, dtype=np.float64) * scale

    def _observe_fault_sites(self, n_images: int, n_ops: int,
                             img: np.ndarray, pos: np.ndarray,
                             dup: np.ndarray) -> None:
        """Hook: one injection batch's sparse fault sites, right after
        the class split is decided and before any further draws.

        ``(img, pos)`` index the faulted (image, exposed-op) sites in
        image-major order; ``dup`` is their duplication/random split.
        The base engine ignores them; the hardened engine's razor
        watches this batched stream
        (:class:`~repro.defense.HardenedAcceleratorEngine`).
        """
        return None

    def predict_under_attack(self, images: np.ndarray,
                             struck: Sequence[StruckCycles],
                             stage_codes: Optional[List[np.ndarray]] = None,
                             ) -> np.ndarray:
        logits = self.infer_under_attack(images, struck,
                                         stage_codes=stage_codes)
        return np.argmax(logits, axis=1)

    def accuracy_under_attack(self, images: np.ndarray, labels: np.ndarray,
                              struck: Sequence[StruckCycles],
                              stage_codes: Optional[List[np.ndarray]] = None,
                              ) -> float:
        """Top-1 accuracy with strikes applied to every inference,
        evaluated in batches of ``config.accel.eval_batch_size`` (the
        batch boundaries are part of the RNG stream)."""
        batch_size = self.config.accel.eval_batch_size
        correct = 0
        for start in range(0, images.shape[0], batch_size):
            window = slice(start, start + batch_size)
            batch_codes = None if stage_codes is None \
                else [c[window] for c in stage_codes]
            preds = self.predict_under_attack(images[window], struck,
                                              stage_codes=batch_codes)
            correct += int((preds == labels[window]).sum())
        return correct / images.shape[0]

    # -- exposure helpers ----------------------------------------------------------

    def _exposed_ops(self, plan: LayerPlan,
                     entry: StruckCycles) -> Tuple[np.ndarray, np.ndarray]:
        """(op indices, per-op voltages) exposed by the struck cycles.

        Vectorized over the whole cycle set; an empty set yields empty
        int64/float64 arrays.  Out-of-window cycles are rejected with
        the same :class:`ConfigError` ``LayerPlan.ops_at_cycle`` raises.
        """
        cycles = np.asarray(entry.cycles, dtype=np.int64)
        voltages = np.asarray(entry.voltages, dtype=np.float64)
        if cycles.size == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        bad = (cycles < 0) | (cycles >= plan.cycles)
        if np.any(bad):
            cycle = int(cycles[np.argmax(bad)])
            raise ConfigError(
                f"{plan.name}: cycle {cycle} outside [0, {plan.cycles})"
            )
        starts = cycles * plan.lanes
        counts = np.minimum(starts + plan.lanes, plan.ops) - starts
        ends = np.cumsum(counts)
        lane = np.arange(int(ends[-1]), dtype=np.int64) \
            - np.repeat(ends - counts, counts)
        ops = np.repeat(starts, counts) + lane
        return ops, np.repeat(voltages, counts)

    def _exposure(self, plan: LayerPlan, entry: StruckCycles) -> dict:
        """Cached exposure record for one ``(plan, strike pattern)``.

        Holds the exposed ops, the per-cycle voltages and op counts,
        plus whatever per-kind gather indices the injectors lazily
        attach.  Keyed by value (cycle and voltage bytes), so equal
        strike patterns share one record no matter how many
        StruckCycles instances carry them.
        """
        cycles = np.ascontiguousarray(entry.cycles, dtype=np.int64)
        voltages = np.ascontiguousarray(entry.voltages, dtype=np.float64)
        key = (plan.name, cycles.tobytes(), voltages.tobytes())
        record = self._exposure_cache.get(key)
        if record is None:
            if len(self._exposure_cache) >= self._EXPOSURE_CACHE_MAX:
                self._exposure_cache.clear()
            ops, _ = self._exposed_ops(plan, entry)
            starts = cycles * plan.lanes
            counts = np.minimum(starts + plan.lanes, plan.ops) - starts \
                if cycles.size else np.empty(0, dtype=np.int64)
            record = {"ops": ops, "cycle_volts": voltages,
                      "counts": counts, "probs": {}}
            self._exposure_cache[key] = record
        return record

    def _cycle_probs(self, record: dict,
                     model: TimingFaultModel) -> Tuple[np.ndarray, np.ndarray]:
        """Per-struck-cycle ``(P(fault), P(dup | fault))`` under ``model``.

        The quadrature (supply noise marginalized analytically — see
        :meth:`TimingFaultModel.fault_probabilities`) runs once per
        (exposure record, fault model); keyed by model identity because
        the hardened engine swaps in replay twins with a divided clock.
        """
        cache = record.setdefault("cycle_probs", {})
        cached = cache.get(model)
        if cached is None:
            cached = model.fault_probabilities(
                record["cycle_volts"], self.config.pdn.noise_sigma_v
            )
            cache[model] = cached
        return cached

    def _fault_probs(self, record: dict,
                     model: TimingFaultModel) -> Tuple[np.ndarray, np.ndarray]:
        """Per-exposed-op ``(P(fault), P(dup | fault))``: the per-cycle
        quadrature of :meth:`_cycle_probs` expanded to op granularity."""
        cached = record["probs"].get(model)
        if cached is None:
            pf, pd = self._cycle_probs(record, model)
            cached = (np.repeat(pf, record["counts"]),
                      np.repeat(pd, record["counts"]))
            record["probs"][model] = cached
        return cached

    #: Per-cycle fault probabilities at/above this are treated as 1.0 by
    #: the sparse sampler (bounds its Poisson rate; bias <= 1e-9).
    _SPARSE_FULL_P = 1.0 - 1e-9

    def _sparse_candidates(self, record: dict, model: TimingFaultModel,
                           n_images: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fault-candidate ``(img, pos)`` sites without the dense
        uniform matrix — the fp32 policy's fault test.

        Exact Poisson thinning of the Bernoulli process: over a block of
        ``B`` trials at constant probability ``p``, draw ``K ~
        Poisson(B * lam)`` positions uniformly *with replacement*, where
        ``lam = -ln(1 - p)``, and deduplicate.  Each position then
        carries an independent ``Poisson(lam)`` hit count, so it is
        marked with probability exactly ``1 - exp(-lam) = p``,
        independently of every other position — the same per-op fault
        law as the reference's dense ``u < p`` threshold, at ~``p``
        draws per trial instead of one.  Exposure probabilities are
        constant within a struck cycle, so blocks are per-cycle, and
        positions are exact integer draws over each block.  The
        *stream* differs from the dense test's (distribution-identical,
        not byte-identical).  Returned sites are sorted row-major,
        matching the dense test's order.
        """
        plan = record.setdefault("sparse", {}).get(model)
        if plan is None:
            pf_c, _ = self._cycle_probs(record, model)
            counts = np.asarray(record["counts"], dtype=np.int32)
            offsets = (np.cumsum(counts) - counts).astype(np.int32)
            full = pf_c >= self._SPARSE_FULL_P
            lam = -np.log1p(-np.where(full, 0.0, pf_c))
            width = int(counts[0]) if counts.size \
                and bool(np.all(counts == counts[0])) else 0
            plan = (lam, full, counts, offsets, width)
            record["sparse"][model] = plan
        lam, full, counts, offsets, width = plan
        n_ops = int(record["ops"].shape[0])
        empty = np.empty(0, dtype=np.int64)
        if n_ops == 0:
            return empty, empty
        # The flat (img, op) index space tops out at n_images * n_ops
        # (a few million) — int32 throughout halves the sort bandwidth.
        block = counts * n_images
        m = self.rng.poisson(block * lam)
        total = int(m.sum())
        flats = []
        if total:
            cyc = np.repeat(np.arange(counts.shape[0], dtype=np.int32), m)
            if width:
                # Every struck cycle exposes the same op count (the full
                # lane set, the common exposure): one scalar-bound draw,
                # several times cheaper than per-cycle bounds.
                span = np.int32(width)
                loc = self.rng.integers(0, width * n_images, size=total,
                                        dtype=np.int32)
                offset = cyc * span
            else:
                span = counts[cyc]
                loc = self.rng.integers(0, block[cyc], dtype=np.int32)
                offset = offsets[cyc]
            img_part = loc // span
            flats.append(img_part * np.int32(n_ops) + offset
                         + (loc - img_part * span))
        if np.any(full):
            # Saturated cycles: every exposed op of every image faults.
            fcols = np.concatenate([
                np.arange(offsets[c], offsets[c] + counts[c],
                          dtype=np.int32)
                for c in np.flatnonzero(full)
            ])
            flats.append((np.arange(n_images, dtype=np.int32)[:, None]
                          * np.int32(n_ops) + fcols[None, :]).reshape(-1))
        if not flats:
            return empty, empty
        flat = flats[0] if len(flats) == 1 else np.concatenate(flats)
        # Dedupe + sort by hand: np.unique's hash path is ~40x slower
        # than a plain sort on these integer index arrays, and a
        # site-space bitmap scatter/scan loses to the sort even at the
        # heaviest banks (the scan pays for the whole 9M-site space;
        # the sort only for the ~2M draws).
        flat = np.sort(flat)
        if flat.size > 1:
            flat = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
        img = flat // np.int32(n_ops)
        return img, flat - img * np.int32(n_ops)

    def _draw_block(self, n_ops: int) -> np.ndarray:
        """The reused draw buffer as one ``(rows, n_ops)`` float64 block
        of at most ``_DRAW_BLOCK_BYTES`` (at least one row), for
        :func:`uniform_rows`.  The fault test is done with it once a
        block's sites are taken, so the razor draws into it next."""
        rows = max(1, self._DRAW_BLOCK_BYTES // (8 * max(n_ops, 1)))
        if self._draw_buf.size < rows * n_ops:
            self._draw_buf = np.empty(rows * n_ops)
        return self._draw_buf[:rows * n_ops].reshape(rows, n_ops)

    def _skip_uniforms(self, n_images: int, n_ops: int) -> None:
        """Move the stream past ``n_images * n_ops`` float64 uniforms
        without drawing them.

        A PCG64 generator advances by that many 64-bit outputs, one per
        float64 draw.  ``advance`` also drops the generator's buffered
        32-bit half-word, which an odd count of ``integers(0, 2**18)``
        draws leaves set and which drawing doubles keeps, so the half
        is put back.  Any other bit generator draws and discards, one
        block at a time.
        """
        bitgen = self.rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            for _ in uniform_rows(self.rng, n_images,
                                  self._draw_block(n_ops)):
                pass
            return
        before = bitgen.state
        bitgen.advance(n_images * n_ops)
        if before["has_uint32"]:
            after = bitgen.state
            after["has_uint32"] = before["has_uint32"]
            after["uinteger"] = before["uinteger"]
            bitgen.state = after

    def _fault_sites(self, record: dict, model: TimingFaultModel,
                     n_images: int) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate fault sites ``(img, pos)`` of one injection batch
        under ``model``, in row-major (image-major) order.

        The dtype policy selects how this test draws, and nothing else
        in the engine reads it.  fxp: one uniform per (image, exposed
        op) against ``P(fault)``, step 1 of the stream contract
        (docs/performance.md §2).  When ``P(fault)`` is exactly 0 for
        every exposed op (a divided-clock replay at positive slack), no
        uniform can fall below it: the stream is advanced past the
        draws instead (:meth:`_skip_uniforms`), which leaves every
        later draw unchanged.  fp32: :meth:`_sparse_candidates`.
        """
        if self.config.dtype_policy == "fp32":
            return self._sparse_candidates(record, model, n_images)
        p_fault = self._fault_probs(record, model)[0]
        n_ops = p_fault.shape[0]
        if not (n_images and p_fault.any()):
            self._skip_uniforms(n_images, n_ops)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Each block is compared while it is still in cache.
        # flatnonzero walks the mask once in the same row-major order
        # np.nonzero produces, without its per-axis index pass; a floor
        # division by the scalar n_ops splits it faster than np.divmod.
        flats = [np.flatnonzero(u < p_fault) + row * n_ops for row, u in
                 uniform_rows(self.rng, n_images, self._draw_block(n_ops))]
        flat = flats[0] if len(flats) == 1 else np.concatenate(flats)
        img = flat // n_ops
        return img, flat - img * n_ops

    def _mac_faults_batch(self, record: dict, n_images: int, products,
                          force_class: Optional[str] = None
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse accumulator error terms for a batch's exposed MAC ops.

        ``products(img, pos)`` gathers ``(p_cur, p_prev)`` for candidate
        fault sites only — the hot path never materializes the dense
        ``(n_images, n_ops)`` product matrices per call.  Returns
        ``(img, pos, delta)`` triplets of the ops that actually faulted.

        Two data-dependence effects gate the damage, both consequences
        of timing faults only corrupting *transitioning* bits:

        * an op whose product equals the previous op's (typically both
          zero — sparse image inputs in conv1) excites no transition and
          cannot fault at all;
        * random-fault garbage spans only the toggling bit-width, so its
          magnitude is bounded by a small multiple of the operand
          products, not the full 48-bit register.

        RNG stream (the batched contract of docs/performance.md): one
        uniform per (image, exposed op) for the fault test (advanced
        past, not drawn, when every ``P(fault)`` is 0; see
        :meth:`_fault_sites`), one uniform per surviving fault for the
        duplication/random split, then one garbage-word draw per
        random-class fault; the razor hook
        (:meth:`_observe_fault_sites`) fires once per batch, after the
        split.  The ``fp32`` dtype policy replaces only the dense fault
        test, with :meth:`_sparse_candidates`.
        """
        p_dup = self._fault_probs(record, self.dsp_faults)[1]
        n_ops = p_dup.shape[0]
        img, pos = self._fault_sites(record, self.dsp_faults, n_images)
        p_cur = p_prev = np.empty(0, dtype=np.int64)
        if img.size:
            p_cur, p_prev = products(img, pos)
            # The split and garbage draws run per *transitioning* op, so
            # the filter is part of the stream (and of the per-op
            # observe accounting).
            keep = p_cur != p_prev
            img, pos = img[keep], pos[keep]
            p_cur, p_prev = p_cur[keep], p_prev[keep]
        dup = self.rng.random(img.size) < p_dup[pos]
        if force_class is not None:
            dup[:] = force_class == "duplication"
        self._observe_fault_sites(n_images, n_ops, img, pos, dup)
        # The duplication law for every site — random-class entries are
        # overwritten below, so no select is needed here.
        delta = p_prev - p_cur
        # Integer, not boolean, indices: the random class is a scattered
        # ~40 % of the sites, where a boolean mask's branchy copy costs
        # several times flatnonzero + take.
        rnd = np.flatnonzero(~dup)
        if rnd.size:
            word = (1 << _RANDOM_FAULT_BITS) - 1
            sign = 1 << (_RANDOM_FAULT_BITS - 1)
            cur = p_cur[rnd]
            u_cur = cur & np.int64(word)
            u_prev = p_prev[rnd] & np.int64(word)
            # Bits above the highest toggling bit are settled; below it,
            # anything may be captured.  A sign flip toggles the whole
            # word (two's complement), yielding large garbage.
            toggling = u_cur ^ u_prev
            width = np.frexp(toggling.astype(np.float32))[1] \
                .astype(np.int64)
            mask = (np.int64(1) << width) - np.int64(1)
            rand_bits = self.rng.integers(0, word + 1, size=rnd.size)
            captured = (u_cur & ~mask) | (rand_bits & mask)
            captured = (captured ^ np.int64(sign)) - np.int64(sign)
            delta[rnd] = captured - cur
        return img, pos, delta

    # -- per-kind injectors ----------------------------------------------------------

    @staticmethod
    def _scatter_add(flat_acc: np.ndarray, img: np.ndarray,
                     targets: np.ndarray, delta: np.ndarray) -> None:
        """Accumulate sparse per-op deltas into a ``(n_images, n_out)``
        view.  Several ops can share one output, so the adds go through
        an (exact, integer-valued) bincount rather than buffered fancy
        indexing.
        """
        if img.size == 0:
            return
        flat_idx = img * flat_acc.shape[1] + targets
        flat_acc += np.bincount(
            flat_idx, weights=delta, minlength=flat_acc.size
        ).astype(flat_acc.dtype).reshape(flat_acc.shape)

    def _fault_conv(self, stage: QConv, plan: LayerPlan, entry: StruckCycles,
                    x_codes: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Inject into a convolution's accumulators.

        Op enumeration (matching the schedule): for each output pixel
        ``r`` (row-major), each output channel ``o``, each kernel element
        ``j`` (im2col column order): ``op = (r*OC + o)*K + j``.

        The *previous* product a slice holds — the one a duplication
        fault delivers, and the transition partner for eligibility — is
        the op issued ``lanes`` earlier (same slice, previous cycle), not
        ``op - 1``; ops in a layer's first cycle follow idle slices
        (previous product 0).

        Candidate products are gathered straight from the zero-padded
        layer input: no cell unfolds its batch.  The exposure record's
        gather dict keeps each exposed op's flat offset into one padded
        input image, taken from the stage's ``(r, j)`` offset table —
        the im2col of an image of element indices, so the two orders
        cannot drift apart.
        """
        # The conv GEMM returns a transposed (non-contiguous) view whose
        # reshape would silently copy; make it contiguous so the reshaped
        # accumulator view below aliases the array we return.
        acc = np.ascontiguousarray(acc)
        n_images = acc.shape[0]
        oc = acc.shape[1]
        r_total = acc.shape[2] * acc.shape[3]
        pad = stage.pad
        x_pad = np.pad(x_codes, ((0, 0), (0, 0), (pad, pad), (pad, pad))) \
            if pad else np.ascontiguousarray(x_codes)
        image_size = int(np.prod(x_pad.shape[1:]))
        w_mat = stage.w_codes.reshape(oc, -1)
        k_total = w_mat.shape[1]

        record = self._exposure(plan, entry)
        gather = record.get("conv")
        if gather is None:
            index_image = np.arange(image_size).reshape((1,) + x_pad.shape[1:])
            table = im2col(index_image, stage.w_codes.shape[-1],
                           stage.stride, 0)[0].reshape(-1)
            ops = record["ops"]
            r_idx = ops // (oc * k_total)
            rem = ops % (oc * k_total)
            o_idx = rem // k_total
            j_idx = rem % k_total
            prev = np.maximum(ops - plan.lanes, 0)
            no_prev = ops < plan.lanes
            prem = prev % (oc * k_total)
            pr_idx = prev // (oc * k_total)
            po_idx = prem // k_total
            pj_idx = prem % k_total
            gather = {
                # Input gathers as flat offsets into a padded image: one
                # take per product instead of a multi-array fancy index.
                "x": table[r_idx * k_total + j_idx],
                "px": table[pr_idx * k_total + pj_idx],
                "w_cur": w_mat[o_idx, j_idx],
                # A zero weight zeroes the previous product exactly
                # where the slice was idle (layer's first cycle).
                "w_prev": np.where(no_prev, 0, w_mat[po_idx, pj_idx]),
                "targets": o_idx * r_total + r_idx,
            }
            record["conv"] = gather

        flat_x = x_pad.reshape(n_images * image_size)
        g = gather

        def products(img, pos):
            base = img * image_size
            p_cur = np.take(flat_x, base + g["x"][pos]) * g["w_cur"][pos]
            p_prev = np.take(flat_x, base + g["px"][pos]) * g["w_prev"][pos]
            return p_cur, p_prev

        img, pos, delta = self._mac_faults_batch(record, n_images, products,
                                                 entry.force_class)
        self._scatter_add(acc.reshape(n_images, -1), img,
                          g["targets"][pos], delta)
        return acc

    def _fault_dense(self, stage: QDense, plan: LayerPlan, entry: StruckCycles,
                     x_codes: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Inject into a fully connected layer's accumulators.

        Op enumeration: output-neuron major, input-feature minor
        (``op = o*IN + j``) — the serial accumulation the paper
        describes.  As with conv, a slice's previous product is the op
        ``lanes`` earlier.
        """
        out_f, in_f = stage.w_codes.shape
        record = self._exposure(plan, entry)
        gather = record.get("dense")
        if gather is None:
            ops = record["ops"]
            o_idx = ops // in_f
            j_idx = ops % in_f
            prev = np.maximum(ops - plan.lanes, 0)
            no_prev = ops < plan.lanes
            po_idx = prev // in_f
            pj_idx = prev % in_f
            gather = {
                "j": j_idx,
                "w_cur": stage.w_codes[o_idx, j_idx],
                "pj": pj_idx,
                "w_prev": np.where(no_prev, 0, stage.w_codes[po_idx, pj_idx]),
                "targets": o_idx,
            }
            record["dense"] = gather

        n_images = x_codes.shape[0]
        flat_x = np.ascontiguousarray(x_codes).reshape(n_images * in_f)
        g = gather

        def products(img, pos):
            base = img * in_f
            p_cur = np.take(flat_x, base + g["j"][pos]) * g["w_cur"][pos]
            p_prev = np.take(flat_x, base + g["pj"][pos]) * g["w_prev"][pos]
            return p_cur, p_prev

        img, pos, delta = self._mac_faults_batch(record, n_images, products,
                                                 entry.force_class)
        self._scatter_add(acc, img, g["targets"][pos], delta)
        return acc

    def _fault_pool(self, plan: LayerPlan, entry: StruckCycles,
                    out: np.ndarray) -> np.ndarray:
        """Inject into pooling outputs (LUT path: rarely faults).

        Op enumeration: channel-major output pixels
        (``op = (c*OH + y)*OW + x``).  Duplication repeats the previous
        pixel's value; random writes garbage within the activation range.
        """
        # Multi-axis reductions can hand back non-contiguous arrays whose
        # reshape would silently copy; realign so the flat view aliases
        # the array we return.
        out = np.ascontiguousarray(out)
        n_images = out.shape[0]
        flat = out.reshape(n_images, -1)
        total = flat.shape[1]
        record = self._exposure(plan, entry)
        ops = record["ops"]
        prev = record.get("pool_prev")
        if prev is None:
            prev = np.maximum(ops - 1, 0)
            record["pool_prev"] = prev
        act = self.model.act_format

        n_ops = ops.shape[0]
        p_dup = self._fault_probs(record, self.pool_faults)[1]
        img, pos = self._fault_sites(record, self.pool_faults, n_images)
        is_dup = self.rng.random(img.size) < p_dup[pos]
        self._observe_fault_sites(n_images, n_ops, img, pos, is_dup)
        if img.size == 0:
            return out
        fop = ops[pos]
        if np.any(fop >= total):
            raise SimulationError("pool op index outside the feature map")
        # All reads land before any write, matching the per-image
        # gather-then-scatter of the scalar reference.
        dup_vals = flat[img, prev[pos]]
        rand_vals = self.rng.integers(act.int_min, act.int_max + 1,
                                      size=img.size)
        flat[img, fop] = np.where(is_dup, dup_vals, rand_vals)
        return out
