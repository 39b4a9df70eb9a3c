"""Detect-and-contain building blocks of the hardened victim runtime.

Three pieces, composed by :class:`~repro.defense.HardenedAcceleratorEngine`
(see docs/defense.md):

* :class:`RazorDetector` — razor-style shadow latches on the DSP capture
  edges.  The main latch captures on the DDR edge; a shadow latch
  captures a configured delay later and a comparator flags mismatches.
  A *shallow* timing miss (the duplication class of
  :class:`~repro.dsp.TimingFaultModel`) settles inside the shadow
  window, so the comparator catches it with high probability; a *deep*
  miss (the random class) can corrupt the shadow sample too, so
  coverage is lower.  Both coverages live in
  :class:`~repro.config.RecoveryConfig`.  The dtype policy selects how
  the coverage test draws — one uniform per (faulted image, exposed op)
  under ``fxp``, one per faulted site under ``fp32`` — and nothing
  else.
* :class:`ActivationClamp` — per-layer output ranges learned from clean
  calibration runs.  Undetected random faults inject garbage whose
  magnitude dwarfs anything the layer legitimately produces; clamping
  to the calibrated envelope bounds the damage a survivor can do.
* :class:`RecoveryStats` — the runtime's accounting: razor flags,
  rollback replays and their cycle cost, clamped values, TMR votes, and
  budget exhaustions, plus the headline ``overhead_fraction``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..accel.engine import uniform_rows
from ..config import RecoveryConfig
from ..dsp.faults import FaultType
from ..errors import ConfigError
from ..nn.quantize import QuantizedModel

__all__ = ["RazorDetector", "ActivationClamp", "StageBounds",
           "RecoveryStats"]


class RazorDetector:
    """Shadow-latch comparison over one image's exposed-op fault stream.

    Coverage is sampled per faulted op from the class-conditional
    probabilities in :class:`~repro.config.RecoveryConfig` — the razor
    analogue of the violation-depth split the fault model itself uses
    (shallow misses are caught, deep ones may escape).
    """

    def __init__(self, config: RecoveryConfig,
                 rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self.rng = rng
        self.stats = {"dup_seen": 0, "dup_flagged": 0,
                      "random_seen": 0, "random_flagged": 0}

    def reset(self) -> None:
        """Zero the coverage counters (a study reuses one detector
        across cells; the RNG stream is the caller's to reseed)."""
        self.stats = {"dup_seen": 0, "dup_flagged": 0,
                      "random_seen": 0, "random_flagged": 0}

    def observe(self, types: np.ndarray) -> bool:
        """True if the shadow latches flag any op in this stream.

        Ops that did not fault excite no main/shadow mismatch and never
        draw randomness, so clean traffic leaves the RNG stream (and the
        runtime) untouched.
        """
        types = np.asarray(types)
        dup = types == FaultType.DUPLICATION
        rnd = types == FaultType.RANDOM
        n_dup = int(np.count_nonzero(dup))
        n_rnd = int(np.count_nonzero(rnd))
        if n_dup + n_rnd == 0:
            return False
        self.stats["dup_seen"] += n_dup
        self.stats["random_seen"] += n_rnd
        draws = self.rng.random(types.shape)
        dup_hit = dup & (draws < self.config.razor_dup_coverage)
        rnd_hit = rnd & (draws < self.config.razor_random_coverage)
        self.stats["dup_flagged"] += int(np.count_nonzero(dup_hit))
        self.stats["random_flagged"] += int(np.count_nonzero(rnd_hit))
        return bool(np.any(dup_hit) or np.any(rnd_hit))

    def observe_batch_dense(self, n_images: int, n_ops: int,
                            img: np.ndarray, pos: np.ndarray,
                            dup_mask: np.ndarray,
                            scratch: np.ndarray) -> np.ndarray:
        """Batched :meth:`observe` over a whole injection batch's sparse
        fault sites — byte-identical RNG stream to the per-image loop.

        ``(img, pos)`` are the faulted sites in row-major (image-major)
        order and ``dup_mask`` their class split.  The per-image
        reference draws ``rng.random(n_ops)`` for each image with at
        least one faulted op, in image order, and nothing for fault-free
        images; one draw of ``k * n_ops`` uniforms consumes the
        *identical* stream as ``k`` sequential row draws, so one batched
        draw over the faulted images reproduces the reference stream
        exactly (pinned by ``tests/defense/test_defense_parity.py``).

        The draws go to ``scratch``, one reused ``(rows, n_ops)`` float64
        block whose contents are overwritten (the engine's draw block):
        the ``(k, n_ops)`` draw runs ``rows`` rows at a time
        (:func:`~repro.accel.engine.uniform_rows`), and each block's
        sites take their draws before the next block is drawn.

        Returns a ``(n_images,)`` bool array of per-image razor flags.
        """
        flags = np.zeros(n_images, dtype=bool)
        if img.size == 0:
            return flags
        n_dup = int(np.count_nonzero(dup_mask))
        self.stats["dup_seen"] += n_dup
        self.stats["random_seen"] += int(img.size) - n_dup
        # Sites arrive image-major, so each run of one image index is
        # one faulted image, in image order: the site's run number r is
        # the row the reference drew for that image.
        new_run = np.empty(img.size, dtype=bool)
        new_run[0] = True
        np.not_equal(img[1:], img[:-1], out=new_run[1:])
        flat = np.cumsum(new_run)
        n_rows = int(flat[-1])
        flat -= 1
        flat *= n_ops
        flat += pos
        # The flat indices are sorted: one searchsorted cuts them at the
        # block edges.
        rows = scratch.shape[0]
        cuts = np.searchsorted(flat, np.arange(0, n_rows + rows, rows)
                               * n_ops).tolist()
        site_draws = np.empty(flat.size)
        for i, (row, block) in enumerate(uniform_rows(self.rng, n_rows,
                                                      scratch)):
            sites = slice(cuts[i], cuts[i + 1])
            block.reshape(-1).take(flat[sites] - row * n_ops,
                                   out=site_draws[sites])
        coverage = np.where(dup_mask, self.config.razor_dup_coverage,
                            self.config.razor_random_coverage)
        hit = site_draws < coverage
        n_dup_hit = int(np.count_nonzero(hit & dup_mask))
        self.stats["dup_flagged"] += n_dup_hit
        self.stats["random_flagged"] += int(np.count_nonzero(hit)) - n_dup_hit
        flags[img[hit]] = True
        return flags

    def observe_batch_sparse(self, n_images: int, img: np.ndarray,
                             dup_mask: np.ndarray) -> np.ndarray:
        """Sparse batched observation (the ``fp32`` policy's razor):
        one float64 draw per faulted site instead of one per (flagged
        image, exposed op).

        Coverage is per *site*, exactly the law the reference applies —
        a non-faulted op can never flag, so its draw is pure stream
        ballast.  The stream therefore differs from
        :meth:`observe_batch_dense` (distribution-identical decisions,
        different draws), which the ``fxp`` policy keeps.
        """
        flags = np.zeros(n_images, dtype=bool)
        if img.size == 0:
            return flags
        n_dup = int(np.count_nonzero(dup_mask))
        self.stats["dup_seen"] += n_dup
        self.stats["random_seen"] += int(img.size) - n_dup
        coverage = np.where(dup_mask, self.config.razor_dup_coverage,
                            self.config.razor_random_coverage)
        hit = self.rng.random(img.size) < coverage
        n_dup_hit = int(np.count_nonzero(hit & dup_mask))
        self.stats["dup_flagged"] += n_dup_hit
        self.stats["random_flagged"] += int(np.count_nonzero(hit)) - n_dup_hit
        flags[img[hit]] = True
        return flags


@dataclass(frozen=True)
class StageBounds:
    """Calibrated clean output range of one compute stage (code units)."""

    lo: int
    hi: int

    @property
    def span(self) -> int:
        return self.hi - self.lo


class ActivationClamp:
    """Per-layer range containment learned from clean calibration runs."""

    def __init__(self, bounds: Dict[str, StageBounds],
                 margin: float = 0.0) -> None:
        if not bounds:
            raise ConfigError("activation clamp needs at least one layer")
        if margin < 0:
            raise ConfigError("clamp margin must be >= 0")
        self.bounds = dict(bounds)
        self.margin = margin

    @classmethod
    def calibrate(cls, model: QuantizedModel, images: np.ndarray,
                  margin: float = 0.0,
                  forward: Optional[Callable] = None) -> "ActivationClamp":
        """Run clean inference and record every compute stage's output
        range (conv/dense accumulators at product scale, pool outputs at
        activation scale).

        ``forward(stage, codes)`` runs one stage; the default is the
        int64 reference chain (``stage.forward_codes``).  The hardened
        engine passes its exact float64 GEMM forward
        (:meth:`~repro.accel.AcceleratorEngine.forward_stage`), which
        gives the same codes.
        """
        images = np.asarray(images)
        if images.ndim < 3 or images.shape[0] < 1:
            raise ConfigError("calibration needs a non-empty image batch")
        codes = model.quantize_input(images)
        bounds: Dict[str, StageBounds] = {}
        for stage in model.stages:
            codes = stage.forward_codes(codes) if forward is None \
                else forward(stage, codes)
            if getattr(stage, "kind", "") in ("conv", "dense", "pool"):
                bounds[stage.name] = StageBounds(int(codes.min()),
                                                int(codes.max()))
        return cls(bounds, margin)

    def limits(self, layer_name: str) -> Tuple[int, int]:
        """Effective (lo, hi) clamp limits for one layer."""
        try:
            b = self.bounds[layer_name]
        except KeyError:
            raise ConfigError(
                f"no calibrated bounds for layer '{layer_name}'"
            ) from None
        pad = int(np.ceil(self.margin * max(b.span, 1)))
        return b.lo - pad, b.hi + pad

    def apply(self, layer_name: str,
              codes: np.ndarray) -> Tuple[np.ndarray, int]:
        """Clamp one layer's output codes; returns (codes, #clamped)."""
        lo, hi = self.limits(layer_name)
        clipped = np.clip(codes, lo, hi)
        return clipped, int(np.count_nonzero(clipped != codes))


@dataclass
class RecoveryStats:
    """Cumulative accounting of one hardened engine's recovery work."""

    images: int = 0
    base_cycles: int = 0       # schedule cycles of the inferences served
    razor_flags: int = 0       # images flagged by the shadow latches
    forced_replays: int = 0    # replays forced by droop-monitor alarms
    replays: int = 0           # (layer, image) rollback replays executed
    replay_cycles: int = 0     # victim cycles spent inside replays
    tmr_votes: int = 0         # images voted through the TMR final FC
    tmr_cycles: int = 0        # victim cycles spent on redundant FC runs
    clamped_values: int = 0    # accumulator values pulled into range
    exhausted: int = 0         # (layer, image) replay budgets exhausted
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def overhead_fraction(self) -> float:
        """Recovery latency overhead: extra cycles / baseline cycles."""
        if self.base_cycles <= 0:
            return 0.0
        return (self.replay_cycles + self.tmr_cycles) / self.base_cycles

    def as_dict(self) -> Dict[str, float]:
        out = asdict(self)
        out.pop("extra")
        out["overhead_fraction"] = self.overhead_fraction
        return out
