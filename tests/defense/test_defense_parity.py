"""Differential parity: the batched defended engine vs its references.

Two tiers, mirroring ``tests/accel/test_backend_parity.py``:

* **exact bytes** — under the fxp dtype policy the batched razor
  observation path (``observe_batch_dense`` fed by the engine's
  ``_observe_fault_sites`` hook) must be bit-identical, outputs *and*
  stats, to the pre-batching per-image reference: one
  ``RazorDetector.observe`` call per image of each batch.  The
  vectorization may not move a byte.
* **pinned tolerance** — the fp32 policy runs fxp's forward, injector
  and recovery and differs only in how the fault test and the razor
  draw (sparse per-site draws: distribution-identical, a different
  stream), so defended arms-race cell metrics are pinned to a small
  tolerance of the fxp reference instead.

Plus the cross-cell reuse contract: a warm :class:`ArmsRaceStudy`
(engines, plans, and clean traces cached across cells) must reproduce a
cold study's cells exactly, in any order.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.accel.engine import StruckCycles
from repro.config import RecoveryConfig, default_config
from repro.defense import HardenedAcceleratorEngine, RazorDetector
from repro.defense.evaluation import ArmsRaceStudy, resolve_defense
from repro.dsp.faults import FaultType
from repro.nn.model import PROBE_INPUT_SHAPE

MID_DROOP_V = 0.935
DEEP_DROOP_V = 0.90
#: Same per-cell attacked-accuracy tolerance the backend parity suite
#: pins the fp32 tier to (worst observed delta 0.05; broken is 0.3+).
ACCURACY_TOL = 0.08
STRIKES = 4500


class LegacyHardened(HardenedAcceleratorEngine):
    """The pre-batching reference engine: the razor observes each
    image's dense fault-type row with one ``RazorDetector.observe``
    call, in image order, fault-free images included."""

    def _observe_fault_sites(self, n_images, n_ops, img, pos, dup):
        if self._capture is None:
            return
        if not self.config.recovery.razor_enabled:
            self._capture.append(np.zeros(n_images, dtype=bool))
            return
        types = np.zeros((n_images, n_ops), dtype=np.int8)
        types[img, pos] = np.where(dup, FaultType.DUPLICATION,
                                   FaultType.RANDOM)
        self._capture.append(np.array(
            [self.razor.observe(row) for row in types], dtype=bool))


class DrawingHardened(HardenedAcceleratorEngine):
    """Draws and discards an all-zero pass's fault-test uniforms instead
    of advancing the stream past them."""

    def _skip_uniforms(self, n_images, n_ops):
        self.rng.random((n_images, n_ops))


def _images(n=8, seed=5):
    return np.random.default_rng(seed).random((n,) + PROBE_INPUT_SHAPE)


def _strikes(layer="conv3x3", n_cycles=6, voltage=MID_DROOP_V):
    cycles = np.arange(n_cycles)
    return [StruckCycles(layer, cycles, np.full(n_cycles, voltage))]


def _engine(cls, model, recovery=None, seed=1, calibrate=None,
            input_shape=PROBE_INPUT_SHAPE):
    config = default_config()
    if recovery is not None:
        config = replace(config, recovery=recovery)
    engine = cls(model, config, np.random.default_rng(seed), input_shape)
    if calibrate is not None:
        engine.calibrate(calibrate)
    return engine


def _pair(model, recovery=None, seed=1, calibrate=None,
          input_shape=PROBE_INPUT_SHAPE):
    """(batched, legacy) engines in identical starting states."""
    return (_engine(HardenedAcceleratorEngine, model, recovery, seed,
                    calibrate, input_shape),
            _engine(LegacyHardened, model, recovery, seed, calibrate,
                    input_shape))


class TestBatchedVsPerImageReference:
    """fxp tier: vectorized detect/replay may not move a byte."""

    def test_mid_droop_recovery_bit_identical(self, probe_quantized):
        images = _images(n=16)
        batched, legacy = _pair(probe_quantized, calibrate=images)
        out_b = batched.infer_under_attack(images, _strikes())
        out_l = legacy.infer_under_attack(images, _strikes())
        assert np.array_equal(out_b, out_l)
        assert batched.stats.as_dict() == legacy.stats.as_dict()
        # Vacuity guard: the attack bit and the recovery machinery ran.
        assert batched.stats.razor_flags > 0
        assert batched.stats.replays > 0

    def test_deep_droop_exhaustion_bit_identical(self, probe_quantized):
        recovery = RecoveryConfig(replay_clock_divisor=1,
                                  max_replays_per_layer=2,
                                  exhaustion_policy="accept")
        images = _images(n=8)
        batched, legacy = _pair(probe_quantized, recovery, seed=3,
                                calibrate=images)
        strikes = _strikes(n_cycles=8, voltage=DEEP_DROOP_V)
        assert np.array_equal(batched.infer_under_attack(images, strikes),
                              legacy.infer_under_attack(images, strikes))
        assert batched.stats.as_dict() == legacy.stats.as_dict()
        assert batched.stats.exhausted > 0

    def test_multi_layer_strikes_bit_identical(self, probe_quantized):
        images = _images(n=12, seed=8)
        batched, legacy = _pair(probe_quantized, seed=7, calibrate=images)
        strikes = _strikes("conv3x3") + _strikes("conv1x1", n_cycles=4)
        assert np.array_equal(batched.infer_under_attack(images, strikes),
                              legacy.infer_under_attack(images, strikes))
        assert batched.stats.as_dict() == legacy.stats.as_dict()

    def test_lenet_victim_bit_identical(self, victim):
        """The real victim drives the batched path through its largest
        exposure records."""
        images = victim.dataset.test_images[:32]
        batched, legacy = _pair(victim.quantized, seed=2,
                                calibrate=images, input_shape=(1, 28, 28))
        strikes = _strikes("conv2")
        out_b = batched.infer_under_attack(images, strikes)
        out_l = legacy.infer_under_attack(images, strikes)
        assert np.array_equal(out_b, out_l)
        assert batched.stats.as_dict() == legacy.stats.as_dict()
        assert batched.stats.razor_flags > 0


class TestZeroProbabilityReplay:
    """A divided-clock replay pass whose P(fault) is 0 on every exposed
    op skips its fault-test draws; nothing else may move."""

    def test_all_zero_replay_equals_an_explicit_draw(self, victim,
                                                     monkeypatch):
        images = victim.dataset.test_images[:16]
        skipping = _engine(HardenedAcceleratorEngine, victim.quantized,
                           seed=4, calibrate=images, input_shape=(1, 28, 28))
        drawing = _engine(DrawingHardened, victim.quantized, seed=4,
                          calibrate=images, input_shape=(1, 28, 28))
        skips = []
        skip = skipping._skip_uniforms
        monkeypatch.setattr(skipping, "_skip_uniforms",
                            lambda *shape: (skips.append(shape),
                                            skip(*shape)))
        strikes = _strikes("conv2")
        # Twice: the second pass draws from where the first one's
        # replay left the stream.
        for _ in range(2):
            assert np.array_equal(
                skipping.infer_under_attack(images, strikes),
                drawing.infer_under_attack(images, strikes))
        assert skipping.stats.as_dict() == drawing.stats.as_dict()
        assert skipping.razor.stats == drawing.razor.stats
        assert skipping.rng.bit_generator.state \
            == drawing.rng.bit_generator.state
        # Vacuity guard: replays ran, and they took the skip.
        assert skipping.stats.replays > 0
        assert skips


class TestRazorBatchVsPerImage:
    """``observe_batch_dense`` against per-image ``observe`` calls, one
    per image of the batch, on one detector stream each; the batched
    draw runs in row blocks of its ``scratch``."""

    @pytest.mark.parametrize("faulted, n_images, block_rows", [
        ((0, 2, 3, 6), 7, 7),  # fault-free images 1, 4 and 5 between
        ((0,), 1, 1),          # a one-image batch
        # Three rows a block for four faulted images: the second block
        # is short, and the sites of images 3 and 6 (draw rows 2 and 3)
        # sit on both sides of its edge.
        ((0, 2, 3, 6), 7, 3),
    ], ids=["gaps", "one-image", "block-edge"])
    def test_batch_equals_per_image_observe(self, faulted, n_images,
                                            block_rows):
        n_ops = 300
        rng = np.random.default_rng(len(faulted))
        types = np.zeros((n_images, n_ops), dtype=np.int8)
        for n in faulted:
            sites = rng.choice(n_ops, size=40, replace=False)
            types[n, sites] = rng.choice(
                [FaultType.DUPLICATION, FaultType.RANDOM], size=40)
        img, pos = np.nonzero(types)
        batched = RazorDetector(RecoveryConfig(), np.random.default_rng(9))
        reference = RazorDetector(RecoveryConfig(),
                                  np.random.default_rng(9))
        flags = batched.observe_batch_dense(
            n_images, n_ops, img, pos,
            types[img, pos] == FaultType.DUPLICATION,
            scratch=np.full((block_rows, n_ops), 0.5))
        expected = [reference.observe(row) for row in types]
        assert flags.tolist() == expected
        assert batched.stats == reference.stats
        assert batched.rng.random() == reference.rng.random()
        # Vacuity guard: some image flagged, some did not.
        assert any(expected) and (n_images == 1 or not all(expected))


class TestFp32Tier:
    """fp32 tier: distribution-identical, pinned by tolerance."""

    def _cells(self, victim, dtype):
        config = replace(default_config(), dtype_policy=dtype)
        study = ArmsRaceStudy(victim.quantized,
                              victim.dataset.test_images[:96],
                              victim.dataset.test_labels[:96],
                              config=config, seed=7)
        return study.sweep([(5500, STRIKES)])

    @pytest.mark.parametrize("dtype", ["fxp", "fp32"])
    def test_clean_predictions_equal_the_int64_reference(self, victim,
                                                         dtype):
        config = replace(default_config(), dtype_policy=dtype)
        images = victim.dataset.test_images[:96]
        study = ArmsRaceStudy(victim.quantized, images,
                              victim.dataset.test_labels[:96],
                              config=config)
        np.testing.assert_array_equal(study.clean_predictions(),
                                      victim.quantized.predict(images))

    def test_defended_cell_metrics_within_tolerance(self, victim):
        ref = self._cells(victim, "fxp")
        fast = self._cells(victim, "fp32")
        assert [(c.bank_cells, c.defense) for c in ref] == \
            [(c.bank_cells, c.defense) for c in fast]
        for a, b in zip(ref, fast):
            # The clean pass draws nothing and both policies run one
            # forward — the clean tier owes exactness.
            assert a.clean_accuracy == b.clean_accuracy
            delta = abs(a.attacked_accuracy - b.attacked_accuracy)
            assert delta <= ACCURACY_TOL, \
                f"{a.defense}@{a.bank_cells}: fp32 attacked accuracy " \
                f"off by {delta:.4f} (tol {ACCURACY_TOL})"


class TestCrossCellReuse:
    """A warm study's cached engines/plans/traces change no results."""

    def _study(self, victim, seed=3):
        return ArmsRaceStudy(victim.quantized,
                             victim.dataset.test_images[:64],
                             victim.dataset.test_labels[:64],
                             seed=seed)

    def test_warm_sweep_reproduces_cold_sweep_exactly(self, victim):
        grid = [(3000, STRIKES), (5500, STRIKES)]
        study = self._study(victim)
        cold = study.sweep(grid)
        warm = study.sweep(grid)  # every engine/plan/trace now cached
        assert [asdict(c) for c in warm] == [asdict(c) for c in cold]

    def test_cell_seeds_are_order_independent(self, victim):
        recovery = resolve_defense("recover")
        cold = self._study(victim).run_cell(5500, STRIKES, recovery,
                                            label="recover")
        warm_study = self._study(victim)
        warm_study.run_cell(3000, STRIKES)  # consume engine RNG first
        warm = warm_study.run_cell(5500, STRIKES, recovery,
                                   label="recover")
        assert asdict(warm) == asdict(cold)
