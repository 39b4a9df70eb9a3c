"""Fault-aware engine tests, including scalar-DSP cross-validation."""

import copy
import json
import tracemalloc

import numpy as np
import pytest

from repro.accel import AcceleratorEngine, StruckCycles
from repro.dsp import DSP48Slice, FaultType, TimingFaultModel
from repro.errors import ConfigError
from repro.sensors import GateDelayModel


def strikes(layer, cycles, volts):
    cycles = np.asarray(cycles, dtype=np.int64)
    return StruckCycles(layer, cycles, np.full(cycles.shape, volts))


class TestCleanPath:
    def test_matches_quantized_model(self, lenet_engine, victim):
        images = victim.dataset.test_images[:16]
        np.testing.assert_allclose(
            lenet_engine.infer_clean(images),
            victim.quantized.forward(images),
        )

    def test_attack_with_no_strikes_is_clean(self, lenet_engine, victim):
        images = victim.dataset.test_images[:8]
        out = lenet_engine.infer_under_attack(images, [])
        np.testing.assert_allclose(out, lenet_engine.infer_clean(images))

    def test_strikes_at_nominal_voltage_harmless(self, lenet_engine, victim):
        images = victim.dataset.test_images[:8]
        plan = lenet_engine.schedule.window("conv2").plan
        sc = strikes("conv2", np.arange(0, plan.cycles, 7), 1.0)
        out = lenet_engine.infer_under_attack(images, [sc])
        np.testing.assert_allclose(out, lenet_engine.infer_clean(images))


class TestExactGemm:
    """Under fxp the engine runs conv and dense MACs as float64 GEMMs;
    the int64 ``forward_codes`` chain is the reference they must equal
    exactly."""

    @pytest.fixture(scope="class")
    def cnn7(self):
        from repro.zoo import get_pretrained

        return get_pretrained(model_name="cnn7")

    @pytest.mark.parametrize("name", ["victim", "cnn7"])
    def test_clean_stage_codes_equal_the_int64_chain(self, request, name):
        """Every stage on every test image of LeNet-5 and CNN-7 (in
        batches, to keep the unfolded inputs small)."""
        model = request.getfixturevalue(name).quantized
        images = request.getfixturevalue(name).dataset.test_images
        engine = AcceleratorEngine(model, rng=np.random.default_rng(0))
        for start in range(0, images.shape[0], 250):
            batch = images[start:start + 250]
            codes = engine.clean_stage_codes(batch)
            reference = model.quantize_input(batch)
            assert len(codes) == len(model.stages) + 1
            np.testing.assert_array_equal(codes[0], reference)
            for stage, got in zip(model.stages, codes[1:]):
                reference = stage.forward_codes(reference)
                assert got.dtype == np.int64, stage.name
                np.testing.assert_array_equal(got, reference,
                                              err_msg=stage.name)

    @pytest.mark.parametrize("fill", ["-128", "+127", "mixed"])
    def test_extreme_codes_at_the_largest_fan_in(self, victim, fill):
        """Every weight code at -128 and every input code at an 8-bit
        extreme (all -128, all +127, or a random mix), at fc1's fan-in
        of 1,600 and a conv of the same fan-in, with the 32-bit bias
        format's extremes."""
        from repro.nn.quantize import QConv, QDense

        engine = AcceleratorEngine(victim.quantized,
                                   rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)

        def extreme(shape):
            if fill == "mixed":
                return rng.choice(np.array([-128, 127]), size=shape)
            return np.full(shape, int(fill), dtype=np.int64)

        fan_in = max(s.w_codes[0].size for s in victim.quantized.stages
                     if s.kind in ("conv", "dense"))
        assert fan_in == 1600
        bias = np.array([-(2 ** 31), 2 ** 31 - 1, 0, 7])
        dense = QDense("extreme_dense", np.full((4, fan_in), -128,
                                                dtype=np.int64), bias)
        conv = QConv("extreme_conv", np.full((4, 64, 5, 5), -128,
                                             dtype=np.int64), bias,
                     stride=1, pad=2)
        for stage, x in ((dense, extreme((3, fan_in))),
                         (conv, extreme((3, 64, 7, 7)))):
            got = engine.forward_stage(stage, x)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, stage.forward_codes(x))

    def test_input_past_the_float64_bound_raises(self, victim):
        from repro.errors import SimulationError

        engine = AcceleratorEngine(victim.quantized,
                                   rng=np.random.default_rng(0))
        conv1 = victim.quantized.stage("conv1")
        x = np.zeros((1, 1, 28, 28), dtype=np.int64)
        # conv1's largest absolute weight-row sum is at least 1, so a
        # 2**53 input can round an accumulation.
        x[0, 0, 14, 14] = -(2 ** 53)
        with pytest.raises(SimulationError, match="conv1"):
            engine.forward_stage(conv1, x)


class TestInjection:
    def test_deep_strikes_corrupt_conv_outputs(self, lenet_engine, victim):
        images = victim.dataset.test_images[:8]
        plan = lenet_engine.schedule.window("conv2").plan
        sc = strikes("conv2", np.arange(0, plan.cycles, 3), 0.90)
        out = lenet_engine.infer_under_attack(images, [sc])
        clean = lenet_engine.infer_clean(images)
        assert not np.allclose(out, clean)

    def test_deep_strikes_flip_predictions(self, lenet_engine, victim):
        images = victim.dataset.test_images[:32]
        labels = victim.dataset.test_labels[:32]
        plan = lenet_engine.schedule.window("conv2").plan
        sc = strikes("conv2", np.arange(plan.cycles), 0.90)
        acc = lenet_engine.accuracy_under_attack(images, labels, [sc])
        clean = (lenet_engine.predict_clean(images) == labels).mean()
        assert acc < clean - 0.3

    def test_pool_strikes_mostly_harmless(self, lenet_engine, victim):
        """LUT-fabric pooling has huge slack: same droop, no damage."""
        images = victim.dataset.test_images[:32]
        labels = victim.dataset.test_labels[:32]
        plan = lenet_engine.schedule.window("pool1").plan
        sc = strikes("pool1", np.arange(plan.cycles), 0.93)
        acc = lenet_engine.accuracy_under_attack(images, labels, [sc])
        clean = (lenet_engine.predict_clean(images) == labels).mean()
        assert acc >= clean - 0.05

    def test_duplication_faults_absorbed_in_fc(self, lenet_engine, victim):
        """Paper Section IV-A: duplication faults are 'absorbed by more
        serial summations' in FC layers — forcing every fault to the
        duplication class must leave FC1 essentially unharmed, while the
        same fault count in the random class does real damage."""
        images = victim.dataset.test_images[:48]
        labels = victim.dataset.test_labels[:48]
        clean = (lenet_engine.predict_clean(images) == labels).mean()
        plan = lenet_engine.schedule.window("fc1").plan
        cycles = np.linspace(0, plan.cycles - 1, 3000).astype(int)
        volts = np.full(3000, 0.935)
        dup = StruckCycles("fc1", cycles, volts, force_class="duplication")
        rnd = StruckCycles("fc1", cycles, volts, force_class="random")
        dup_acc = lenet_engine.accuracy_under_attack(images, labels, [dup])
        rnd_acc = lenet_engine.accuracy_under_attack(images, labels, [rnd])
        assert clean - dup_acc <= 0.05
        assert rnd_acc < dup_acc - 0.1

    def test_conv_damage_driven_by_random_faults(self, lenet_engine, victim):
        """Paper Section IV-A: conv damage comes from random faults."""
        images = victim.dataset.test_images[:48]
        labels = victim.dataset.test_labels[:48]
        plan = lenet_engine.schedule.window("conv2").plan
        cycles = np.linspace(0, plan.cycles - 1, 2000).astype(int)
        volts = np.full(2000, 0.94)
        dup = StruckCycles("conv2", cycles, volts, force_class="duplication")
        rnd = StruckCycles("conv2", cycles, volts, force_class="random")
        dup_acc = lenet_engine.accuracy_under_attack(images, labels, [dup])
        rnd_acc = lenet_engine.accuracy_under_attack(images, labels, [rnd])
        assert rnd_acc < dup_acc - 0.1

    def test_forced_class_validation(self):
        with pytest.raises(ConfigError):
            StruckCycles("fc1", np.array([1]), np.array([0.9]),
                         force_class="weird")

    def test_multiple_layers_struck_together(self, lenet_engine, victim):
        """One plan can hit several layers (as blind plans do)."""
        images = victim.dataset.test_images[:16]
        conv1 = lenet_engine.schedule.window("conv1").plan
        conv2 = lenet_engine.schedule.window("conv2").plan
        struck = [
            strikes("conv1", np.arange(0, conv1.cycles, 2), 0.94),
            strikes("conv2", np.arange(0, conv2.cycles, 2), 0.94),
        ]
        both = lenet_engine.infer_under_attack(images, struck)
        only_conv2 = lenet_engine.infer_under_attack(images, struck[1:])
        clean = lenet_engine.infer_clean(images)
        # Striking both corrupts at least as many outputs as one layer.
        assert (both != clean).sum() >= (only_conv2 != clean).sum() * 0.5
        assert not np.allclose(both, clean)

    def test_pool_faults_under_extreme_droop(self, lenet_engine, victim):
        """The pool path does fault eventually — at droop far beyond any
        realizable strike, exercising the dup/random pixel branches."""
        images = victim.dataset.test_images[:6]
        plan = lenet_engine.schedule.window("pool1").plan
        sc = strikes("pool1", np.arange(plan.cycles), 0.70)
        out = lenet_engine.infer_under_attack(images, [sc])
        clean = lenet_engine.infer_clean(images)
        assert not np.allclose(out, clean)

    def test_pool_fault_values_stay_in_activation_range(self, lenet_engine,
                                                        victim):
        images = victim.dataset.test_images[:4]
        codes = victim.quantized.quantize_input(images)
        pool_stage = victim.quantized.stage("pool1")
        # Run the injector directly on the pool output codes.
        conv1 = victim.quantized.stage("conv1")
        tanh1 = victim.quantized.stages[1]
        x = tanh1.forward_codes(conv1.forward_codes(codes))
        pooled = pool_stage.forward_codes(x)
        plan = lenet_engine.schedule.window("pool1").plan
        sc = strikes("pool1", np.arange(plan.cycles), 0.70)
        faulted = lenet_engine._fault_pool(plan, sc, pooled.copy())
        fmt = victim.quantized.act_format
        assert faulted.min() >= fmt.int_min
        assert faulted.max() <= fmt.int_max

    def test_unknown_layer_rejected(self, lenet_engine, victim):
        images = victim.dataset.test_images[:2]
        with pytest.raises(ConfigError):
            lenet_engine.infer_under_attack(
                images, [strikes("conv9", [0], 0.9)]
            )

    def test_duplicate_layer_entries_rejected(self, lenet_engine, victim):
        images = victim.dataset.test_images[:2]
        with pytest.raises(ConfigError):
            lenet_engine.infer_under_attack(
                images,
                [strikes("conv2", [0], 0.9), strikes("conv2", [1], 0.9)],
            )

    def test_cycle_out_of_layer_rejected(self, lenet_engine, victim):
        images = victim.dataset.test_images[:2]
        plan = lenet_engine.schedule.window("conv2").plan
        with pytest.raises(ConfigError):
            lenet_engine.infer_under_attack(
                images, [strikes("conv2", [plan.cycles], 0.9)]
            )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigError):
            StruckCycles("conv2", np.array([1, 2]), np.array([0.9]))

    def test_outcomes_vary_per_image(self, lenet_engine, victim):
        """Fault sampling must be independent across inferences."""
        image = victim.dataset.test_images[:1]
        batch = np.repeat(image, 12, axis=0)
        plan = lenet_engine.schedule.window("conv2").plan
        sc = strikes("conv2", np.arange(0, plan.cycles, 11), 0.935)
        out = lenet_engine.infer_under_attack(batch, [sc])
        assert len({tuple(np.round(row, 6)) for row in out}) > 1


class TestChangedRowForwarding:
    """With clean stage codes, a one-stage strike sends only the image
    rows it changed through the later stages.  Under fxp the logits must
    equal the full forward pass bit for bit from the same engine seed."""

    N_IMAGES = 32
    SEED = 11

    @pytest.fixture(scope="class")
    def setup(self, victim, config):
        from repro.core import DeepStrike

        engine = AcceleratorEngine(victim.quantized, config=config,
                                   rng=np.random.default_rng(5))
        attack = DeepStrike(engine, rng=np.random.default_rng(6))
        images = victim.dataset.test_images[:self.N_IMAGES]
        return engine, attack, images, engine.clean_stage_codes(images)

    def _reseed(self, engine):
        engine.rng.bit_generator.state = \
            np.random.default_rng(self.SEED).bit_generator.state

    @pytest.mark.parametrize("layer, count, forwarded", [
        ("pool1", 140, "none"),   # the LUT pooling path barely faults
        ("fc1", 30, "some"),
        ("conv2", 1500, "all"),
    ])
    def test_matches_full_forward_bit_for_bit(self, setup, monkeypatch,
                                              layer, count, forwarded):
        engine, attack, images, codes = setup
        struck = attack.plan_for_layer(layer, count).struck
        rows = []
        forward = engine.forward_stage

        def counting_forward(stage, x):
            rows.append(x.shape[0])
            return forward(stage, x)

        with monkeypatch.context() as patch:
            patch.setattr(engine, "forward_stage", counting_forward)
            self._reseed(engine)
            fast = engine.infer_under_attack(images, struck,
                                             stage_codes=codes)
        self._reseed(engine)
        full = engine.infer_under_attack(images, struck)
        np.testing.assert_array_equal(fast, full)

        n_forwarded = rows[0] if rows else 0
        if forwarded == "none":
            assert n_forwarded == 0
        elif forwarded == "some":
            assert 0 < n_forwarded < self.N_IMAGES
        else:
            assert n_forwarded == self.N_IMAGES


class TestZeroProbabilitySkip:
    """An all-zero P(fault) pass advances the stream past its fault-test
    uniforms instead of drawing them; every later draw must match."""

    @staticmethod
    def _generator(case):
        if case == "philox":
            return np.random.Generator(np.random.Philox(0))
        rng = np.random.default_rng(0)
        rng.random(3)
        if case == "pending-half":
            # An odd count of 32-bit bounded draws leaves half of a
            # 64-bit output buffered.
            rng.integers(0, 2 ** 18, size=3)
            assert rng.bit_generator.state["has_uint32"]
        return rng

    @staticmethod
    def _state(rng):
        return json.dumps(rng.bit_generator.state, sort_keys=True,
                          default=lambda array: array.tolist())

    @pytest.mark.parametrize("case", ["no-half", "pending-half", "philox"])
    def test_skip_equals_drawing_the_uniforms(self, victim, case):
        skipped, drawn = self._generator(case), self._generator(case)
        engine = AcceleratorEngine(victim.quantized, rng=skipped)
        engine._skip_uniforms(5, 1234)
        drawn.random((5, 1234))
        assert self._state(skipped) == self._state(drawn)
        np.testing.assert_array_equal(
            skipped.integers(0, 2 ** 18, size=5),
            drawn.integers(0, 2 ** 18, size=5))
        assert skipped.random() == drawn.random()


class TestBlockedDraws:
    """The fxp fault test draws its uniforms in row blocks of one reused
    buffer; its sites and the generator's end state must equal those of
    one whole ``(n_images, n_ops)`` draw."""

    N_IMAGES = 7

    @staticmethod
    def _generator(kind):
        bitgen = np.random.Philox(3) if kind == "philox" \
            else np.random.PCG64(3)
        rng = np.random.Generator(bitgen)
        # An odd count of 32-bit bounded draws leaves half of a 64-bit
        # output buffered, which the float64 draws must keep.
        rng.integers(0, 2 ** 18, size=3)
        assert rng.bit_generator.state["has_uint32"]
        return rng

    @staticmethod
    def _exposure(engine):
        # 14 struck conv2 cycles of 32 lanes: 448 exposed ops at
        # P(fault) 0.27.
        plan = engine.schedule.window("conv2").plan
        record = engine._exposure(plan,
                                  strikes("conv2", np.arange(0, 40, 3), 0.93))
        return record, engine._fault_probs(record, engine.dsp_faults)[0]

    @pytest.mark.parametrize("kind", ["pcg64", "philox"])
    @pytest.mark.parametrize("block_rows, rows", [
        (None, N_IMAGES),  # the default block holds the whole batch
        (3, 3),            # several rows a block, a short last block
        (1, 1),            # exactly one row a block
        (0.5, 1),          # a row larger than the block
    ], ids=["default", "three-rows", "one-row", "row-over-block"])
    def test_sites_and_stream_equal_one_whole_draw(self, victim, monkeypatch,
                                                   kind, block_rows, rows):
        engine = AcceleratorEngine(victim.quantized,
                                   rng=self._generator(kind))
        record, p_fault = self._exposure(engine)
        n_ops = p_fault.shape[0]
        if block_rows is not None:
            monkeypatch.setattr(AcceleratorEngine, "_DRAW_BLOCK_BYTES",
                                int(8 * n_ops * block_rows))
        # Rows a block draws from this batch.
        assert min(len(engine._draw_block(n_ops)), self.N_IMAGES) == rows
        ref = copy.deepcopy(engine.rng)
        img, pos = engine._fault_sites(record, engine.dsp_faults,
                                       self.N_IMAGES)
        expected = np.flatnonzero(ref.random((self.N_IMAGES, n_ops))
                                  < p_fault)
        np.testing.assert_array_equal(img * n_ops + pos, expected)
        assert TestZeroProbabilitySkip._state(engine.rng) \
            == TestZeroProbabilitySkip._state(ref)
        # Vacuity guard: sites in the first and the last image.
        assert img[0] == 0 and img[-1] == self.N_IMAGES - 1

    def test_philox_skip_draws_block_by_block(self, victim, monkeypatch):
        engine = AcceleratorEngine(victim.quantized,
                                   rng=self._generator("philox"))
        monkeypatch.setattr(AcceleratorEngine, "_DRAW_BLOCK_BYTES",
                            8 * 1234 * 2)
        ref = copy.deepcopy(engine.rng)
        engine._skip_uniforms(self.N_IMAGES, 1234)
        ref.random((self.N_IMAGES, 1234))
        assert TestZeroProbabilitySkip._state(engine.rng) \
            == TestZeroProbabilitySkip._state(ref)
        assert engine.rng.random() == ref.random()

    def test_attacked_batch_holds_no_draw_matrix(self, victim):
        """One conv2 @ 4,500 batch of 64 images: a whole uniform matrix
        would be 64 x 144,000 float64s (73.7 MB), traced at its peak and,
        in a reused pool, held after the call.  Blocked draws peak at
        55 MB and hold 12 MB; a held matrix peaked at 128 MB and held
        84 MB."""
        from repro.core import DeepStrike

        engine = AcceleratorEngine(victim.quantized,
                                   rng=np.random.default_rng(0))
        plan = DeepStrike(engine, rng=np.random.default_rng(1)) \
            .plan_for_layer("conv2", n_strikes=4500)
        images = victim.dataset.test_images[:64]
        codes = engine.clean_stage_codes(images)
        tracemalloc.start()
        try:
            engine.accuracy_under_attack(images,
                                         victim.dataset.test_labels[:64],
                                         plan.struck, stage_codes=codes)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 90e6, f"traced peak {peak / 1e6:.1f} MB"
        assert held < 40e6, f"held after the call {held / 1e6:.1f} MB"


class TestExposedOps:
    """Unit contract of the vectorized exposure enumeration."""

    @staticmethod
    def _toy_plan():
        # ops=10, lanes=4 -> 3 cycles with a partial (2-op) final cycle.
        from repro.accel.mapper import LayerPlan

        return LayerPlan(name="toy", kind="dense", stage_index=0,
                         in_shape=(5,), out_shape=(2,), ops=10, lanes=4)

    def test_empty_cycle_set_yields_empty_arrays(self, lenet_engine):
        entry = StruckCycles("toy", np.empty(0, dtype=np.int64),
                             np.empty(0))
        ops, volts = lenet_engine._exposed_ops(self._toy_plan(), entry)
        assert ops.shape == (0,) and ops.dtype == np.int64
        assert volts.shape == (0,) and volts.dtype == np.float64

    def test_matches_ops_at_cycle_reference(self, lenet_engine):
        plan = self._toy_plan()
        # Repeated and out-of-order cycles, including the partial final
        # one: order and multiplicity must match the per-cycle reference.
        cycles = np.array([2, 0, 2, 1])
        entry = StruckCycles("toy", cycles,
                             np.array([0.90, 0.91, 0.92, 0.93]))
        ops, volts = lenet_engine._exposed_ops(plan, entry)
        ref_ops, ref_volts = [], []
        for c, v in zip(cycles, entry.voltages):
            start, end = plan.ops_at_cycle(int(c))
            ref_ops.extend(range(start, end))
            ref_volts.extend([v] * (end - start))
        np.testing.assert_array_equal(ops, ref_ops)
        np.testing.assert_array_equal(volts, ref_volts)

    def test_out_of_range_cycle_rejected(self, lenet_engine):
        entry = StruckCycles("toy", np.array([0, 3]), np.array([0.9, 0.9]))
        with pytest.raises(ConfigError, match=r"cycle 3 outside \[0, 3\)"):
            lenet_engine._exposed_ops(self._toy_plan(), entry)

    def test_negative_cycle_rejected(self, lenet_engine):
        entry = StruckCycles("toy", np.array([-1]), np.array([0.9]))
        with pytest.raises(ConfigError, match="outside"):
            lenet_engine._exposed_ops(self._toy_plan(), entry)


class TestScalarCrossValidation:
    """The vectorized injector and the scalar DSP pipeline share one fault
    model; their fault *rates* on identical op streams must agree."""

    def test_fault_rate_agreement_on_dense_stream(self, config):
        rng = np.random.default_rng(123)
        delay_model = GateDelayModel(config.delay)
        volts = 0.93

        # Scalar path: stream random products through a DSP48 pipeline.
        fm_scalar = TimingFaultModel(config.dsp, delay_model,
                                     np.random.default_rng(1))
        dsp = DSP48Slice(config.dsp, fm_scalar)
        trials = 3000
        ops = rng.integers(-100, 100, size=(trials + dsp.depth, 3))
        faults = 0
        outs = []
        for a, b, d in ops:
            outs.append(dsp.clock(int(a), int(b), int(d), voltage=volts))
        expected = [DSP48Slice.compute(int(a), int(b), int(d))
                    for a, b, d in ops]
        wrong = sum(
            1 for k, out in enumerate(outs[dsp.depth:trials + dsp.depth])
            if out.value != expected[k]
        )
        scalar_rate = wrong / trials

        # Vectorized path: same voltage, same fault model.
        fm_vec = TimingFaultModel(config.dsp, delay_model,
                                  np.random.default_rng(2))
        outcomes = fm_vec.decide_array(np.full(trials, volts))
        vec_rate = np.count_nonzero(outcomes != FaultType.NONE) / trials

        assert scalar_rate == pytest.approx(vec_rate, abs=0.04)
