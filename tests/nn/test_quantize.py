"""Post-training quantization tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, QuantizationError
from repro.nn import (
    Q3_4,
    ReLU,
    Sequential,
    build_lenet5,
    quantize_model,
)
from repro.nn.layers import Dense
from repro.nn.quantize import QConv, QDense, QPool, QTanh


class TestQuantizeModel:
    def test_stage_kinds_preserved(self):
        qm = quantize_model(build_lenet5())
        kinds = [s.kind for s in qm.stages]
        assert kinds == ["conv", "tanh", "pool", "conv", "tanh", "flatten",
                         "dense", "tanh", "dense"]

    def test_weights_within_format(self):
        qm = quantize_model(build_lenet5())
        for stage in qm.stages:
            if hasattr(stage, "w_codes"):
                assert stage.w_codes.min() >= Q3_4.int_min
                assert stage.w_codes.max() <= Q3_4.int_max

    def test_product_scale(self):
        qm = quantize_model(build_lenet5())
        assert qm.product_frac_bits == 8

    def test_unsupported_layer_rejected(self):
        model = Sequential([Dense(4, 2), ReLU()])
        with pytest.raises(QuantizationError):
            quantize_model(model)

    def test_compute_stages(self):
        qm = quantize_model(build_lenet5())
        assert [s.name for s in qm.compute_stages()] == [
            "conv1", "pool1", "conv2", "fc1", "fc2"
        ]

    def test_stage_lookup(self):
        qm = quantize_model(build_lenet5())
        assert isinstance(qm.stage("conv2"), QConv)
        with pytest.raises(ConfigError):
            qm.stage("nope")


class TestQuantizedInference:
    def test_close_to_float_model(self, victim):
        """Quantized predictions should nearly match the float model."""
        images = victim.dataset.test_images[:128]
        float_pred = victim.model.predict(images)
        q_pred = victim.quantized.predict(images)
        agreement = (float_pred == q_pred).mean()
        assert agreement > 0.95

    def test_accuracy_loss_small(self, victim):
        assert victim.float_accuracy - victim.quantized_accuracy < 0.02

    def test_paper_operating_point(self, victim):
        """The paper's model runs at 96.17%; ours must be in that regime."""
        assert victim.quantized_accuracy >= 0.95

    def test_forward_codes_integer(self, victim):
        images = victim.dataset.test_images[:4]
        codes = victim.quantized.forward_codes(
            victim.quantized.quantize_input(images)
        )
        assert codes.dtype == np.int64
        assert codes.shape == (4, 10)

    def test_pool_on_codes_matches_float_pool(self):
        """Max over codes == quantize(max over values) (order preserved)."""
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, size=(2, 3, 4, 4))
        codes = Q3_4.quantize(values)
        pool = QPool("p", kernel=2)
        pooled_codes = pool.forward_codes(codes)
        k = 2
        windows = codes.reshape(2, 3, 2, k, 2, k)
        np.testing.assert_array_equal(pooled_codes, windows.max(axis=(3, 5)))

    def test_tanh_stage_saturates(self):
        qt = QTanh("t", acc_frac_bits=8, act_format=Q3_4)
        big = np.array([10_000, -10_000])  # +-39 real
        out = qt.forward_codes(big)
        np.testing.assert_array_equal(out, [16, -16])  # tanh(+-39) ~ +-1

    def test_dense_stage_math(self):
        qd = QDense("d", w_codes=np.array([[2, -1]]), b_codes=np.array([3]))
        out = qd.forward_codes(np.array([[4, 5]]))
        np.testing.assert_array_equal(out, [[2 * 4 - 5 + 3]])

    def test_probe_model_quantizes(self, probe_quantized):
        assert [s.kind for s in probe_quantized.compute_stages()] == [
            "pool", "conv", "conv"
        ]
