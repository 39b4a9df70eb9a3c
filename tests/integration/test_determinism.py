"""Seeded determinism across the whole stack.

Reproducibility is the contract that makes simulated experiments
citable: identical seeds must produce identical traces, plans, fault
patterns and accuracies, while different seeds must actually differ.
"""

import numpy as np

from repro.accel import AcceleratorEngine
from repro.core import DeepStrike
from repro.dsp import FaultCharacterization
from repro.nn import build_probe_model, quantize_model
from repro.nn.model import PROBE_INPUT_SHAPE
from repro.testbed import build_attack_testbed
from repro.core import AttackScheme


class TestAttackDeterminism:
    def _attacked_logits(self, victim, seed):
        engine = AcceleratorEngine(victim.quantized,
                                   rng=np.random.default_rng(seed))
        attack = DeepStrike(engine, rng=engine.rng)
        plan = attack.plan_for_layer("conv2", 2000)
        images = victim.dataset.test_images[:24]
        return engine.infer_under_attack(images, plan.struck)

    def test_same_seed_same_outcome(self, victim):
        a = self._attacked_logits(victim, seed=5)
        b = self._attacked_logits(victim, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_faults(self, victim):
        a = self._attacked_logits(victim, seed=5)
        b = self._attacked_logits(victim, seed=6)
        assert not np.array_equal(a, b)

    def test_plan_voltages_deterministic(self, victim):
        engine = AcceleratorEngine(victim.quantized,
                                   rng=np.random.default_rng(1))
        attack = DeepStrike(engine)
        v1 = attack.plan_for_layer("conv2", 500).struck[0].voltages
        v2 = attack.plan_for_layer("conv2", 500).struck[0].voltages
        np.testing.assert_array_equal(v1, v2)


class TestHarnessDeterminism:
    def test_characterization_reproducible(self):
        a = FaultCharacterization(seed=9).run(16000, trials=2000)
        b = FaultCharacterization(seed=9).run(16000, trials=2000)
        assert a.duplication_rate == b.duplication_rate
        assert a.random_rate == b.random_rate

    def test_characterization_seed_sensitivity(self):
        a = FaultCharacterization(seed=9).run(16000, trials=2000)
        b = FaultCharacterization(seed=10).run(16000, trials=2000)
        assert (a.duplication_rate, a.random_rate) \
            != (b.duplication_rate, b.random_rate)


class TestCosimDeterminism:
    def test_testbed_runs_identically(self):
        model = quantize_model(build_probe_model())

        def run(seed):
            tb = build_attack_testbed(model, input_shape=PROBE_INPUT_SHAPE,
                                      seed=seed)
            tb.scheduler.load_scheme(AttackScheme(50, 20, 10))
            return tb.run(3000)

        np.testing.assert_array_equal(run(42), run(42))

    def test_testbed_seed_changes_noise(self):
        model = quantize_model(build_probe_model())

        def run(seed):
            tb = build_attack_testbed(model, input_shape=PROBE_INPUT_SHAPE,
                                      seed=seed)
            tb.scheduler.load_scheme(AttackScheme(50, 20, 10))
            return tb.run(1500)

        assert not np.array_equal(run(42), run(43))
