"""Campaign orchestration and persistence tests."""

import numpy as np
import pytest

from repro.core import CampaignSpec, DeepStrike, load_campaign, run_campaign, \
    save_campaign
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def small_campaign(lenet_engine_module, victim_module):
    attack = DeepStrike(lenet_engine_module, rng=np.random.default_rng(77))
    spec = CampaignSpec(
        sweeps=(("conv2", (500, 2000)), ("pool1", (80,))),
        blind_counts=(500,),
        eval_images=48,
        seed=3,
    )
    return run_campaign(attack, victim_module.dataset.test_images,
                        victim_module.dataset.test_labels, spec)


@pytest.fixture(scope="module")
def lenet_engine_module():
    from repro.accel import AcceleratorEngine
    from repro.zoo import get_pretrained

    return AcceleratorEngine(get_pretrained().quantized,
                             rng=np.random.default_rng(66))


@pytest.fixture(scope="module")
def victim_module():
    from repro.zoo import get_pretrained

    return get_pretrained()


class TestSpec:
    def test_default_spec_matches_bench(self):
        spec = CampaignSpec.fig5b_default()
        targets = [layer for layer, _ in spec.sweeps]
        assert targets == ["conv1", "conv2", "fc1", "pool1"]
        assert 4500 in dict(spec.sweeps)["conv2"]

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(sweeps=())

    def test_unsorted_counts_rejected(self):
        """Counts must be strictly increasing (blind ones too) and
        targets distinct, or one cell would run or be written twice."""
        for sweeps, blind in (
                ((("conv2", (100, 50)),), ()),
                ((("pool1", (40, 40)),), ()),
                ((("pool1", (40,)),), (1500, 1500)),
                ((("pool1", (40,)),), (4500, 1500))):
            with pytest.raises(ConfigError, match="strictly increasing"):
                CampaignSpec(sweeps=sweeps, blind_counts=blind)
        for sweeps, blind in (
                ((("pool1", (40,)), ("pool1", (80,))), ()),
                ((("blind", (40,)),), (1500,))):
            with pytest.raises(ConfigError, match="distinct"):
                CampaignSpec(sweeps=sweeps, blind_counts=blind)
        # A sweep may be named "blind" when there is no blind baseline.
        CampaignSpec(sweeps=(("blind", (40,)),))


class TestRun:
    def test_all_sweeps_present(self, small_campaign):
        names = [s.target_layer for s in small_campaign.sweeps]
        assert names == ["conv2", "pool1", "blind"]

    def test_clean_accuracy_recorded(self, small_campaign):
        assert 0.9 <= small_campaign.clean_accuracy <= 1.0

    def test_outcomes_per_count(self, small_campaign):
        assert len(small_campaign.sweep("conv2").outcomes) == 2
        assert small_campaign.sweep("conv2").strike_counts == [500, 2000]

    def test_most_sensitive_target(self, small_campaign):
        assert small_campaign.most_sensitive_target() in ("conv2", "blind",
                                                          "pool1")
        drops = small_campaign.max_drops()
        assert drops["pool1"] <= 0.05

    def test_missing_sweep_lookup(self, small_campaign):
        with pytest.raises(ConfigError):
            small_campaign.sweep("fc9")


    def test_spec_bank_size_must_be_the_attacks(self, lenet_engine_module,
                                                victim_module):
        """A spec's bank size is refused unless it is the attack's, so
        no campaign runs at one size and records another."""
        attack = DeepStrike(lenet_engine_module, rng=np.random.default_rng(77))

        def run(bank_cells):
            spec = CampaignSpec(sweeps=(("pool1", (40,)),), eval_images=8,
                                bank_cells=bank_cells, seed=3)
            return run_campaign(attack, victim_module.dataset.test_images,
                                victim_module.dataset.test_labels, spec)

        with pytest.raises(ConfigError, match="20000-cell"):
            run(20000)
        result = run(attack.bank_cells)
        assert result.spec.bank_cells == attack.bank_cells
        assert [len(s.outcomes) for s in result.sweeps] == [1]


class TestPersistence:
    def test_round_trip(self, small_campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(small_campaign, path)
        loaded = load_campaign(path)
        assert loaded.clean_accuracy == small_campaign.clean_accuracy
        assert loaded.spec == small_campaign.spec
        for a, b in zip(loaded.sweeps, small_campaign.sweeps):
            assert a.target_layer == b.target_layer
            assert a.accuracies == b.accuracies

    def test_version_check(self, small_campaign, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        save_campaign(small_campaign, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_campaign(path)
