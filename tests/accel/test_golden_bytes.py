"""Golden bytes: both tiers' output pinned to digests recorded once.

Every other byte test compares two paths that share one arithmetic
(serial against workers, cached against computed, resumed against
uninterrupted), so a deterministic slip in the engine's forward pass or
its injection gather would pass them all.  These digests were recorded
from the int64 forward pass and the im2col injection gather; a change
that moves one byte of either tier's campaign JSON, or of the attacked
scores beneath it, fails here.

The campaign's 16 images keep every cell at full accuracy, so its JSON
pins the strike pricing and the clean pass; the attacked scores pin the
injected arithmetic itself, whose faults move scores long before they
move a prediction.

The defended digests pin the hardened engine (razor, divided-clock
replay, TMR) the same way: a small ``repro defend`` grid as campaign
JSON, and the recovery and razor counts of one continuing stream per
defense, on which each replay pass's stream position feeds the next
full-rate pass.

The fp32 policy runs fxp's forward and injector and differs only in
how the fault test and the razor draw, so its attacked digests pin its
sparse draws on top of fxp's code; an fp32 engine given fxp's dense
fault test must give fxp's attacked-score bytes.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.accel import AcceleratorEngine
from repro.config import default_config
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core.campaign import _to_json
from repro.defense import ArmsRaceStudy, HardenedAcceleratorEngine, resolve_defense

SPEC = CampaignSpec(sweeps=(("conv1", (500,)), ("conv2", (1500,)),
                            ("fc1", (500,)), ("pool1", (40,))),
                    blind_counts=(1500,), eval_images=16, seed=0)

CAMPAIGN_DIGESTS = {
    "fxp": "f566a0c41ec7c0b857d9ca648e78826a2756a892e8778812ab69d0a00cac41b4",
    "fp32": "f566a0c41ec7c0b857d9ca648e78826a2756a892e8778812ab69d0a00cac41b4",
}

SCORE_DIGESTS = {
    "fxp": "5cc7ca5f3c4b4d7327010bce38d547d7868df750b224e3f8adb9e0025574d013",
    "fp32": "200a2a865944a28ea9dc1addccf80d96f3d9a98de5c8634374805948fbad16cf",
}

ARMS_BANKS = (3000, 8000)
ARMS_DEFENSES = ("none", "recover", "tmr")
ARMS_STRIKES = 4500

ARMS_CAMPAIGN_DIGESTS = {
    "fxp": "9a87ad0c9cf58290195da1a0dad330945cf70649855a2bd31d689a67c4f9c87f",
    "fp32": "4a1209ca7d0f557429f28f5826cde7aa738d2d3c2c31d0c9a6f25ca9ddb9e806",
}

DEFENDED_STREAM_DIGESTS = {
    "fxp": "010a0e87d8dbd1276cde3917772031dddda08266f5110b12d40bec9cef5d8b3b",
    "fp32": "f6efd854a85d365a432db8a285de07e04e2ad7bf8e9a545cec6adc3875542606",
}


def digest(data: bytes) -> str:
    return hashlib.blake2s(data).hexdigest()


@pytest.fixture(scope="module")
def victim():
    from repro.zoo import get_pretrained

    return get_pretrained()


def fresh_attack(victim, dtype):
    config = dataclasses.replace(default_config(), dtype_policy=dtype)
    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(0))
    return DeepStrike(engine, rng=np.random.default_rng(1))


@pytest.mark.parametrize("dtype", ["fxp", "fp32"])
def test_campaign_json_matches_recorded_digest(victim, dtype):
    result = run_campaign(fresh_attack(victim, dtype),
                          victim.dataset.test_images,
                          victim.dataset.test_labels, SPEC)
    text = _to_json(result, complete=True)
    assert digest(text.encode()) == CAMPAIGN_DIGESTS[dtype]


def attacked_scores_digest(victim, dtype):
    """Each of the spec's layer cells, then all four layers at once,
    through the full forward pass on one continuing engine stream."""
    attack = fresh_attack(victim, dtype)
    engine = attack.engine
    images = victim.dataset.test_images[:SPEC.eval_images]
    clean = engine.infer_clean(images)
    plans = [attack.plan_for_layer(layer, counts[0]).struck
             for layer, counts in SPEC.sweeps]
    scores = [engine.infer_under_attack(images, struck) for struck in plans]
    scores.append(engine.infer_under_attack(
        images, [entry for struck in plans for entry in struck]))
    # Every MAC layer's strikes moved some score (pool1@40 rarely
    # faults); the digest would otherwise pin only the clean pass.
    for layer_scores in scores[:3] + scores[4:]:
        assert not np.array_equal(layer_scores, clean)
    return digest(b"".join(np.ascontiguousarray(s, dtype=np.float64)
                           .tobytes() for s in scores))


@pytest.mark.parametrize("dtype", ["fxp", "fp32"])
def test_attacked_scores_match_recorded_digest(victim, dtype):
    assert attacked_scores_digest(victim, dtype) == SCORE_DIGESTS[dtype]


def test_fp32_with_the_dense_fault_test_gives_fxp_bytes(victim,
                                                        monkeypatch):
    """The dtype policy selects only how the fault test draws: with the
    sparse sampler swapped for a dense ``u < p`` draw, fp32 reproduces
    fxp's attacked scores byte for byte."""
    def dense_candidates(engine, record, model, n_images):
        p_fault = engine._fault_probs(record, model)[0]
        u = engine.rng.random((n_images, p_fault.shape[0]))
        return np.nonzero(u < p_fault)

    monkeypatch.setattr(AcceleratorEngine, "_sparse_candidates",
                        dense_candidates)
    assert attacked_scores_digest(victim, "fp32") == SCORE_DIGESTS["fxp"]


@pytest.mark.parametrize("dtype", ["fxp", "fp32"])
def test_arms_campaign_json_matches_recorded_digest(victim, dtype):
    attack = fresh_attack(victim, dtype)
    images = victim.dataset.test_images[:SPEC.eval_images]
    labels = victim.dataset.test_labels[:SPEC.eval_images]
    spec = ArmsRaceStudy(victim.quantized, images, labels,
                         config=attack.config).campaign_spec(
        [(bank, ARMS_STRIKES) for bank in ARMS_BANKS],
        [(label, resolve_defense(label)) for label in ARMS_DEFENSES])
    text = _to_json(run_campaign(attack, images, labels, spec),
                    complete=True)
    assert digest(text.encode()) == ARMS_CAMPAIGN_DIGESTS[dtype]


@pytest.mark.parametrize("dtype", ["fxp", "fp32"])
def test_defended_stream_matches_recorded_digest(victim, dtype):
    """conv2 strikes at 3000, 8000, then 3000 cells again on one
    continuing hardened-engine stream per defense: the scores, the
    recovery stats and the razor's coverage counts."""
    images = victim.dataset.test_images[:SPEC.eval_images]
    planner = fresh_attack(victim, dtype).engine
    plans = {bank: DeepStrike(planner, bank, np.random.default_rng(1))
             .plan_for_layer("conv2", ARMS_STRIKES).struck
             for bank in ARMS_BANKS}
    blobs = []
    for label in ("recover", "tmr"):
        config = dataclasses.replace(default_config(), dtype_policy=dtype,
                                     recovery=resolve_defense(label))
        engine = HardenedAcceleratorEngine(victim.quantized, config,
                                           np.random.default_rng(0))
        engine.calibrate(images)
        for bank in ARMS_BANKS + ARMS_BANKS[:1]:
            scores = engine.infer_under_attack(images, plans[bank])
            blobs.append(np.ascontiguousarray(scores, dtype=np.float64)
                         .tobytes())
        # Vacuity guard: the razor flagged images and they replayed.
        assert engine.stats.replays > 0
        blobs.append(json.dumps([engine.stats.as_dict(), engine.razor.stats],
                                sort_keys=True).encode())
    assert digest(b"".join(blobs)) == DEFENDED_STREAM_DIGESTS[dtype]
