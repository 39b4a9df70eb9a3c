"""Resumable-campaign tests: atomic writes, isolation, byte-identical resume."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CampaignSpec,
    CellFailure,
    DeepStrike,
    load_campaign,
    run_campaign,
    save_campaign,
)
from repro.core.campaign import FORMAT_VERSION, _to_json
from repro.core.evaluation import AttackOutcome
from repro.errors import ConfigError, ProfilingError

from .jsonfuzz import JSON_VALUES, ill_typed, replaced, value_paths


@pytest.fixture(scope="module")
def victim():
    from repro.zoo import get_pretrained

    return get_pretrained()


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(sweeps=(("pool1", (40, 80)),), blind_counts=(40,),
                        eval_images=16, seed=5)


def fresh_attack(victim):
    from repro.accel import AcceleratorEngine

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(66))
    return DeepStrike(engine, rng=np.random.default_rng(77))


def run(victim, spec, **kwargs):
    return run_campaign(fresh_attack(victim), victim.dataset.test_images,
                        victim.dataset.test_labels, spec, **kwargs)


@pytest.fixture(scope="module")
def checkpoint_text(victim, small_spec):
    """A real mid-campaign checkpoint of the small spec."""
    return _to_json(run(victim, small_spec), complete=False)


@pytest.fixture(scope="module")
def damaged_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ck.json"


class TestAtomicPersistence:
    def test_save_leaves_no_temp_files(self, victim, small_spec, tmp_path):
        result = run(victim, small_spec)
        out = tmp_path / "campaign.json"
        save_campaign(result, out)
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]
        payload = json.loads(out.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["complete"] is True

    def test_failed_write_cleans_up_temp(self, tmp_path, monkeypatch):
        from repro.core import campaign as mod

        def boom(fd, mode):
            raise OSError("disk on fire")

        monkeypatch.setattr(mod.os, "fdopen", boom)
        with pytest.raises(OSError):
            mod._atomic_write_text(tmp_path / "x.json", "{}")
        assert list(tmp_path.iterdir()) == []

    def test_v1_files_still_load(self, victim, small_spec, tmp_path):
        result = run(victim, small_spec)
        payload = json.loads(_to_json(result, complete=True))
        payload["format_version"] = 1
        del payload["failures"]
        del payload["complete"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        loaded = load_campaign(path)
        assert loaded.spec == small_spec
        assert loaded.failures == []
        assert loaded.clean_accuracy == result.clean_accuracy

    def test_unknown_version_rejected(self, tmp_path, checkpoint_text):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ConfigError):
            load_campaign(path)
        # Torn and foreign files are refused the same way, naming the file.
        spec_int = replaced(json.loads(checkpoint_text),
                            ("spec", "sweeps"), 5)
        outcome_key = replaced(json.loads(checkpoint_text),
                               ("sweeps", 0, "outcomes", 0, "surprise"), 1)
        outcome_str = replaced(json.loads(checkpoint_text),
                               ("sweeps", 0, "outcomes", 0, "n_strikes"),
                               "4500")
        # Whole checkpoints whose spec or clean baseline is ill-typed.
        count_str = replaced(json.loads(checkpoint_text),
                             ("spec", "blind_counts", 0), "40")
        images_float = replaced(json.loads(checkpoint_text),
                                ("spec", "eval_images"), 16.0)
        clean_str = replaced(json.loads(checkpoint_text),
                             ("clean_accuracy",), "0.9375")
        # A hand-edited spec that would run one cell twice.
        count_twice = replaced(json.loads(checkpoint_text),
                               ("spec", "sweeps", 0, 1), [40, 40])
        for text in ("{", "[]", json.dumps({"format_version": 2}),
                     json.dumps(spec_int), json.dumps(outcome_key),
                     json.dumps(outcome_str), json.dumps(count_str),
                     json.dumps(images_float), json.dumps(clean_str),
                     json.dumps(count_twice)):
            path.write_text(text)
            with pytest.raises(ConfigError, match="v99.json"):
                load_campaign(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_is_refused(
            self, data, checkpoint_text, damaged_file):
        """A checkpoint cut short anywhere, or with any value replaced by
        any JSON, either raises ConfigError or loads into a result that
        re-serializes with every spec, clean-baseline, outcome and
        failure field of its type."""
        if data.draw(st.booleans()):
            cut = data.draw(st.integers(0, len(checkpoint_text) - 1))
            text = checkpoint_text[:cut]
        else:
            payload = json.loads(checkpoint_text)
            path = data.draw(st.sampled_from(list(value_paths(payload))))
            text = json.dumps(replaced(payload, path,
                                       data.draw(JSON_VALUES)))
        damaged_file.write_text(text)
        try:
            loaded = load_campaign(damaged_file)
        except ConfigError:
            return
        saved = json.loads(_to_json(loaded, complete=True))
        spec = saved["spec"]
        counts = [c for _, cs in spec["sweeps"] for c in cs]
        assert all(type(layer) is str for layer, _ in spec["sweeps"])
        assert all(type(n) is int for n in counts + spec["blind_counts"]
                   + [spec["eval_images"], spec["seed"]])
        assert spec["bank_cells"] is None or type(spec["bank_cells"]) is int
        assert type(saved["clean_accuracy"]) in (int, float)
        for sweep in saved["sweeps"]:
            assert type(sweep["target_layer"]) is str
            for outcome in sweep["outcomes"]:
                assert not ill_typed(AttackOutcome, outcome)
        for failure in saved["failures"]:
            assert not ill_typed(CellFailure, failure)


class TestFaultIsolation:
    def test_failing_cell_recorded_and_campaign_continues(
            self, victim, small_spec):
        def sabotage(target, count):
            if (target, count) == ("pool1", 40):
                raise ProfilingError("injected")

        result = run(victim, small_spec, before_cell=sabotage)
        assert result.failures == [
            CellFailure("pool1", 40, "ProfilingError", "injected")
        ]
        done = {(s.target_layer, o.n_strikes)
                for s in result.sweeps for o in s.outcomes}
        assert done == {("pool1", 80), ("blind", 40)}

    def test_non_repro_errors_propagate(self, victim, small_spec):
        def bomb(target, count):
            raise RuntimeError("a genuine bug")

        with pytest.raises(RuntimeError):
            run(victim, small_spec, before_cell=bomb)

    def test_failed_cells_retried_on_resume(self, victim, small_spec,
                                            tmp_path):
        ckpt = tmp_path / "ckpt.json"

        def sabotage(target, count):
            if target == "blind":
                raise ProfilingError("flaky")

        partial = run(victim, small_spec, checkpoint_path=ckpt,
                      before_cell=sabotage)
        assert len(partial.failures) == 1
        resumed = run(victim, small_spec, resume_from=ckpt)
        assert resumed.failures == []
        assert sum(len(s.outcomes) for s in resumed.sweeps) == 3


class TestResume:
    def test_checkpoint_written_after_every_cell(self, victim, small_spec,
                                                 tmp_path, monkeypatch):
        from repro.core import campaign as mod

        ckpt = tmp_path / "ckpt.json"
        writes = []
        orig = mod._atomic_write_text

        def spy(path, text):
            writes.append(json.loads(text))
            orig(path, text)

        monkeypatch.setattr(mod, "_atomic_write_text", spy)
        run(victim, small_spec, checkpoint_path=ckpt)
        # one checkpoint per cell, all marked incomplete
        assert len(writes) == len(small_spec.cells())
        assert all(w["complete"] is False for w in writes)
        counts = [sum(len(s["outcomes"]) for s in w["sweeps"])
                  for w in writes]
        assert counts == [1, 2, 3]

    def test_interrupted_resume_is_byte_identical(self, victim, small_spec,
                                                  tmp_path):
        """Acceptance: SIGINT mid-campaign + resume == uninterrupted run."""
        baseline = _to_json(run(victim, small_spec), complete=True)

        ckpt = tmp_path / "ckpt.json"
        seen = []

        def interrupt(target, count):
            seen.append((target, count))
            if len(seen) == 2:
                raise KeyboardInterrupt  # what SIGINT raises

        with pytest.raises(KeyboardInterrupt):
            run(victim, small_spec, checkpoint_path=ckpt,
                before_cell=interrupt)
        assert ckpt.exists()  # the checkpoint survived the interrupt

        resumed = run(victim, small_spec, checkpoint_path=ckpt,
                      resume_from=ckpt)
        assert _to_json(resumed, complete=True) == baseline

    def test_resume_skips_completed_cells(self, victim, small_spec,
                                          tmp_path):
        ckpt = tmp_path / "ckpt.json"
        full = run(victim, small_spec, checkpoint_path=ckpt)
        executed = []
        resumed = run(victim, small_spec, resume_from=ckpt,
                      before_cell=lambda t, c: executed.append((t, c)))
        assert executed == []
        assert _to_json(resumed, complete=True) == _to_json(full,
                                                            complete=True)

    def test_resume_takes_spec_from_checkpoint(self, victim, small_spec,
                                               tmp_path):
        ckpt = tmp_path / "ckpt.json"
        run(victim, small_spec, checkpoint_path=ckpt)
        resumed = run(victim, None, resume_from=ckpt)
        assert resumed.spec == small_spec

    def test_spec_mismatch_rejected(self, victim, small_spec, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        run(victim, small_spec, checkpoint_path=ckpt)
        other = CampaignSpec(sweeps=(("conv1", (40,)),), eval_images=16)
        with pytest.raises(ConfigError, match="does not match"):
            run(victim, other, resume_from=ckpt)

    def test_cells_are_order_independent(self, victim):
        """Per-cell reseeding: one cell's numbers don't depend on the
        cells that ran before it."""
        solo = CampaignSpec(sweeps=(("pool1", (80,)),), eval_images=16,
                            seed=5)
        pair = CampaignSpec(sweeps=(("pool1", (40, 80)),), eval_images=16,
                            seed=5)
        a = run(victim, solo).sweep("pool1").outcomes[0]
        b = run(victim, pair).sweep("pool1").outcomes[1]
        assert a == b
