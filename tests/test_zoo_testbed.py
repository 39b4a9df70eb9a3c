"""Model zoo and testbed assembly tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.zoo import MODEL_BUILDERS, default_cache_dir, get_pretrained


class TestZoo:
    def test_builders_registered(self):
        assert set(MODEL_BUILDERS) == {"lenet5", "cnn7"}

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            get_pretrained(model_name="resnet152")

    def test_cache_reuse_is_exact(self, victim):
        again = get_pretrained()
        np.testing.assert_array_equal(
            victim.dataset.test_labels, again.dataset.test_labels
        )
        for key, value in victim.model.state_dict().items():
            np.testing.assert_array_equal(value,
                                          again.model.state_dict()[key])

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_victim_carries_consistent_artifacts(self, victim):
        assert victim.quantized.stages  # quantized model built
        assert victim.dataset.n_test >= 1000
        assert victim.name == "lenet5"
        assert "victim" in victim.summary()


@pytest.fixture()
def fast_zoo(monkeypatch):
    """Zoo with training stubbed out and a tiny dataset recipe."""
    from repro import zoo

    calls = []

    def fake_train(dataset, model_name):
        calls.append(model_name)
        return zoo.MODEL_BUILDERS[model_name](
            rng=np.random.default_rng(0)
        )

    monkeypatch.setattr(zoo, "_train", fake_train)
    monkeypatch.setitem(zoo.RECIPE, "n_train", 30)
    monkeypatch.setitem(zoo.RECIPE, "n_test", 12)
    return zoo, calls


class TestLazyAccuracy:
    def test_load_scores_nothing_until_asked(self, fast_zoo, tmp_path,
                                             monkeypatch):
        """Neither a cold nor a warm load scores the victim; each clean
        accuracy is computed on first read, once, and equals a direct
        evaluation on the test split."""
        from repro.nn import QuantizedModel

        zoo, _ = fast_zoo

        def refuse(*args, **kwargs):
            raise AssertionError("the victim was scored at load")

        with monkeypatch.context() as patch:
            patch.setattr(zoo, "evaluate_accuracy", refuse)
            patch.setattr(QuantizedModel, "accuracy", refuse)
            zoo.get_pretrained(cache_dir=tmp_path)          # cold
            victim = zoo.get_pretrained(cache_dir=tmp_path)  # warm
            assert victim.quantized.stages
            assert victim.dataset.n_test == 12

        images = victim.dataset.test_images
        labels = victim.dataset.test_labels
        want_float = zoo.evaluate_accuracy(victim.model, images, labels)
        want_q = victim.quantized.accuracy(images, labels)
        scored = []
        real_float, real_q = zoo.evaluate_accuracy, QuantizedModel.accuracy

        def count_float(*args):
            scored.append("float")
            return real_float(*args)

        def count_q(*args):
            scored.append("q")
            return real_q(*args)

        monkeypatch.setattr(zoo, "evaluate_accuracy", count_float)
        monkeypatch.setattr(QuantizedModel, "accuracy", count_q)
        for _ in range(2):
            assert victim.float_accuracy == want_float
            assert victim.quantized_accuracy == want_q
        assert scored == ["float", "q"]


class TestCacheRobustness:
    """A damaged cache file is a miss (delete + retrain), never a crash,
    and saves are atomic."""

    def _cache_path(self, zoo, tmp_path):
        return tmp_path / f"lenet5_victim_{zoo._recipe_key('lenet5')}.npz"

    def test_fresh_save_then_exact_reload(self, fast_zoo, tmp_path):
        zoo, calls = fast_zoo
        first = zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5"]
        again = zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5"]  # second call was a cache hit
        for key, value in first.model.state_dict().items():
            np.testing.assert_array_equal(value,
                                          again.model.state_dict()[key])
        # The atomic writer leaves no temp droppings behind.
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_garbage_cache_file_treated_as_miss(self, fast_zoo, tmp_path):
        zoo, calls = fast_zoo
        path = self._cache_path(zoo, tmp_path)
        path.write_bytes(b"this is not an npz archive")
        victim = zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5"]  # retrained instead of crashing
        assert victim.dataset.n_test == 12
        # The rebuilt cache is valid: next call loads it.
        zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5"]

    def test_truncated_cache_file_treated_as_miss(self, fast_zoo,
                                                  tmp_path):
        zoo, calls = fast_zoo
        path = self._cache_path(zoo, tmp_path)
        zoo.get_pretrained(cache_dir=tmp_path)
        path.write_bytes(path.read_bytes()[:100])  # interrupted write
        zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5", "lenet5"]

    def test_archive_with_missing_keys_treated_as_miss(self, fast_zoo,
                                                       tmp_path):
        zoo, calls = fast_zoo
        path = self._cache_path(zoo, tmp_path)
        np.savez_compressed(path, wrong_key=np.zeros(3))
        zoo.get_pretrained(cache_dir=tmp_path)
        assert calls == ["lenet5"]

    def test_save_fsyncs_the_archive_and_its_directory(self, fast_zoo,
                                                       tmp_path,
                                                       monkeypatch):
        """The archive goes through the fsync-atomic writer: its temp
        file (renamed into place, so the archive's inode) and its
        directory are both fsynced."""
        import os
        import stat

        zoo, _ = fast_zoo
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            synced.append((stat.S_ISDIR(st.st_mode), st.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        zoo.get_pretrained(cache_dir=tmp_path)
        archive = self._cache_path(zoo, tmp_path)
        assert (False, archive.stat().st_ino) in synced
        assert (True, tmp_path.stat().st_ino) in synced

    def test_interrupted_save_never_clobbers_the_cache(self, fast_zoo,
                                                       tmp_path,
                                                       monkeypatch):
        zoo, calls = fast_zoo
        path = self._cache_path(zoo, tmp_path)
        zoo.get_pretrained(cache_dir=tmp_path)
        good = path.read_bytes()

        def exploding_savez(handle, **payload):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(zoo.np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError):
            zoo._atomic_savez(path, {"x": np.zeros(2)})
        assert path.read_bytes() == good  # untouched
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


class TestTestbedAccounting:
    def test_total_utilization_within_device(self, victim):
        from repro.testbed import build_attack_testbed

        tb = build_attack_testbed(victim.quantized, seed=31)
        total = tb.board.hypervisor.utilization.total()
        device = tb.board.device
        assert total.luts <= device.luts
        assert total.dsp_slices <= device.dsp_slices
        assert total.bram_36k <= device.bram_36k

    def test_tenants_have_disjoint_regions(self, victim):
        from repro.testbed import build_attack_testbed

        tb = build_attack_testbed(victim.quantized, seed=32)
        regions = tb.board.hypervisor.floorplan.regions()
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert not a.overlaps(b)

    def test_theta_within_drive_period(self, victim):
        from repro.testbed import build_attack_testbed

        tb = build_attack_testbed(victim.quantized, seed=33)
        assert 0 < tb.theta < 5e-9
