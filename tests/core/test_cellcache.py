"""Content-addressed cell-cache contract: paranoid reads, honest keys.

Two properties carry the feature:

* a cache can *lose* entries (corruption, truncation, tampering, schema
  drift — all are misses), but must never *serve a wrong one*;
* a warm-cache campaign recomputes nothing (``stats.dispatched == 0``)
  yet emits JSON byte-identical to the cold serial run.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig, SupervisorConfig
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core.campaign import _to_json
from repro.core.cellcache import CellCache, _payload_digest, campaign_digest
from repro.core.evaluation import AttackOutcome
from repro.core.supervisor import SupervisorStats

from .jsonfuzz import JSON_VALUES, ill_typed, replaced, value_paths


@pytest.fixture(scope="module")
def victim():
    from repro.zoo import get_pretrained

    return get_pretrained()


@pytest.fixture(scope="module")
def small_spec():
    return CampaignSpec(sweeps=(("pool1", (40, 80)),), eval_images=16,
                        seed=5)


def fresh_attack(victim):
    from repro.accel import AcceleratorEngine

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(66))
    return DeepStrike(engine, rng=np.random.default_rng(77))


def outcome(**overrides) -> AttackOutcome:
    base = dict(target_layer="pool1", n_strikes=40, strikes_landed=38,
                clean_accuracy=0.9375, attacked_accuracy=0.8125,
                mean_strike_voltage=0.8342)
    base.update(overrides)
    return AttackOutcome(**base)


DIGEST = "d" * 64


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("cachefuzz")


class TestEntryIntegrity:
    def key(self, cache, count=40):
        return cache.cell_key(DIGEST, "pool1", count, base_seed=5)

    def test_put_get_round_trip(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        cache.put(key, outcome())
        assert cache.get(key) == outcome()
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        assert cache.get(self.key(cache)) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        cache.put(key, outcome())
        path = cache._entry_path(key)
        path.write_text(path.read_text()[:37])  # torn mid-JSON
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # unlinked so it never costs again

    def test_tampered_payload_is_a_miss(self, tmp_path):
        """A bit-flip in the payload breaks the integrity digest."""
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        cache.put(key, outcome())
        path = cache._entry_path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["attacked_accuracy"] = 0.0
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_relocated_entry_is_a_miss(self, tmp_path):
        """An entry copied under another cell's address must not serve."""
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        other = self.key(cache, count=80)
        cache.put(key, outcome())
        target = cache._entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(cache._entry_path(key).read_text())
        assert cache.get(other) is None
        assert cache.stats.corrupt == 1

    def test_future_format_version_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        cache.put(key, outcome())
        path = cache._entry_path(key)
        entry = json.loads(path.read_text())
        entry["format_version"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_schema_drift_is_a_miss(self, tmp_path):
        """A payload that no longer matches AttackOutcome is refused."""
        cache = CellCache(tmp_path / "cache")
        key = self.key(cache)
        cache.put(key, outcome())
        path = cache._entry_path(key)
        entry = json.loads(path.read_text())
        entry["payload"]["from_the_future"] = 1
        # keep the integrity digest honest: drift, not corruption
        entry["digest"] = _payload_digest(entry["payload"])
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_entry_is_a_miss_or_a_well_typed_hit(self, data,
                                                         fuzz_root):
        """An entry cut short anywhere, or with any value replaced by
        any JSON and its integrity digest recomputed, is a corrupt miss
        (and unlinked) or a hit with every field of its type — never
        another exception."""
        cache = CellCache(fuzz_root)
        key = self.key(cache)
        cache.put(key, outcome())
        path = cache._entry_path(key)
        text = path.read_text()
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            entry = json.loads(text)
            replaced(entry, data.draw(st.sampled_from(list(
                value_paths(entry)))), data.draw(JSON_VALUES))
            entry["digest"] = _payload_digest(entry["payload"])
            text = json.dumps(entry)
        path.write_text(text)
        got = cache.get(key)
        if got is None:
            assert cache.stats.corrupt == 1 and not path.exists()
        else:
            assert not ill_typed(AttackOutcome, dataclasses.asdict(got))


class TestBoundedCache:
    """LRU size bounds: pruning drops whole stale entries, never bytes
    of a survivor — a bounded cache loses history, not integrity."""

    def fill(self, cache, counts):
        """Store one entry per count with strictly increasing mtimes."""
        import os

        keys = {}
        for i, count in enumerate(counts):
            key = cache.cell_key(DIGEST, "pool1", count, 5)
            cache.put(key, outcome(n_strikes=count))
            os.utime(cache._entry_path(key), (1000.0 + i, 1000.0 + i))
            keys[count] = key
        return keys

    def entry_bytes(self, cache, key):
        return cache._entry_path(key).stat().st_size

    def test_gc_prunes_oldest_first_to_the_bound(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        keys = self.fill(cache, [40, 80, 120])
        size = self.entry_bytes(cache, keys[40])
        report = cache.gc(max_bytes=2 * size + 64)
        assert report.entries_pruned == 1 and report.entries_kept == 2
        assert cache.stats.pruned == 1
        assert cache.get(keys[40]) is None          # oldest fell
        assert cache.get(keys[80]) == outcome(n_strikes=80)
        assert cache.get(keys[120]) == outcome(n_strikes=120)

    def test_pruning_never_corrupts_survivors(self, tmp_path):
        """Acceptance for the bound: after any gc, every surviving
        entry still round-trips bit-perfectly (corrupt == 0) and every
        pruned entry is a clean miss, not an error."""
        cache = CellCache(tmp_path / "cache")
        counts = [40, 80, 120, 160, 200]
        keys = self.fill(cache, counts)
        size = self.entry_bytes(cache, keys[40])
        cache.gc(max_bytes=2 * size + 64)
        survivors = [c for c in counts if cache._entry_path(keys[c]).exists()]
        assert len(survivors) == 2
        for count in counts:
            got = cache.get(keys[count])
            if count in survivors:
                assert got == outcome(n_strikes=count)
            else:
                assert got is None
        assert cache.stats.corrupt == 0

    def test_hits_refresh_recency_so_gc_spares_hot_entries(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        keys = self.fill(cache, [40, 80, 120])
        assert cache.get(keys[40]) is not None  # touch the oldest entry
        size = self.entry_bytes(cache, keys[40])
        cache.gc(max_bytes=2 * size + 64)
        assert cache.get(keys[40]) is not None  # hot: spared
        assert cache.get(keys[80]) is None      # now the coldest: pruned
        assert cache.get(keys[120]) is not None

    def test_gc_without_a_bound_only_reports(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        keys = self.fill(cache, [40, 80])
        report = cache.gc()
        assert report.entries_pruned == 0 and report.entries_kept == 2
        assert report.bytes_kept > 0
        assert all(cache.get(k) is not None for k in keys.values())

    def test_negative_bound_refused(self, tmp_path):
        from repro.errors import ConfigError

        cache = CellCache(tmp_path / "cache")
        keys = self.fill(cache, [40, 80])
        with pytest.raises(ConfigError):
            cache.gc(max_bytes=-1)
        assert all(cache.get(k) is not None for k in keys.values())


class TestContentAddressing:
    def test_any_recipe_change_moves_the_address(self, victim):
        """Config knob, bank size, eval slice — each shifts the digest,
        so stale entries are unreachable rather than invalidated."""
        attack = fresh_attack(victim)
        images = victim.dataset.test_images[:16]
        labels = victim.dataset.test_labels[:16]
        base = campaign_digest(attack.config, attack.bank_cells,
                               attack.engine.model, images, labels)
        assert base == campaign_digest(attack.config, attack.bank_cells,
                                       attack.engine.model, images, labels)
        for section, name, value in (("striker", "loops_per_cell", 3),
                                     ("recovery", "clamp_margin", 0.1)):
            tweaked = dataclasses.replace(attack.config, **{
                section: dataclasses.replace(
                    getattr(attack.config, section), **{name: value})})
            assert campaign_digest(tweaked, attack.bank_cells,
                                   attack.engine.model, images,
                                   labels) != base, section
        assert campaign_digest(attack.config, attack.bank_cells + 1,
                               attack.engine.model, images, labels) != base
        assert campaign_digest(attack.config, attack.bank_cells,
                               attack.engine.model, images[:8],
                               labels[:8]) != base

    def test_backend_and_dtype_policy_move_the_address(self, victim):
        """The dtype policy is part of the content address: fp32 is
        tolerance-tier, so its outcomes must never be served to — or
        poisoned by — a byte-parity fxp run."""
        attack = fresh_attack(victim)
        images = victim.dataset.test_images[:16]
        labels = victim.dataset.test_labels[:16]
        base = campaign_digest(attack.config, attack.bank_cells,
                               attack.engine.model, images, labels)
        fp32 = dataclasses.replace(attack.config, dtype_policy="fp32")
        assert campaign_digest(fp32, attack.bank_cells,
                               attack.engine.model, images, labels) != base

    def test_fp32_stream_change_retires_old_fp32_addresses(self):
        """fp32 cells cached before it ran fxp's forward and injector
        hold another stream's bytes, so every fp32 address moved; fxp's
        stream did not, so its addresses stayed."""
        from repro.config import default_config
        from repro.nn.quantize import QDense, QuantizedModel

        model = QuantizedModel(
            [QDense("fc", np.arange(6, dtype=np.int64).reshape(2, 3),
                    np.array([1, -1], dtype=np.int64))], name="pin")
        images = np.zeros((2, 3))
        labels = np.array([0, 1])

        def address(dtype):
            config = dataclasses.replace(default_config(),
                                         dtype_policy=dtype)
            return campaign_digest(config, 5500, model, images, labels)

        assert address("fxp") == ("abc502324174721cac925f107c14a577"
                                  "08d1e295f758d3339ce617f98706e95d")
        assert address("fp32") != ("3051e51646532dcc5766d77a319f657f"
                                   "f2f952ecd71fd33142621fb75e744650")

    def test_seed_and_cell_separate_keys(self):
        key = CellCache.cell_key(DIGEST, "pool1", 40, 5)
        assert CellCache.cell_key(DIGEST, "pool1", 40, 6) != key
        assert CellCache.cell_key(DIGEST, "pool1", 80, 5) != key
        assert CellCache.cell_key(DIGEST, "conv1", 40, 5) != key


class TestWarmCampaign:
    def test_warm_run_recomputes_nothing_and_matches_cold_bytes(
            self, victim, small_spec, tmp_path):
        """Acceptance: second run against the same cache dir performs
        zero cell dispatches and emits byte-identical JSON."""
        cache_dir = tmp_path / "cellcache"

        def one_run():
            stats = SupervisorStats()
            result = run_campaign(fresh_attack(victim),
                                  victim.dataset.test_images,
                                  victim.dataset.test_labels, small_spec,
                                  cache=cache_dir, stats=stats)
            return _to_json(result, complete=True), stats

        cold_json, cold_stats = one_run()
        assert cold_stats.dispatched == len(small_spec.cells())
        assert cold_stats.cache_hits == 0

        warm_json, warm_stats = one_run()
        assert warm_stats.dispatched == 0
        assert warm_stats.cache_hits == len(small_spec.cells())
        assert warm_json == cold_json

    def test_warm_rerun_under_another_policy_dispatches_nothing(
            self, victim, small_spec, tmp_path):
        """The lease policy and the broker's socket are run_campaign
        arguments, no part of a cell's address: a warm rerun under another
        supervisor= policy, or through a service= broker, merges every
        cell before any dispatch — no broker even binds — and matches the
        cold serial bytes."""
        cache_dir = tmp_path / "cellcache"

        def one_run(stats=None, **kwargs):
            return _to_json(run_campaign(
                fresh_attack(victim), victim.dataset.test_images,
                victim.dataset.test_labels, small_spec, cache=cache_dir,
                stats=stats, **kwargs), complete=True)

        cold = one_run()
        bound = []
        for kwargs in ({"workers": 2, "supervisor": SupervisorConfig(
                            max_retries=9, cell_timeout_s=7.0)},
                       {"service": ServiceConfig(local_workers=2),
                        "on_bound": bound.append}):
            stats = SupervisorStats()
            assert one_run(stats, **kwargs) == cold
            assert stats.dispatched == 0
            assert stats.cache_hits == len(small_spec.cells())
        assert bound == []

    def test_fxp_cache_never_serves_an_fp32_run(self, victim, small_spec,
                                                tmp_path):
        """Campaign-level twin of the digest test: a cache warmed under
        the fxp reference gives an fp32 campaign zero hits — every cell
        recomputes under its own policy's address."""
        cache_dir = tmp_path / "cellcache"

        def one_run(dtype):
            from repro.accel import AcceleratorEngine
            from repro.config import default_config

            config = dataclasses.replace(default_config(),
                                         dtype_policy=dtype)
            engine = AcceleratorEngine(victim.quantized, config=config,
                                       rng=np.random.default_rng(66))
            attack = DeepStrike(engine, rng=np.random.default_rng(77))
            stats = SupervisorStats()
            run_campaign(attack, victim.dataset.test_images,
                         victim.dataset.test_labels, small_spec,
                         cache=cache_dir, stats=stats)
            return stats

        one_run("fxp")
        fp32_stats = one_run("fp32")
        assert fp32_stats.cache_hits == 0
        assert fp32_stats.dispatched == len(small_spec.cells())
        # Each policy's entries are live under its own digest, though:
        warm = one_run("fp32")
        assert warm.cache_hits == len(small_spec.cells())
        assert warm.dispatched == 0

    def test_corrupt_entry_recomputed_transparently(self, victim,
                                                    small_spec, tmp_path):
        cache_dir = tmp_path / "cellcache"
        cache = CellCache(cache_dir)

        def one_run(stats):
            return _to_json(
                run_campaign(fresh_attack(victim),
                             victim.dataset.test_images,
                             victim.dataset.test_labels, small_spec,
                             cache=cache, stats=stats),
                complete=True)

        cold = one_run(SupervisorStats())
        # Corrupt one entry on disk; the warm run must recompute exactly
        # that cell and still match the cold bytes.
        entries = sorted(cache_dir.rglob("*.json"))
        assert entries
        entries[0].write_text("{definitely not json")
        stats = SupervisorStats()
        assert one_run(stats) == cold
        assert stats.dispatched == 1
        assert stats.cache_hits == len(small_spec.cells()) - 1
