"""Arms-race cells through the campaign machinery: parity everywhere.

The tentpole contract of the defended-sweep orchestration layer: an
``arms:<layer>:<defense>@<bank>`` campaign cell executed by
``run_campaign`` — serially, on local workers, from a warm cell
cache, or after a kill-and-resume — is *the same bytes* as the cell a
direct :meth:`ArmsRaceStudy.sweep` computes.  Cells are seed-isolated
(the study's own blake2s scheme), so every execution strategy is
interchangeable.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import DeepStrike, load_campaign, run_campaign, save_campaign
from repro.core.campaign import _to_json
from repro.core.cellcache import CellCache, campaign_digest
from repro.core.supervisor import SupervisorStats
from repro.defense.evaluation import ArmsRaceCell, ArmsRaceStudy, \
    resolve_defense
from repro.errors import ConfigError

GRID = [(3000, 64), (5500, 64)]
DEFENSES = [("none", None), ("recover", resolve_defense("recover"))]
N_IMAGES = 32
SEED = 11


@pytest.fixture(scope="module")
def eval_slice(victim):
    return (victim.dataset.test_images[:N_IMAGES],
            victim.dataset.test_labels[:N_IMAGES])


@pytest.fixture(scope="module")
def study(victim, eval_slice):
    images, labels = eval_slice
    return ArmsRaceStudy(victim.quantized, images, labels, seed=SEED)


@pytest.fixture(scope="module")
def spec(study):
    return study.campaign_spec(GRID, DEFENSES)


def fresh_attack(victim):
    from repro.accel import AcceleratorEngine

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(0),
                               input_shape=(1, 28, 28))
    return DeepStrike(engine, rng=np.random.default_rng(0))


def run(victim, eval_slice, spec, **kwargs):
    images, labels = eval_slice
    return run_campaign(fresh_attack(victim), images, labels, spec,
                        **kwargs)


@pytest.fixture(scope="module")
def serial_json(victim, eval_slice, spec):
    return _to_json(run(victim, eval_slice, spec), complete=True)


class TestSerialParity:
    def test_campaign_cells_equal_direct_sweep(self, victim, eval_slice,
                                               spec, study):
        direct = {(c.bank_cells, c.defense): c
                  for c in study.sweep(GRID, DEFENSES)}
        result = run(victim, eval_slice, spec)
        cells = [c for sweep in result.sweeps for c in sweep.outcomes]
        assert len(cells) == len(direct)
        for cell in cells:
            ref = direct[(cell.bank_cells, cell.defense)]
            assert dataclasses.asdict(cell) == dataclasses.asdict(ref)


class TestParallelParity:
    def test_workers2_byte_identical(self, victim, eval_slice, spec,
                                     serial_json):
        parallel = run(victim, eval_slice, spec, workers=2)
        assert _to_json(parallel, complete=True) == serial_json

    def test_serial_path_needs_no_opt_in(self, victim, eval_slice, spec):
        # workers=1 executes in-process on the live attack; like a
        # recipe-rebuilt worker, it runs arms cells without any opt-in.
        result = run(victim, eval_slice, spec)
        assert not result.failures


class TestCacheParity:
    def test_warm_cache_zero_dispatch_and_byte_identical(
            self, victim, eval_slice, spec, serial_json, tmp_path):
        cache = CellCache(tmp_path / "cells")
        cold = run(victim, eval_slice, spec, cache=cache)
        assert _to_json(cold, complete=True) == serial_json
        stats = SupervisorStats()
        warm = run(victim, eval_slice, spec, cache=cache, stats=stats)
        assert _to_json(warm, complete=True) == serial_json
        assert stats.dispatched == 0  # every cell merged from the cache
        assert cache.stats.hits == len(spec.cells())

    def test_cellcache_roundtrips_arms_cells(self, victim, eval_slice,
                                             study, tmp_path):
        images, labels = eval_slice
        cell = study.run_cell(3000, 64, resolve_defense("recover"),
                              label="recover")
        cache = CellCache(tmp_path / "cells")
        attack = fresh_attack(victim)
        digest = campaign_digest(attack.config, attack.bank_cells,
                                 attack.engine.model, images, labels)
        key = cache.cell_key(digest, "arms:conv2:recover@3000", 64, SEED)
        cache.put(key, cell)
        loaded = cache.get(key)
        assert isinstance(loaded, ArmsRaceCell)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(cell)


class TestResumeParity:
    def test_kill_and_resume_byte_identical(self, victim, eval_slice,
                                            spec, serial_json, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        seen = []

        def interrupt(target, count):
            seen.append((target, count))
            if len(seen) == 2:
                raise KeyboardInterrupt  # what SIGINT raises

        with pytest.raises(KeyboardInterrupt):
            run(victim, eval_slice, spec, checkpoint_path=ckpt,
                before_cell=interrupt)
        assert ckpt.exists()
        resumed = run(victim, eval_slice, spec, checkpoint_path=ckpt,
                      resume_from=ckpt)
        assert _to_json(resumed, complete=True) == serial_json

    def test_save_load_roundtrips_arms_cells(self, victim, eval_slice,
                                             spec, tmp_path):
        result = run(victim, eval_slice, spec)
        out = tmp_path / "arms.json"
        save_campaign(result, out)
        loaded = load_campaign(out)
        cells = [c for sweep in loaded.sweeps for c in sweep.outcomes]
        assert cells and all(isinstance(c, ArmsRaceCell) for c in cells)
        assert _to_json(loaded, complete=True) == _to_json(result,
                                                           complete=True)


class TestSpecValidation:
    def test_unregistered_defense_not_expressible(self, study):
        from repro.config import RecoveryConfig

        custom = ("custom", RecoveryConfig(max_replays_per_layer=99))
        with pytest.raises(ConfigError):
            study.campaign_spec(GRID, [custom])
