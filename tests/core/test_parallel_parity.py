"""Differential serial-vs-parallel parity suite (the executor's contract).

The process-parallel campaign executor's headline guarantee is not
"roughly the same numbers" but *byte-identical final campaign JSON* at
any worker count — including interrupted-and-resumed runs and runs under
a chaos preset.  These tests enforce it by diffing the serialized output
of ``workers=1`` against ``workers ∈ {2, 4}`` runs, plus the fault
isolation and hook-ordering contracts the parallel path must preserve.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.chaos import ChaosInjector, chaos_preset
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core import campaign as campaign_mod
from repro.core import executor as executor_mod
from repro.core.campaign import _to_json
from repro.core.supervisor import SupervisorStats
from repro.errors import ConfigError, ProfilingError

WORKER_COUNTS = [2, 4]


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
def serial_json(victim, small_spec):
    """The golden artifact every parallel run must reproduce exactly."""
    return _to_json(run(victim, small_spec), complete=True)


class TestByteParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_workers_match_serial_bytes(self, victim, small_spec,
                                        serial_json, workers):
        parallel = run(victim, small_spec, workers=workers)
        assert _to_json(parallel, complete=True) == serial_json

    def test_checkpointed_parallel_matches_serial(self, victim, small_spec,
                                                  serial_json, tmp_path):
        """Checkpoints land in completion order, but the final assembly
        is canonical — the bytes still match."""
        ckpt = tmp_path / "ckpt.json"
        parallel = run(victim, small_spec, workers=2, checkpoint_path=ckpt)
        assert _to_json(parallel, complete=True) == serial_json
        assert ckpt.exists()

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_pool_matches_serial_under_each_start_method(
            self, victim, small_spec, serial_json, start, monkeypatch):
        """Forked workers adopt the live attack; spawned workers rebuild
        it from the recipe derived from it, the only local-worker path
        where fork is missing."""
        if start not in mp.get_all_start_methods():
            pytest.skip(f"no {start} start method on this platform")
        monkeypatch.setattr(executor_mod, "_mp_context",
                            lambda: mp.get_context(start))
        parallel = run(victim, small_spec, workers=2)
        assert _to_json(parallel, complete=True) == serial_json

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="adoption needs the fork start method")
    def test_forked_workers_never_rebuild_the_attack(
            self, victim, small_spec, serial_json, monkeypatch):
        """Forked children inherit this patch, so a worker (or the last
        rung) that rebuilt the attack from its recipe would crash;
        adopting the caller's attack never calls it."""
        def no_rebuild(*args, **kwargs):
            raise AssertionError("the attack was rebuilt from its recipe")

        monkeypatch.setattr(executor_mod, "_build_state", no_rebuild)
        stats = SupervisorStats()
        parallel = run(victim, small_spec, workers=2, stats=stats)
        assert _to_json(parallel, complete=True) == serial_json
        assert stats.worker_crashes == 0
        assert stats.serial_fallback is False

    def test_workers_below_one_rejected(self, victim, small_spec):
        with pytest.raises(ConfigError, match="workers"):
            run(victim, small_spec, workers=0)


class TestResumeParity:
    def test_kill_and_resume_mid_campaign(self, victim, small_spec,
                                          serial_json, tmp_path,
                                          monkeypatch):
        """Acceptance: SIGINT mid-parallel-campaign, resume at workers=2,
        final bytes equal the uninterrupted serial run."""
        ckpt = tmp_path / "ckpt.json"
        writes = []
        orig = campaign_mod._atomic_write_text

        def interrupting_write(path, text):
            orig(path, text)
            writes.append(text)
            if len(writes) == 2:   # a real Ctrl-C: settles run on the
                os.kill(os.getpid(), signal.SIGINT)   # broker's threads

        # The one checkpoint writer every path looks up at call time.
        monkeypatch.setattr(campaign_mod, "_atomic_write_text",
                            interrupting_write)
        with pytest.raises(KeyboardInterrupt):
            run(victim, small_spec, workers=2, checkpoint_path=ckpt)
        monkeypatch.setattr(campaign_mod, "_atomic_write_text", orig)
        assert ckpt.exists()  # the checkpoint survived the interrupt

        resumed = run(victim, small_spec, workers=2, checkpoint_path=ckpt,
                      resume_from=ckpt)
        assert _to_json(resumed, complete=True) == serial_json

    def test_serial_checkpoint_resumes_in_parallel(self, victim, small_spec,
                                                   serial_json, tmp_path):
        """Cross-mode resume: a checkpoint a serial run left behind feeds
        a parallel run (and vice-versa formats are the same v2 files)."""
        ckpt = tmp_path / "ckpt.json"

        def interrupt(target, count):
            if (target, count) == ("pool1", 80):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run(victim, small_spec, checkpoint_path=ckpt,
                before_cell=interrupt)
        resumed = run(victim, small_spec, workers=4, resume_from=ckpt)
        assert _to_json(resumed, complete=True) == serial_json

    def test_fully_complete_resume_skips_pool(self, victim, small_spec,
                                              serial_json, tmp_path,
                                              monkeypatch):
        """Nothing pending: the parallel path must not even bind a
        broker."""
        from repro.core.service import CampaignBroker

        ckpt = tmp_path / "ckpt.json"
        run(victim, small_spec, checkpoint_path=ckpt)

        def explode(*args, **kwargs):
            raise AssertionError("broker bound with no pending cells")

        monkeypatch.setattr(CampaignBroker, "start", explode)
        resumed = run(victim, small_spec, workers=4, resume_from=ckpt)
        assert _to_json(resumed, complete=True) == serial_json


class TestChaosParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_preset_is_worker_count_independent(self, victim,
                                                      small_spec, workers,
                                                      tmp_path):
        """The hostile preset kills the same cells at every worker count:
        the final JSON (outcomes *and* failures) is byte-identical."""
        def result_for(n):
            injector = ChaosInjector(chaos_preset("hostile", seed=3))
            return _to_json(
                run(victim, small_spec, workers=n,
                    before_cell=injector.campaign_cell_hook),
                complete=True,
            )

        assert result_for(workers) == result_for(1)


class TestWorkerFaultIsolation:
    @pytest.fixture(scope="class")
    def bad_spec(self):
        # "nowhere" is not a layer of the victim schedule: the cell fails
        # *inside* the worker (plan_for_layer raises ConfigError).
        return CampaignSpec(sweeps=(("pool1", (40,)), ("nowhere", (10,))),
                            eval_images=16, seed=5)

    def test_worker_cell_death_recorded_not_raised(self, victim, bad_spec):
        result = run(victim, bad_spec, workers=2)
        assert [f.target_layer for f in result.failures] == ["nowhere"]
        assert result.failures[0].error_type == "ConfigError"
        done = {(s.target_layer, o.n_strikes)
                for s in result.sweeps for o in s.outcomes}
        assert done == {("pool1", 40)}

    def test_failures_match_serial_bytes(self, victim, bad_spec):
        serial = _to_json(run(victim, bad_spec), complete=True)
        parallel = _to_json(run(victim, bad_spec, workers=2), complete=True)
        assert parallel == serial

    def test_dispatch_time_failure_skips_the_cell(self, victim, small_spec):
        executed = []

        def hook(target, count):
            executed.append((target, count))
            if target == "blind":
                raise ProfilingError("injected at dispatch")

        result = run(victim, small_spec, workers=2, before_cell=hook)
        assert [f.target_layer for f in result.failures] == ["blind"]
        done = {(s.target_layer, o.n_strikes)
                for s in result.sweeps for o in s.outcomes}
        assert ("blind", 40) not in done


class TestDispatchSemantics:
    def test_before_cell_fires_in_submitting_process_in_order(
            self, victim, small_spec):
        """The pinned contract: the hook runs in the parent, at dispatch
        time, in canonical CampaignSpec.cells() order — serially too."""
        for workers in (1, 2):
            seen = []

            def hook(target, count):
                seen.append((os.getpid(), target, count))

            run(victim, small_spec, workers=workers, before_cell=hook)
            assert [(t, c) for _, t, c in seen] == small_spec.cells()
            assert {pid for pid, _, _ in seen} == {os.getpid()}


class TestRebuiltVictims:
    """Workers that rebuild the attack (spawned local workers, remote
    workers) rebuild the caller's own zoo victim, and a victim the zoo
    cannot rebuild is refused where they would."""

    def test_cnn7_served_and_spawned_match_serial(self, monkeypatch):
        from repro.accel import AcceleratorEngine
        from repro.config import ServiceConfig
        from repro.zoo import get_pretrained

        cnn7 = get_pretrained(model_name="cnn7")
        spec = CampaignSpec(sweeps=(("c7_conv2", (1500,)),),
                            blind_counts=(1500,), eval_images=16, seed=5)

        def cnn7_run(**kwargs):
            attack = DeepStrike(AcceleratorEngine(
                cnn7.quantized, rng=np.random.default_rng(66)),
                rng=np.random.default_rng(77))
            return _to_json(run_campaign(
                attack, cnn7.dataset.test_images, cnn7.dataset.test_labels,
                spec, **kwargs), complete=True)

        serial = cnn7_run()
        assert cnn7_run(service=ServiceConfig(local_workers=2)) == serial
        if "spawn" in mp.get_all_start_methods():
            monkeypatch.setattr(executor_mod, "_mp_context",
                                lambda: mp.get_context("spawn"))
            assert cnn7_run(workers=2) == serial

    def test_non_zoo_victim_is_refused_before_a_broker_binds(
            self, probe_quantized):
        """The probe model is no zoo victim: a served campaign is refused
        before binding, while forked private workers adopt the attack and
        run.
        (The probe is no classifier; its labels broadcast over the final
        feature map.)"""
        from repro.accel import AcceleratorEngine
        from repro.config import ServiceConfig
        from repro.nn.model import PROBE_INPUT_SHAPE

        images = np.random.default_rng(3).uniform(-1, 1, (4,) +
                                                   PROBE_INPUT_SHAPE)
        labels = np.zeros((4, 1, 1), dtype=int)
        spec = CampaignSpec(sweeps=(("conv3x3", (40, 80)),), eval_images=4,
                            seed=1)

        def probe_run(**kwargs):
            attack = DeepStrike(AcceleratorEngine(
                probe_quantized, rng=np.random.default_rng(0),
                input_shape=PROBE_INPUT_SHAPE), rng=np.random.default_rng(1))
            return _to_json(run_campaign(attack, images, labels, spec,
                                         **kwargs), complete=True)

        bound = []
        with pytest.raises(ConfigError, match="probe3_q"):
            probe_run(service=ServiceConfig(local_workers=2),
                      on_bound=bound.append)
        assert bound == []
        if "fork" in mp.get_all_start_methods():
            assert probe_run(workers=2) == probe_run()
