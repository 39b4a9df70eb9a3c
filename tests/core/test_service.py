"""Campaign-service contract: remote leases heal, parity survives the wire.

The broker is the one transport of every multi-worker campaign: a
campaign whose workers are killed, hung, partitioned, or duplicated
must still converge — with no manual intervention — to JSON
byte-identical to a clean serial run.  The shared lease book
(`_LeaseBook`) and the broker's heartbeat and frame handling are driven
here with a fake monotonic clock, the wire protocol with socketpairs,
the worker's job checks with a fake broker on a loopback socket, and
the whole service end-to-end with real broker-spawned worker processes.
"""

import json
import multiprocessing as mp
import socket
import struct
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CHAOS_PRESETS, ChaosInjector, ChaosSpec
from repro.config import ServiceConfig, SupervisorConfig
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core.campaign import _to_json
from repro.core.cellcache import CellCache
from repro.core.evaluation import AttackOutcome
from repro.core.executor import WorkerRecipe
from repro.core.service import CampaignBroker, parse_address, run_worker
from repro.core.service.protocol import (
    MAX_FRAME_BYTES,
    decode_array,
    decode_recipe,
    encode_array,
    encode_recipe,
    recv_msg,
    send_msg,
)
from repro.core.supervisor import MAX_WORKERS, SupervisorStats, _Driver
from repro.errors import ProtocolError

from .jsonfuzz import JSON_VALUES, ill_typed, replaced, value_paths

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="service tests spawn local worker daemons via fork")


@pytest.fixture(scope="module")
def victim():
    from repro.zoo import get_pretrained

    return get_pretrained()


@pytest.fixture(scope="module")
def spec3():
    return CampaignSpec(sweeps=(("pool1", (40, 80, 120)),), eval_images=16,
                        seed=5)


def fresh_attack(victim):
    from repro.accel import AcceleratorEngine

    engine = AcceleratorEngine(victim.quantized,
                               rng=np.random.default_rng(66))
    return DeepStrike(engine, rng=np.random.default_rng(77))


def run(victim, spec, **kwargs):
    return run_campaign(fresh_attack(victim), victim.dataset.test_images,
                        victim.dataset.test_labels, spec, **kwargs)


@pytest.fixture(scope="module")
def serial_json(victim, spec3):
    """The clean serial artifact every distributed run must reproduce."""
    return _to_json(run(victim, spec3), complete=True)


@pytest.fixture
def service(constants):
    """Two local workers on fast heartbeats with a shorter no-worker
    grace (a test may set other constants after this one)."""
    constants(HEARTBEAT_INTERVAL_S=0.1, HEARTBEAT_TIMEOUT_S=0.8,
              NO_WORKER_GRACE_S=20.0)
    return ServiceConfig(local_workers=2)


def result_frame(**payload):
    """A worker's result frame delivering a pool1@40 outcome."""
    outcome = dict(target_layer="pool1", n_strikes=40, strikes_landed=38,
                   clean_accuracy=0.9375, attacked_accuracy=0.8125,
                   mean_strike_voltage=0.8342)
    outcome.update(payload)
    return {"type": "result", "worker": "w", "target": "pool1",
            "count": 40, "kind": "outcome", "payload": outcome}


ARMS = "arms:conv2:none@5500"


def arms_frame(**payload):
    """A worker's result frame delivering the ``ARMS``@40 record."""
    cell = dict(kind="arms", bank_cells=5500, n_strikes=40, defense="none",
                clean_accuracy=1.0, attacked_accuracy=0.75,
                residual_mismatch_rate=0.25, replay_overhead=0.0,
                razor_flags=0, replays=0, exhausted=0, strikes_landed=38)
    cell.update(payload)
    return {"type": "result", "worker": "w", "target": ARMS, "count": 40,
            "kind": "outcome", "payload": cell}


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            msgs = [{"type": "hello", "worker": "w1"},
                    {"type": "assign", "target": "pool1", "count": 40,
                     "attempt": 0, "fault": None,
                     "shard": {"duplicate": True}}]
            for msg in msgs:
                send_msg(a, msg)
            assert [recv_msg(b) for _ in msgs] == msgs

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_msg(b) is None

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 100) + b'{"type":')  # then dies
            a.close()
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_oversized_frame_refused_without_reading_it(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_non_object_payload_refused(self):
        a, b = socket.socketpair()
        with a, b:
            payload = b'[1, 2]'
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                recv_msg(b)

    def test_parse_address(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert parse_address("host:0", allow_zero=True) == ("host", 0)
        for bad in ("nocolon", "host:notaport", "host:0", "host:70000"):
            with pytest.raises(ProtocolError):
                parse_address(bad)

    def test_array_codec_is_bit_exact(self):
        rng = np.random.default_rng(3)
        for arr in (rng.normal(size=(4, 7, 3)),
                    rng.integers(0, 10, size=(5,), dtype=np.uint8),
                    np.array([], dtype=np.float32)):
            out = decode_array(json.loads(json.dumps(encode_array(arr))))
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_bad_array_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_array({"dtype": "f8", "data": "xx"})

    def test_recipe_round_trips_through_json(self):
        recipe = WorkerRecipe(bank_cells=1234)
        wire = json.loads(json.dumps(encode_recipe(recipe)))
        assert decode_recipe(wire) == recipe

    def test_recipe_unknown_field_refused(self):
        wire = encode_recipe(WorkerRecipe())
        wire["surprise"] = 1
        with pytest.raises(ProtocolError):
            decode_recipe(wire)
        # Known fields a worker could not build from are refused too:
        # an ill-typed leaf, a missing section, an ill-typed recipe field.
        for path, value in ((("config", "clock", "sim_frequency_hz"), "abc"),
                            (("config", "clock"), None),
                            (("bank_cells",), "many")):
            wire = replaced(encode_recipe(WorkerRecipe()), path, value)
            with pytest.raises(ProtocolError):
                decode_recipe(wire)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_recipe_decoder_builds_or_refuses(self, data):
        """A recipe with any leaf or section replaced by any JSON value
        decodes to a valid config or raises ProtocolError — never a
        recipe that fails later inside the worker."""
        wire = json.loads(json.dumps(encode_recipe(WorkerRecipe())))
        path = data.draw(st.sampled_from(list(value_paths(wire))))
        replaced(wire, path, data.draw(JSON_VALUES))
        try:
            recipe = decode_recipe(wire)
        except ProtocolError:
            return
        recipe.config.validate()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_result_frame_is_refused_or_well_typed(self, data):
        """A result frame cut short, with a byte flipped, or with any
        value replaced by any JSON reads back as a ProtocolError, as
        None, or as a message the broker refuses or settles with every
        outcome field of its type — never another exception."""
        msg = result_frame()
        damage = data.draw(st.sampled_from(["cut", "flip", "value"]))
        if damage == "value":
            path = data.draw(st.sampled_from(list(value_paths(msg))))
            replaced(msg, path, data.draw(JSON_VALUES))
        body = json.dumps(msg).encode()
        frame = struct.pack(">I", len(body)) + body
        if damage == "cut":
            frame = frame[:data.draw(st.integers(0, len(frame) - 1))]
        elif damage == "flip":
            i = data.draw(st.integers(0, len(frame) - 1))
            flipped = frame[i] ^ data.draw(st.integers(1, 255))
            frame = frame[:i] + bytes([flipped]) + frame[i + 1:]
        a, b = socket.socketpair()
        with a, b:
            a.sendall(frame)
            a.close()
            try:
                received = recv_msg(b)
            except ProtocolError:
                return
        if received is None:
            return
        broker = broker_over()
        broker._handle({"type": "hello", "worker": "w"})
        broker._handle({"type": "lease", "worker": "w"})
        assert isinstance(broker._handle(received), dict)
        for outcome in broker.driver.outcomes.values():
            assert not ill_typed(AttackOutcome, vars(outcome))


# ---------------------------------------------------------------------------
# The shared lease book and the broker's side of it, on a fake clock
# ---------------------------------------------------------------------------


def broker_over(sweeps=(("pool1", (40, 80)),), config=ServiceConfig()):
    """An unstarted broker leasing ``sweeps``, pool1@40 and pool1@80 by
    default (no sockets: tests call its message handler and sweep
    directly)."""
    spec = CampaignSpec(sweeps=sweeps, eval_images=4, seed=5)
    driver = _Driver(spec, np.zeros((4, 1, 28, 28)), np.zeros(4, dtype=int),
                     1.0, {}, {}, policy=SupervisorConfig())
    return CampaignBroker(WorkerRecipe(), driver, config=config)


class TestLeaseBook:
    def test_grants_in_canonical_order_then_waits(self, lease_book):
        b = lease_book()
        assert b.grant("w") == (("pool1", 40), 0, False)
        assert b.grant("w") == (("pool1", 80), 0, False)
        assert b.grant("w") is None

    def test_delivery_dedup_is_exactly_once(self, lease_book):
        b = lease_book()
        cell, _, _ = b.grant("w")
        assert b.deliver(cell) is True
        assert b.deliver(cell) is False  # duplicate dropped
        assert not b.done()

    def test_foreign_cell_cannot_settle_or_finish_the_campaign(
            self, lease_book):
        """Only a cell pending in this campaign passes the gate: a
        delivery for any other cell changes nothing."""
        b = lease_book()
        b.grant("w")
        assert b.deliver(("pool1", 999)) is False
        assert b.deliver(("pool1", 40)) is True
        assert not b.done()              # pool1@80 never ran

    def test_missed_heartbeats_evict_and_requeue_with_blame(self, clock):
        """The broker times heartbeats on the shared clock hook; a silent
        worker loses its lease with blame, like a pool death."""
        broker = broker_over()
        broker._handle({"type": "hello", "worker": "w"})
        reply = broker._handle({"type": "lease", "worker": "w"})
        cell = (reply["target"], reply["count"])
        clock.t += 2.5  # past HEARTBEAT_TIMEOUT_S
        broker._sweep()
        book = broker.driver.book
        assert broker.beats == {}
        assert book.blames[cell] == 1 and book.expiries[cell] == 0
        assert cell in book.queue  # reclaimed for re-dispatch
        assert broker.driver.stats.worker_crashes == 1

    def test_frozen_clock_never_expires_a_lease(self, lease_book):
        b = lease_book(cell_timeout_s=0.001)
        b.grant("w")
        for _ in range(50):  # clock frozen: sweep forever, nothing expires
            assert b.expire() == ([], [])

    def test_jumped_clock_expires_the_lease(self, lease_book, clock):
        b = lease_book()
        cell, _, _ = b.grant("w")
        clock.t += 11.0
        assert b.expire() == (["w"], [])
        assert b.expiries[cell] == 1 and cell in b.queue

    def test_reclaimed_cell_waits_out_exactly_the_exponential_hold(
            self, lease_book, clock, constants):
        """Each incident holds its reclaimed cell for exactly the base
        hold times the factor per earlier incident, capped."""
        constants(HOLD_BASE_S=1.0, HOLD_FACTOR=2.0, HOLD_MAX_S=3.0)
        b = lease_book(cells=[("pool1", 40)])
        cell = ("pool1", 40)
        for attempt, hold in enumerate((1.0, 2.0, 3.0)):  # 4 s capped at 3
            assert b.grant("w") == (cell, attempt, False)
            clock.t += 11.0                 # past the 10 s lease
            b.expire()
            assert b.ready_at[cell] == clock.t + hold
            clock.t += hold - 0.5
            assert b.grant("w") is None     # still held
            clock.t += 0.5
        assert b.grant("w") == (cell, 3, False)
        assert b.held_s == 6.0

    def test_idle_worker_steals_only_stale_leases_of_others(self, lease_book,
                                                            clock, constants):
        constants(STEAL_AFTER_S=5.0)
        b = lease_book(cells=[("pool1", 40)])
        cell, _, _ = b.grant("a")
        assert b.grant("b") is None       # lease too young to steal
        clock.t += 6.0                    # past STEAL_AFTER_S
        assert b.grant("b") == (cell, 1, True)
        assert b.grant("a") is None       # a already holds it: no re-steal
        assert b.grant("b") is None       # so does b now
        assert b.deliver(cell) is True    # first result wins
        assert b.deliver(cell) is False   # the loser is deduplicated

    def test_repeated_eviction_quarantines_the_cell(self, lease_book, clock,
                                                    constants):
        constants(QUARANTINE_AFTER=2)
        b = lease_book(cells=[("pool1", 40)])
        for _ in range(2):
            clock.t += 3.0                # past any hold
            b.grant("w")
            verdicts = b.lose("w", blame=True)
        (cell, failure), = verdicts
        assert failure.kind == "quarantined"
        assert failure.message == "quarantined after 2 worker-fatal attempt(s)"
        assert b.done()

    def test_chronic_expiry_exhausts_into_timeout(self, lease_book, clock,
                                                  constants):
        constants(QUARANTINE_AFTER=99)
        b = lease_book(cells=[("pool1", 40)], max_retries=1)
        verdicts = []
        for _ in range(3):
            b.grant("w")
            clock.t += 11.0
            _, verdicts = b.expire()
            if verdicts:
                break
        (cell, failure), = verdicts
        assert failure.kind == "timeout"
        assert failure.error_type == "CellLeaseExpiredError"

    def test_late_result_for_requeued_cell_still_counts_once(self,
                                                             lease_book):
        b = lease_book(cells=[("pool1", 40)])
        cell, _, _ = b.grant("w")
        b.lose("w", blame=True)         # w evicted, cell requeued
        assert cell in b.queue
        assert b.deliver(cell) is True  # the "dead" worker's result lands
        assert cell not in b.queue      # and the requeue is cancelled
        assert b.done()


class TestResultFrames:
    """The broker decodes and checks a result frame before the book's
    exactly-once gate: a bad frame gets an error reply, counts nothing,
    and leaves the cell leased."""

    def leased(self, sweeps=(("pool1", (40, 80)),)):
        broker = broker_over(sweeps)
        broker._handle({"type": "hello", "worker": "w"})
        reply = broker._handle({"type": "lease", "worker": "w"})
        return broker, (reply["target"], reply["count"])

    def assert_nothing_counted(self, broker, cell):
        driver = broker.driver
        assert cell in driver.book.leases
        assert not driver.book.settled and not driver.book.done()
        assert driver.outcomes == {} and driver.failures == {}
        assert driver.stats.completed == 0
        assert driver.stats.duplicates_dropped == 0

    def test_undecodable_payload_is_refused_before_settling(self, clock):
        for frame in ({**result_frame(), "kind": "failure",
                       "payload": {"bogus": 1}},
                      result_frame(n_strikes="4500"),    # ill-typed field
                      {**result_frame(), "count": float("inf")}):
            broker, cell = self.leased()
            reply = broker._handle(frame)
            assert reply["type"] == "error"
            self.assert_nothing_counted(broker, cell)

    def test_foreign_cell_is_refused(self, clock):
        """A frame for a cell this campaign lacks, or whose record is
        another cell's, is refused."""
        def failure(target, count):
            return {"target_layer": target, "n_strikes": count,
                    "error_type": "ConfigError", "message": "x"}

        plain = (("pool1", (40, 80)),)
        arms = ((ARMS, (40, 80)),)
        for sweeps, frame in (
                (plain, {**result_frame(), "count": 999, "kind": "failure",
                         "payload": failure("pool1", 999)}),
                (plain, result_frame(target_layer="conv2", n_strikes=80)),
                (plain, result_frame(n_strikes=80)),
                (plain, {**result_frame(), "kind": "failure",
                         "payload": failure("pool1", 80)}),
                (plain, {**arms_frame(), "target": "pool1"}),
                (arms, arms_frame(n_strikes=80)),
                (arms, arms_frame(bank_cells=20000)),
                (arms, arms_frame(defense="tmr")),
                (arms, result_frame(target_layer=ARMS) | {"target": ARMS})):
            broker, cell = self.leased(sweeps)
            reply = broker._handle(frame)
            assert reply["type"] == "error", frame
            self.assert_nothing_counted(broker, cell)

    def test_own_arms_record_settles(self, clock):
        broker, cell = self.leased(((ARMS, (40,)),))
        assert broker._handle(arms_frame()) == {"type": "ack"}
        assert broker.driver.book.done()


class TestRespawn:
    def test_only_crashed_local_workers_are_replaced_within_budget(
            self, constants, monkeypatch):
        """A nonzero exit (an error, or a signal) is blamed and replaced
        and a clean exit never is; replacements stop after
        ``SERIAL_FALLBACK_AFTER`` per campaign and count as
        degradations."""
        constants(SERIAL_FALLBACK_AFTER=2)
        broker = broker_over(sweeps=(("pool1", (40,)),))
        spawned = []

        def spawn():
            spawned.append(SimpleNamespace(exitcode=None))
            broker._local[f"new-{len(spawned)}"] = spawned[-1]

        monkeypatch.setattr(broker, "_spawn_local", spawn)
        broker._local = {name: SimpleNamespace(exitcode=code)
                         for name, code in (("clean", 0), ("alive", None),
                                            ("crashed", 13), ("killed", -9))}
        broker._sweep()
        assert sorted(broker._local) == ["alive", "new-1", "new-2"]
        stats = broker.driver.stats
        assert (stats.worker_crashes, stats.degradations) == (2, 2)
        spawned[0].exitcode = 13
        broker._sweep()   # the budget of two is spent
        assert len(spawned) == 2
        assert sorted(broker._local) == ["alive", "new-2"]
        assert stats.worker_crashes == 3

    def test_local_workers_are_capped_at_max_workers(self, monkeypatch):
        """``local_workers`` beyond ``MAX_WORKERS`` (``repro serve
        --local-workers 4000``) spawns ``MAX_WORKERS``; no process starts
        here."""
        broker = broker_over(config=ServiceConfig(local_workers=4000))
        spawned = []
        monkeypatch.setattr(broker, "_spawn_local",
                            lambda: spawned.append(None))
        try:
            broker.start()
        finally:
            broker.close()
        assert len(spawned) == MAX_WORKERS


# ---------------------------------------------------------------------------
# The worker's side of the job frame
# ---------------------------------------------------------------------------


@pytest.fixture
def fake_broker():
    """Start a one-shot broker on a loopback socket that answers the
    first frame it gets with ``reply``; returns its address."""
    servers = []

    def start(reply):
        server = socket.create_server(("127.0.0.1", 0))
        servers.append(server)

        def answer():
            conn, _ = server.accept()
            with conn:
                recv_msg(conn)
                send_msg(conn, reply)

        threading.Thread(target=answer, daemon=True).start()
        return server.getsockname()[:2]

    yield start
    for server in servers:
        server.close()


JOB = {"type": "job", "protocol": 1, "heartbeat_interval_s": 0.25,
       "clean": 0.9, "base_seed": 5,
       "recipe": encode_recipe(WorkerRecipe()),
       "images": encode_array(np.zeros((2, 1, 28, 28))),
       "labels": encode_array(np.zeros(2, dtype=int))}


def without(frame, key):
    return {k: v for k, v in frame.items() if k != key}


class TestJobFrame:
    @pytest.mark.parametrize("reply", [
        {"type": "ok"},
        {**JOB, "type": "wait"},
        without(JOB, "base_seed"),
        {**JOB, "base_seed": "5"},
        {**JOB, "base_seed": 5.0},
        {**JOB, "base_seed": True},
        {**JOB, "clean": "0.9"},
        {**JOB, "clean": [0.9]},
        without(JOB, "heartbeat_interval_s"),
        {**JOB, "heartbeat_interval_s": 0},
        {**JOB, "heartbeat_interval_s": -0.25},
        {**JOB, "heartbeat_interval_s": "fast"},
        without(JOB, "recipe"),
        {**JOB, "recipe": {"bank_cells": "many"}},
        without(JOB, "images"),
        {**JOB, "labels": {"dtype": "i8", "data": "xx"}},
    ])
    def test_unrunnable_job_is_a_protocol_error(self, fake_broker, reply):
        """A hello reply the worker cannot run — not a job, a base seed
        that is no int, a clean baseline that is neither a float nor
        null, a beat cadence that is not positive, an undecodable recipe
        or array — is refused with ProtocolError."""
        with pytest.raises(ProtocolError):
            run_worker(fake_broker(reply), worker_id="w")

    def test_repro_work_refuses_in_one_line(self, fake_broker, capsys):
        from repro.cli import main

        host, port = fake_broker(without(JOB, "base_seed"))
        assert main(["work", "--broker", f"{host}:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ProtocolError:")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# Shard-level chaos directives
# ---------------------------------------------------------------------------


class TestShardChaos:
    def test_hostile_preset_arms_delivery_faults(self):
        spec = CHAOS_PRESETS["hostile"]
        assert spec.worker_disconnect_prob > 0
        assert spec.result_duplicate_prob > 0
        assert spec.result_delay_prob > 0

    def test_directives_drawn_at_dispatch_first_attempt_only(self):
        injector = ChaosInjector(ChaosSpec(
            worker_disconnect_prob=1.0, result_duplicate_prob=1.0,
            result_delay_prob=1.0, result_delay_s=0.5, seed=1))
        injector.campaign_cell_hook("pool1", 40)
        shard = injector.shard_fault("pool1", 40, attempt=0)
        assert shard == {"disconnect": True, "duplicate": True,
                         "delay": 0.5}
        assert injector.shard_fault("pool1", 40, attempt=1) is None
        assert injector.shard_fault("pool1", 80, attempt=0) is None

    def test_accessor_draws_nothing(self):
        injector = ChaosInjector(ChaosSpec(worker_disconnect_prob=0.5,
                                           result_duplicate_prob=0.5,
                                           seed=2))
        injector.campaign_cell_hook("pool1", 40)
        state = json.dumps(injector.rng.bit_generator.state)
        for _ in range(5):
            injector.shard_fault("pool1", 40)
            injector.cell_fault("pool1", 40)
        assert json.dumps(injector.rng.bit_generator.state) == state

    def test_draw_sequence_is_canonical_across_injectors(self):
        spec = ChaosSpec(worker_kill_prob=0.3, worker_disconnect_prob=0.3,
                         result_duplicate_prob=0.3, result_delay_prob=0.3,
                         seed=7)
        a, b = ChaosInjector(spec), ChaosInjector(spec)
        cells = [("pool1", c) for c in (40, 80, 120)]
        for target, count in cells:
            a.campaign_cell_hook(target, count)
            b.campaign_cell_hook(target, count)
        assert a._shard_faults == b._shard_faults
        assert a._cell_faults == b._cell_faults


# ---------------------------------------------------------------------------
# End-to-end acceptance
# ---------------------------------------------------------------------------


class TestDistributedParity:
    def test_kill_disconnect_duplicate_merges_serial_bytes(
            self, victim, spec3, serial_json, service, tmp_path):
        """The issue's acceptance scenario: a two-worker campaign where
        one worker is killed mid-cell, one result frame is dropped, and
        one result is delivered twice — and the merged checkpoint is
        byte-identical to the serial run."""
        def fault(target, count, attempt):
            if (target, count, attempt) == ("pool1", 40, 0):
                return ("kill", 0)
            return None

        def shard(target, count, attempt):
            if attempt:
                return None
            if (target, count) == ("pool1", 80):
                return {"disconnect": True}
            if (target, count) == ("pool1", 120):
                return {"duplicate": True}
            return None

        stats = SupervisorStats()
        ckpt = tmp_path / "ckpt.json"
        result = run(victim, spec3, checkpoint_path=ckpt, service=service,
                     supervisor=SupervisorConfig(cell_timeout_s=4.0),
                     fault_hook=fault, shard_hook=shard, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.worker_crashes >= 1       # the kill
        assert stats.lease_expiries >= 1       # the dropped result
        assert stats.duplicates_dropped >= 1   # the double delivery
        assert stats.retries >= 2
        assert stats.serial_fallback is False
        assert json.loads(ckpt.read_text())["format_version"] == 2

    def test_warm_shared_cache_dispatches_zero_cells(
            self, victim, spec3, serial_json, service, tmp_path):
        """Acceptance: a rerun against the shared cache re-executes
        nothing — every cell is served from disk, byte parity holds."""
        cache_dir = tmp_path / "cells"
        first = SupervisorStats()
        result = run(victim, spec3, service=service, cache=cache_dir,
                     stats=first)
        assert _to_json(result, complete=True) == serial_json
        assert first.dispatched == len(spec3.cells())

        warm = SupervisorStats()
        result = run(victim, spec3, service=service, cache=cache_dir,
                     stats=warm)
        assert _to_json(result, complete=True) == serial_json
        assert warm.dispatched == 0
        assert warm.cache_hits == len(spec3.cells())

    def test_cold_served_run_stores_each_cell_once(
            self, victim, spec3, serial_json, service, tmp_path,
            monkeypatch):
        """The campaign process is the cache's only writer: a cold
        served run stores each computed cell exactly once.  Every put —
        here or in a forked local worker — appends its key to one log."""
        log = tmp_path / "puts.log"
        real_put = CellCache.put

        def logged_put(self, key, outcome):
            with open(log, "a") as handle:
                handle.write(key + "\n")
            real_put(self, key, outcome)

        monkeypatch.setattr(CellCache, "put", logged_put)
        result = run(victim, spec3, service=service,
                     cache=tmp_path / "cells")
        assert _to_json(result, complete=True) == serial_json
        keys = log.read_text().split()
        assert len(keys) == len(set(keys)) == len(spec3.cells())

    def test_no_worker_degrades_to_in_process_serial(
            self, victim, spec3, serial_json, constants):
        """A broker nobody ever joins must not hang: past the grace
        period it finishes the campaign itself, serially, with parity."""
        constants(NO_WORKER_GRACE_S=0.5)
        stats = SupervisorStats()
        result = run(victim, spec3, service=ServiceConfig(), stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.serial_fallback is True
        assert stats.dispatched == len(spec3.cells())

    def test_dead_local_workers_are_respawned(self, victim, spec3,
                                              serial_json, service,
                                              constants):
        """Both local workers die on their first cell; the broker replaces
        them instead of waiting out the no-worker grace period, and the
        replacements finish the campaign with parity."""
        def fault(target, count, attempt):
            if attempt == 0 and (target, count) in {("pool1", 40),
                                                     ("pool1", 80)}:
                return ("kill", 0)
            return None

        constants(NO_WORKER_GRACE_S=60.0)
        stats = SupervisorStats()
        result = run(victim, spec3, service=service, fault_hook=fault,
                     stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.worker_crashes >= 2
        assert stats.serial_fallback is False

    def test_idle_worker_steals_a_wedged_lease(self, victim, spec3,
                                               serial_json, service,
                                               constants):
        """One cell hangs for a while on worker A; with the queue
        drained, worker B steals it past STEAL_AFTER_S and finishes
        first.  A's eventual duplicate is dropped; parity holds."""
        def fault(target, count, attempt):
            if (target, count, attempt) == ("pool1", 40, 0):
                return ("hang", 8.0)
            return None

        constants(STEAL_AFTER_S=1.0)
        stats = SupervisorStats()
        result = run(victim, spec3, service=service,
                     supervisor=SupervisorConfig(cell_timeout_s=120.0),
                     fault_hook=fault, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.steals >= 1
        assert stats.lease_expiries == 0  # healed by stealing, not expiry

    def test_chaos_storm_converges_with_parity(self, victim, spec3,
                                               serial_json, service):
        """Seeded kill/disconnect/duplicate/delay chaos all at once;
        the service still converges to the serial bytes."""
        injector = ChaosInjector(ChaosSpec(
            worker_kill_prob=0.3, worker_disconnect_prob=0.3,
            result_duplicate_prob=0.5, result_delay_prob=0.3,
            result_delay_s=0.05, seed=11))
        stats = SupervisorStats()
        result = run(victim, spec3, service=service,
                     supervisor=SupervisorConfig(cell_timeout_s=4.0),
                     before_cell=injector.campaign_cell_hook,
                     fault_hook=injector.cell_fault,
                     shard_hook=injector.shard_fault, stats=stats)
        assert _to_json(result, complete=True) == serial_json


class TestLocalWorkers:
    """The broker watches its own local workers by their process, in
    served and private (``workers=N``) campaigns alike."""

    def test_killed_local_worker_is_blamed_without_waiting_for_beats(
            self, victim, spec3, serial_json, constants):
        """With heartbeat eviction and the no-worker grace at 60 s and a
        30 s lease, a worker killed mid-cell is blamed at once — not
        expired — and replaced."""
        def fault(target, count, attempt):
            return ("kill", 0) if (target, count, attempt) == \
                ("pool1", 40, 0) else None

        constants(HEARTBEAT_TIMEOUT_S=60.0, NO_WORKER_GRACE_S=60.0)
        stats = SupervisorStats()
        result = run(victim, spec3, service=ServiceConfig(local_workers=2),
                     supervisor=SupervisorConfig(cell_timeout_s=30.0),
                     fault_hook=fault, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert (stats.worker_crashes, stats.lease_expiries) == (1, 0)
        assert stats.degradations == 1

    def test_hung_sole_worker_is_terminated_and_replaced(
            self, victim, spec3, serial_json):
        """The only local worker hangs 120 s past its 1 s lease: it is
        terminated (its cell charged only the expiry) and replaced, and
        the campaign does not wait out the hang."""
        def fault(target, count, attempt):
            return ("hang", 120.0) if (target, count, attempt) == \
                ("pool1", 80, 0) else None

        stats = SupervisorStats()
        result = run(victim, spec3, service=ServiceConfig(local_workers=1),
                     supervisor=SupervisorConfig(cell_timeout_s=1.0),
                     fault_hook=fault, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.lease_expiries >= 1 and stats.worker_crashes == 0
        assert stats.degradations >= 1
        assert stats.serial_fallback is False

    def test_spent_budget_reaches_the_last_rung_at_once(
            self, victim, spec3, serial_json, constants):
        """Workers killed on every cell spend a respawn budget of two;
        with no worker left the broker finishes in-process at once
        instead of waiting out a 60 s grace."""
        constants(SERIAL_FALLBACK_AFTER=2, NO_WORKER_GRACE_S=60.0,
                  QUARANTINE_AFTER=10, HOLD_BASE_S=0.01, HOLD_MAX_S=0.05)
        stats = SupervisorStats()
        result = run(victim, spec3, service=ServiceConfig(local_workers=2),
                     supervisor=SupervisorConfig(max_retries=10),
                     fault_hook=lambda *cell: ("kill", 0), stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert (stats.worker_crashes, stats.degradations) == (4, 2)
        assert stats.serial_fallback is True

    def test_private_campaign_answers_only_its_own_workers(
            self, victim, spec3, serial_json, monkeypatch):
        """``workers=2`` serves a loopback broker that refuses a hello, a
        lease and a result from any id it did not spawn."""
        replies = []
        spawn = CampaignBroker._spawn_local

        def spawn_then_intrude(broker):
            spawn(broker)
            for msg in ({"type": "hello", "worker": "intruder"},
                        {"type": "lease", "worker": "intruder"},
                        {**result_frame(), "worker": "intruder"}):
                with socket.create_connection(broker.address) as sock:
                    send_msg(sock, msg)
                    replies.append(recv_msg(sock))

        monkeypatch.setattr(CampaignBroker, "_spawn_local",
                            spawn_then_intrude)
        stats = SupervisorStats()
        result = run(victim, spec3, workers=2, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert [reply["type"] for reply in replies] == ["error"] * 6
        assert stats.workers_joined == 2

    def test_only_rebuilding_workers_get_the_recipe_and_slice(
            self, victim, spec3, serial_json, service, monkeypatch):
        """A served campaign's forked local workers adopt the caller's
        attack, so their job frames carry no recipe and no evaluation
        slice; a remote worker's hello still gets both, and the served
        bytes are the serial run's."""
        frames = {}
        job = CampaignBroker._job

        def recorded_job(broker, worker):
            frames[worker] = frame = job(broker, worker)
            return frame

        def remote_hello(address):
            with socket.create_connection(address) as sock:
                send_msg(sock, {"type": "hello", "worker": "remote"})
                recv_msg(sock)

        monkeypatch.setattr(CampaignBroker, "_job", recorded_job)
        result = run(victim, spec3, service=service, on_bound=remote_hello)
        assert _to_json(result, complete=True) == serial_json
        rebuild = {"recipe", "images", "labels"}
        local = [frame for worker, frame in frames.items()
                 if worker != "remote"]
        assert local and all(not rebuild & frame.keys() for frame in local)
        assert rebuild <= frames["remote"].keys()


class TestBlasCap:
    @staticmethod
    def openblas_threads(set_to=None):
        """Thread counts of the OpenBLAS libraries this process maps
        that report one (none where the memory map is unreadable), each
        first set to ``set_to`` threads when given."""
        import ctypes

        try:
            with open("/proc/self/maps") as lines:
                paths = {line.split(None, 5)[5].strip() for line in lines
                         if "openblas" in line.rsplit("/", 1)[-1].lower()}
        except OSError:
            return {}
        counts = {}
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_",
                         "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads"):
                if hasattr(lib, name.format("get")):
                    if set_to is not None:
                        getattr(lib, name.format("set"))(set_to)
                    counts[path] = getattr(lib, name.format("get"))()
                    break
        return counts

    def test_forked_worker_runs_one_blas_thread(self):
        from repro.core.service.worker import _one_blas_thread

        if not self.openblas_threads():
            pytest.skip("numpy maps no OpenBLAS here")
        parent, child = mp.get_context("fork").Pipe()

        def cap_and_report():
            # Undo any cap an in-process worker left on this process.
            self.openblas_threads(set_to=2)
            _one_blas_thread()
            child.send(self.openblas_threads())

        proc = mp.get_context("fork").Process(target=cap_and_report)
        proc.start()
        assert parent.poll(30), "the forked child never reported"
        counts = parent.recv()
        proc.join(timeout=10)
        assert proc.exitcode == 0
        assert counts and set(counts.values()) == {1}

    def test_unreadable_memory_map_is_a_silent_no_op(self, tmp_path):
        from repro.core.service.worker import _one_blas_thread

        before = self.openblas_threads()
        assert _one_blas_thread(str(tmp_path / "missing")) is None
        assert self.openblas_threads() == before


class TestMergeFailures:
    @pytest.mark.parametrize("transport", [
        {"workers": 2}, {"service": ServiceConfig(local_workers=2)}],
        ids=["workers", "service"])
    def test_checkpoint_failure_raises_the_serial_error(
            self, victim, spec3, tmp_path, transport):
        """A checkpoint that cannot be written fails a multi-worker
        campaign with the serial path's error; it does not just drop the
        delivering worker's connection."""
        ckpt = tmp_path / "missing" / "ckpt.json"
        with pytest.raises(FileNotFoundError):
            run(victim, spec3, checkpoint_path=ckpt)
        with pytest.raises(FileNotFoundError):
            run(victim, spec3, checkpoint_path=ckpt, **transport)
        assert not ckpt.parent.exists()
