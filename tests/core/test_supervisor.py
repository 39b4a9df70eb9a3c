"""Self-healing supervisor contract: crashes heal, parity survives.

The lease book's promise extends the parallel byte-parity contract into
hostile territory: a ``workers=N`` campaign whose local workers are
killed, whose cells hang past their lease, and whose respawn budget
runs out all the way to in-process serial must still converge — without
manual ``--resume`` — to the same final JSON a clean serial run
produces (minus only the failure records of genuinely poisoned cells).
"""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.chaos import ChaosInjector, ChaosSpec
from repro.config import SupervisorConfig
from repro.core import CampaignSpec, DeepStrike, run_campaign
from repro.core.campaign import _to_json
from repro.core.supervisor import SupervisorStats, _Driver

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fault hooks need fork to reach the worker")


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


def run(victim, spec, **kwargs):
    return run_campaign(fresh_attack(victim), victim.dataset.test_images,
                        victim.dataset.test_labels, spec, **kwargs)


@pytest.fixture(scope="module")
def serial_json(victim, small_spec):
    """The clean serial artifact every healed run must reproduce."""
    return _to_json(run(victim, small_spec), complete=True)


def kill_cell(poison):
    """Fault hook: kill the worker for ``poison`` on every attempt."""
    def hook(target, count, attempt):
        return ("kill", 0) if (target, count) == poison else None
    return hook


class TestCrashRecovery:
    def test_every_cell_killed_once_still_matches_serial_bytes(
            self, victim, small_spec, serial_json):
        """Chaos kills each cell's worker on first dispatch; retries
        heal every cell and the bytes match the undisturbed run."""
        injector = ChaosInjector(ChaosSpec(worker_kill_prob=1.0, seed=3))
        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2,
                     before_cell=injector.campaign_cell_hook,
                     fault_hook=injector.cell_fault, stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert injector.stats["killed_workers"] == len(small_spec.cells())
        assert stats.worker_crashes >= 1
        assert stats.retries >= 1
        assert stats.quarantined == 0

    def test_checkpoint_survives_the_carnage(self, victim, small_spec,
                                             serial_json, tmp_path):
        injector = ChaosInjector(ChaosSpec(worker_kill_prob=1.0, seed=3))
        ckpt = tmp_path / "ckpt.json"
        result = run(victim, small_spec, workers=2, checkpoint_path=ckpt,
                     before_cell=injector.campaign_cell_hook,
                     fault_hook=injector.cell_fault)
        assert _to_json(result, complete=True) == serial_json
        assert json.loads(ckpt.read_text())["format_version"] == 2


class TestQuarantine:
    def test_poison_cell_quarantined_rest_of_grid_intact(
            self, victim, small_spec, serial_json):
        """A cell that kills its worker on *every* attempt is isolated
        as kind="quarantined"; every other cell matches the serial run
        byte-for-byte (acceptance: serial minus the poisoned record)."""
        poison = ("pool1", 80)
        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2,
                     fault_hook=kill_cell(poison), stats=stats)

        assert stats.quarantined == 1
        assert [f.kind for f in result.failures] == ["quarantined"]
        failure = result.failures[0]
        assert (failure.target_layer, failure.n_strikes) == poison
        assert failure.error_type == "WorkerCrashError"

        healed = json.loads(_to_json(result, complete=True))
        golden = json.loads(serial_json)
        golden["sweeps"] = [
            {**sweep,
             "outcomes": [o for o in sweep["outcomes"]
                          if (sweep["target_layer"],
                              o["n_strikes"]) != poison]}
            for sweep in golden["sweeps"]]
        healed["failures"] = []
        assert healed == golden

    def test_innocent_bystanders_are_never_quarantined(
            self, victim, small_spec):
        """Cells that run beside the poison are never charged for its
        deaths — only the poison falls."""
        poison = ("pool1", 40)
        result = run(victim, small_spec, workers=2,
                     fault_hook=kill_cell(poison))
        done = {(s.target_layer, o.n_strikes)
                for s in result.sweeps for o in s.outcomes}
        assert done == set(small_spec.cells()) - {poison}


@pytest.fixture
def driver_over(clock, constants):
    """Factory for a driver leasing ``cells`` on the fake clock,
    reported to by hand the way the broker reports (1 s holds)."""
    constants(HOLD_BASE_S=1.0, HOLD_MAX_S=1.0)

    def make(cells, stats=None, **policy):
        spec = CampaignSpec(sweeps=(("pool1", tuple(c for _, c in cells)),),
                            eval_images=4, seed=5)
        return _Driver(spec, np.zeros((4, 1, 28, 28)),
                       np.zeros(4, dtype=int), 1.0, {}, {},
                       policy=SupervisorConfig(**{"cell_timeout_s": 5.0,
                                                  **policy}),
                       stats=stats)

    return make


OUTCOME = object()   # settled payloads are opaque to the driver


class TestLeases:
    """Lease expiry on the fake clock, reported the way the broker
    reports it (``TestAcceptance::test_real_hang_outlasts_its_lease`` is
    the real-process proof that a hung worker is terminated and its cell
    retried)."""

    def test_hanging_cell_cancelled_and_retried(self, clock, driver_over):
        """A cell stalling past its lease is reclaimed, the hung worker's
        other lease is re-queued without blame, and the retry
        completes."""
        stats = SupervisorStats()
        driver = driver_over([("pool1", 40), ("pool1", 80), ("pool1", 120)],
                             stats)
        hung = driver.grant("pool-0")[0]                 # lease ends at 105
        driver.settle(driver.grant("pool-0")[0], "outcome", OUTCOME)
        clock.t += 1.0
        mate = driver.grant("pool-0")[0]                 # lease ends at 106
        clock.t += 4.5
        assert driver.expire() == ["pool-0"]
        driver.lose("pool-0", blame=False)   # terminating it takes the mate
        book = driver.book
        assert book.expiries[hung] == 1 and book.blames[mate] == 0
        assert driver.grant("pool-1")[:2] == (mate, 1)   # blameless: no hold
        assert driver.grant("pool-1") is None            # hung is held
        clock.t += 1.0
        assert driver.grant("pool-1")[:2] == (hung, 1)
        assert driver.settle(mate, "outcome", OUTCOME)
        assert driver.settle(hung, "outcome", OUTCOME)
        assert book.done()
        assert stats.lease_expiries == 1 and stats.retries == 2
        assert stats.completed == 3 and stats.worker_crashes == 0

    def test_chronic_hang_exhausts_into_timeout_failure(self, clock,
                                                         driver_over):
        """A cell that hangs on every attempt burns its retry budget and
        is recorded as kind="timeout" — the campaign still finishes."""
        stats = SupervisorStats()
        driver = driver_over([("pool1", 40), ("pool1", 80)], stats,
                             max_retries=1)
        hung = driver.grant("pool-0")[0]
        driver.settle(driver.grant("pool-0")[0], "outcome", OUTCOME)
        for holder in ("pool-0", "pool-1"):
            clock.t += 5.5
            assert driver.expire() == [holder]
            clock.t += 1.0
            if not driver.book.done():
                assert driver.grant("pool-1")[0] == hung
        failure = driver.failures[hung]
        assert (failure.kind, failure.error_type) == \
            ("timeout", "CellLeaseExpiredError")
        assert driver.book.done()
        assert stats.exhausted == 1 and stats.lease_expiries == 2


class TestPoolLeaseEvents:
    """Local workers' events on the shared book (fake clock): a death
    with blame, a termination without."""

    def test_crash_blames_every_in_flight_lease(self, lease_book):
        b = lease_book(cells=[("pool1", 40), ("pool1", 80), ("pool1", 120)])
        flying = [b.grant("pool-0")[0] for _ in range(2)]
        assert b.lose("pool-0", blame=True) == []
        assert [b.blames[c] for c in flying] == [1, 1]
        assert b.leases == {} and b.incidents == 1
        assert b.blames[("pool1", 120)] == 0       # never dispatched
        assert ("pool1", 120) not in b.ready_at    # and not held back

    def test_blameless_teardown_spends_no_retry_budget(self, lease_book,
                                                       clock, constants):
        """With no retry budget at all, a cell torn down for another
        cell's sake still re-queues — immediately, not convicted."""
        constants(QUARANTINE_AFTER=99)
        b = lease_book(max_retries=0)
        hung = b.grant("pool-0")[0]          # lease ends at 110
        clock.t += 5.0
        mate = b.grant("pool-0")[0]          # lease ends at 115
        clock.t += 6.0
        _, verdicts = b.expire()
        assert [cell for cell, _ in verdicts] == [hung]   # budget 0: out
        assert b.lose("pool-0", blame=False) == []
        assert mate in b.queue and mate not in b.ready_at
        assert (b.blames[mate], b.expiries[mate]) == (0, 0)
        assert b.grant("pool-1") == (mate, 1, False)

    def test_cells_blamed_together_rerun_alone(self, lease_book, clock,
                                               constants):
        constants(QUARANTINE_AFTER=3)
        b = lease_book(cells=[("pool1", 40), ("pool1", 80), ("pool1", 120)])
        first, second = b.grant("pool-0")[0], b.grant("pool-0")[0]
        b.lose("pool-0", blame=True)
        assert b.isolating() and b.suspects == {first, second}
        clock.t += 1.0                               # past the hold
        assert b.grant("pool-1")[0] == first
        assert b.grant("pool-1") is None             # alone: nothing beside
        b.deliver(first)
        assert b.grant("pool-2")[0] == second        # still before the queue
        assert b.lose("pool-2", blame=True) == []    # crashes again, alone
        assert b.suspects == {second}                # and still runs alone
        clock.t += 1.0
        assert b.grant("pool-3")[0] == second
        b.deliver(second)
        assert not b.isolating()
        assert b.grant("pool-4")[0] == ("pool1", 120)

    def test_in_process_rung_counts_grants_like_the_transports(
            self, clock, driver_over, monkeypatch):
        """The fallback loop counts a re-grant as a retry, as the broker
        does."""
        from repro.core import supervisor as sup_mod

        monkeypatch.setattr(sup_mod, "_execute_cell",
                            lambda *args, **kwargs: OUTCOME)
        stats = SupervisorStats()
        driver = driver_over([("pool1", 40), ("pool1", 80)], stats)
        driver.grant("pool-0")
        driver.lose("pool-0", blame=True)
        clock.t += 1.0
        driver.run_in_process(None, {})
        assert driver.book.done()
        assert (stats.dispatched, stats.retries, stats.completed) == (3, 1, 2)


class TestDegradation:
    def test_repeated_carnage_falls_back_to_in_process_serial(
            self, victim, small_spec, serial_json, constants, monkeypatch):
        """Kill everything on every attempt with a tiny respawn budget:
        the broker replaces dead workers until the budget is spent, then
        finishes in-process with byte parity (directives cannot reach
        the in-process path).  The last rung runs on the caller's
        attack: rebuilding one from the recipe would raise here."""
        from repro.core import executor as executor_mod

        def kill_everything(target, count, attempt):
            return ("kill", 0)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the attack was rebuilt from its recipe")

        monkeypatch.setattr(executor_mod, "_build_state", no_rebuild)
        constants(SERIAL_FALLBACK_AFTER=2,
                  QUARANTINE_AFTER=10, HOLD_BASE_S=0.01, HOLD_MAX_S=0.05)

        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2,
                     fault_hook=kill_everything,
                     supervisor=SupervisorConfig(max_retries=10),
                     stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.serial_fallback is True
        assert stats.degradations >= 1
        assert stats.quarantined == 0


class TestClockDiscipline:
    """Lease deadlines live on the one injectable monotonic clock hook
    (``supervisor._monotonic``, read by the book and the broker alike) —
    wall time never enters the lease machinery, so a frozen or jumping
    system clock cannot expire (or immortalize) a healthy cell."""

    def test_frozen_clock_never_expires_leases(self, victim, small_spec,
                                               serial_json, monkeypatch):
        """With the monotonic source frozen, even an absurdly short
        lease never lapses: deadline = now forever, nothing expires."""
        from repro.core import supervisor as sup_mod

        frozen = sup_mod._monotonic()
        monkeypatch.setattr(sup_mod, "_monotonic", lambda: frozen)
        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2,
                     supervisor=SupervisorConfig(cell_timeout_s=1e-3),
                     stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.lease_expiries == 0

    def test_jumping_clock_expires_leases_without_wedging(
            self, victim, small_spec, constants, monkeypatch):
        """A monotonic source that leaps hours between reads expires
        every lease instantly — the supervisor must triage its way to a
        finished campaign (all kind="timeout"), never hang."""
        from repro.core import supervisor as sup_mod

        state = {"t": 0.0}

        def jumping():
            state["t"] += 1e6
            return state["t"]

        monkeypatch.setattr(sup_mod, "_monotonic", jumping)
        constants(HOLD_BASE_S=0.01, HOLD_MAX_S=0.02)
        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2,
                     supervisor=SupervisorConfig(cell_timeout_s=3600.0,
                                                 max_retries=1),
                     stats=stats)
        assert stats.lease_expiries >= 1
        assert {(f.target_layer, f.n_strikes) for f in result.failures} \
            == set(small_spec.cells())
        assert all(f.kind == "timeout" for f in result.failures)


class TestAcceptance:
    def test_real_hang_outlasts_its_lease(self, victim, small_spec,
                                          serial_json):
        """The one real-time hang: a worker stalls past a short lease
        on the real monotonic clock; it is terminated and the cell
        retried, with the serial bytes."""
        def hang_once(target, count, attempt):
            return (("hang", 120.0)
                    if (target, count, attempt) == ("pool1", 80, 0) else None)

        stats = SupervisorStats()
        result = run(victim, small_spec, workers=2, fault_hook=hang_once,
                     supervisor=SupervisorConfig(cell_timeout_s=1.0),
                     stats=stats)
        assert _to_json(result, complete=True) == serial_json
        assert stats.lease_expiries >= 1 and stats.retries >= 1

    def test_kill_plus_hang_completes_without_manual_resume(
            self, victim, serial_json, small_spec, tmp_path, clock,
            constants):
        """The issue's acceptance scenario: one poison cell (SIGKILL
        every attempt) and one hanging cell in the same campaign.  The
        hang is retried, the poison is quarantined, nothing needs
        ``--resume``, and the checkpoint equals the clean serial bytes
        minus the quarantined cell's records.  Real processes die and
        hang, but leases run on the fake clock: it moves only when the
        hang is dispatched, straight past that lease's deadline (holds
        are zero, so no hold waits on a clock that stands still)."""
        spec = CampaignSpec(sweeps=(("pool1", (40, 80, 120)),),
                            eval_images=16, seed=5)
        # The poison rides in the first dispatch wave; the hang sits at
        # the back of the queue so it runs (and overstays its lease) in
        # a later round.
        poison = ("pool1", 40)
        hung = ("pool1", 120)
        constants(HOLD_BASE_S=0.0)

        def hostile(target, count, attempt):
            if (target, count) == poison:
                return ("kill", 0)
            if (target, count) == hung and attempt == 0:
                clock.t += 7.0   # past the 6 s lease granted just now
                return ("hang", 120.0)
            return None

        ckpt = tmp_path / "ckpt.json"
        stats = SupervisorStats()
        result = run(victim, spec, workers=2, checkpoint_path=ckpt,
                     fault_hook=hostile,
                     supervisor=SupervisorConfig(cell_timeout_s=6.0),
                     stats=stats)

        assert stats.quarantined == 1 and stats.lease_expiries >= 1
        assert [f.kind for f in result.failures] == ["quarantined"]

        clean = json.loads(_to_json(run(victim, spec), complete=True))
        clean["sweeps"] = [
            {**sweep,
             "outcomes": [o for o in sweep["outcomes"]
                          if (sweep["target_layer"],
                              o["n_strikes"]) != poison]}
            for sweep in clean["sweeps"]]
        healed = json.loads(_to_json(result, complete=True))
        healed["failures"] = []
        assert healed == clean
