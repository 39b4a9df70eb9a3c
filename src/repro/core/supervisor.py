"""One lease book under two transports: the campaign failure policy.

``run_campaign`` runs pending cells serially, on a process pool
(``workers>1``) or through the socket broker (``service=``,
:mod:`repro.core.service.broker`).  The failure policy of the two
fault-tolerant transports exists once, here:

* :class:`_LeaseBook` is the pure lease state machine and the only code
  that decides a leased cell's fate: granting, settling exactly once,
  lease expiry, a lost worker with or without blame, re-running alone
  the cells one crash blamed together, the exponential hold before a
  reclaimed cell re-dispatches, and the quarantine or timeout verdict
  once a cell's retry budget is spent.  It reads time only
  through :data:`_monotonic`, the one clock hook of both transports.
* :class:`_Driver`, built once per campaign by
  :func:`~repro.core.campaign.run_campaign` and handed to whichever
  path runs it, owns everything around the book: the lease policy, the
  ``before_cell`` prelude, the merge into ``outcomes``/``failures`` with
  a checkpoint after every settle, the verdict records,
  :class:`SupervisorStats`, and :meth:`_Driver.run_in_process` — the
  one in-process cell loop behind the serial path and both transports'
  last rung, which runs on the caller's own attack.
* The pool transport (:func:`run_supervised`) only reports events to
  the book: a ``BrokenProcessPool`` loses every lease the pool held,
  with blame; an expired lease tears the pool down, losing the other
  in-flight leases without blame.  It wakes on ``wait(FIRST_COMPLETED)``
  bounded by the book's next deadline, and keeps its degradation
  ladder: ``DEGRADE_AFTER`` pool deaths at one size halve the workers,
  ``SERIAL_FALLBACK_AFTER`` deaths in all finish the campaign in-process.
  Forked pool workers adopt the caller's attack; spawned ones rebuild it
  from the :class:`~repro.core.executor.WorkerRecipe` derived from it.

Retries re-derive the same per-cell RNG stream, so a campaign that
crashed, hung, healed and degraded merges into checkpoint JSON
byte-identical to an undisturbed serial run (minus quarantined cells'
failure records) — ``tests/core/test_supervisor.py`` enforces it.
Pools are built through :mod:`repro.core.executor` and checkpoints
written through :mod:`repro.core.campaign`, both looked up at call time
so tests can patch them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SupervisorConfig
from ..errors import ReproError
from . import campaign as _campaign
from . import executor as _exec
from .campaign import (
    CampaignResult,
    CampaignSpec,
    CellFailure,
    _assemble,
    _execute_cell,
    _failure_from,
    _to_json,
)
from .evaluation import AttackOutcome

__all__ = ["SupervisorStats", "run_supervised"]

#: The one clock of the lease machinery — monotonic, so a frozen or
#: jumping *wall* clock can never expire (or immortalize) a lease.
#: Module-level so tests can substitute a fake clock for both transports.
_monotonic = time.monotonic

Cell = Tuple[str, int]
Verdicts = List[Tuple[Cell, CellFailure]]

#: Ceiling on the pool size whatever ``workers=`` asks for (a
#: fat-fingered ``--workers 4000`` should not fork-bomb the host).
MAX_WORKERS = 32
#: The policy beyond ``SupervisorConfig``: blames that quarantine a
#: cell; an incident's hold (s), the base times the factor per earlier
#: incident, capped; pool deaths at one size before halving, and in all
#: before the in-process rung (also the broker's local-respawn budget);
#: the lease age (s) after which an idle broker worker may steal it.
QUARANTINE_AFTER = 2
HOLD_BASE_S, HOLD_FACTOR, HOLD_MAX_S = 0.05, 2.0, 2.0
DEGRADE_AFTER, SERIAL_FALLBACK_AFTER = 2, 6
STEAL_AFTER_S = 30.0


@dataclass
class SupervisorStats:
    """Counters of one campaign run, on any path (serial, pool, broker).

    ``dispatched`` counts cells handed to an executor — retries and
    steals included, cache hits excluded — which is how warm-cache runs
    prove they recomputed nothing (``dispatched == 0``).  ``retries``
    counts the dispatches of a cell that had been granted before, and
    ``completed`` rises once per settled outcome, in this process.
    """

    dispatched: int = 0
    completed: int = 0
    cache_hits: int = 0
    retries: int = 0
    worker_crashes: int = 0   # pool deaths and missed-heartbeat evictions
    lease_expiries: int = 0   # leases reclaimed at their deadline
    quarantined: int = 0
    exhausted: int = 0        # cells timed out once their budget ran out
    degradations: int = 0     # pool worker-count halvings
    serial_fallback: bool = False
    backoff_s: float = 0.0    # total hold before re-dispatch
    workers_joined: int = 0   # broker only from here on
    steals: int = 0           # second leases granted to idle workers
    duplicates_dropped: int = 0  # deliveries refused by the exactly-once gate

    def describe(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _Lease:
    """One grant of one cell to one worker."""

    worker: str
    granted: float              # monotonic grant time (steal-eligibility age)
    deadline: Optional[float]   # None: the lease never expires


class _LeaseBook:
    """The lease state machine (see the module docstring).

    A pending cell is *queued* (perhaps held until ``ready_at``),
    *leased* to one or more workers, *settled* by its first delivery, or
    *convicted* with a quarantine/timeout verdict.  Blames (worker-fatal
    losses) and expiries spend the cell's retry budget; a blameless loss
    does not; ``steal`` lets idle workers steal stale leases (broker
    only).  Methods are unsynchronized — :class:`_Driver` serializes
    access under its lock.
    """

    def __init__(self, cells: List[Cell], policy: SupervisorConfig,
                 steal: bool) -> None:
        self.policy = policy
        self.steal = steal
        self.order = {cell: i for i, cell in enumerate(cells)}
        self.queue: List[Cell] = list(cells)
        self.ready_at: Dict[Cell, float] = {}
        self.leases: Dict[Cell, List[_Lease]] = {}
        self.grants: Dict[Cell, int] = defaultdict(int)
        self.blames: Dict[Cell, int] = defaultdict(int)
        self.expiries: Dict[Cell, int] = defaultdict(int)
        self.suspects: set = set()   # blamed together: each re-runs alone
        self.settled: set = set()
        self.verdicts: Dict[Cell, CellFailure] = {}
        self.incidents = 0
        self.held_s = 0.0

    def done(self) -> bool:
        return len(self.settled) + len(self.verdicts) == len(self.order)

    def isolating(self) -> bool:
        return bool(self.suspects)

    # -- granting -------------------------------------------------------------

    def grant(self, worker: str) -> Optional[Tuple[Cell, int, bool]]:
        """Lease the next cell to ``worker`` as ``(cell, attempt,
        stolen)``, or None when nothing may run on it now.

        Suspects come first and run alone: one is granted only while no
        lease is out, and nothing else while it runs.  Then the queue in
        canonical order, skipping held cells; with nothing grantable, a
        worker may steal the oldest lease of another worker aged past
        :data:`STEAL_AFTER_S`.  ``attempt`` counts the cell's earlier
        grants.
        """
        now = _monotonic()
        if self.suspects and self.leases:
            return None
        ready = [cell for cell in self.queue
                 if (cell in self.suspects or not self.suspects)
                 and self.ready_at.get(cell, now) <= now]
        cell = ready[0] if ready else self._stale(worker, now)
        if cell is None:
            return None
        if ready:
            self.queue.remove(cell)
            self.ready_at.pop(cell, None)
        attempt = self.grants[cell]
        self.grants[cell] += 1
        timeout = self.policy.cell_timeout_s
        self.leases.setdefault(cell, []).append(
            _Lease(worker, now, now + timeout if timeout else None))
        return cell, attempt, not ready

    def _stale(self, worker: str, now: float) -> Optional[Cell]:
        if not self.steal:
            return None
        held = [(min(lease.granted for lease in leases), cell)
                for cell, leases in self.leases.items()
                if worker not in {lease.worker for lease in leases}]
        stale = [pair for pair in held if now - pair[0] >= STEAL_AFTER_S]
        return min(stale)[1] if stale else None

    # -- settling -------------------------------------------------------------

    def deliver(self, cell: Cell) -> bool:
        """The exactly-once gate: True only for the delivery that settles
        a pending cell of this campaign; a duplicate, a convicted cell or
        a cell foreign to the campaign gets False and changes nothing."""
        if cell not in self.order or cell in self.settled \
                or cell in self.verdicts:
            return False
        self.settled.add(cell)
        self.leases.pop(cell, None)
        self.ready_at.pop(cell, None)
        self.suspects.discard(cell)
        if cell in self.queue:   # reclaimed, then the old result landed
            self.queue.remove(cell)
        return True

    # -- losing leases --------------------------------------------------------

    def expire(self) -> Tuple[int, Verdicts]:
        """Reclaim every lease past its deadline: ``(leases expired,
        new verdicts)``."""
        now = _monotonic()
        count, lost = self._drop(
            lambda lease: lease.deadline is not None and now > lease.deadline,
            self.expiries)
        return count, self._reclaim(lost, isolate=False)

    def lose(self, worker: str, *, blame: bool) -> Verdicts:
        """Reclaim every lease ``worker`` held.  With ``blame`` (its
        process died or its heartbeat stopped) each cell is charged a
        worker-fatal attempt, and cells blamed together re-run alone;
        without (torn down for another cell's sake, or departed) they
        re-queue with their budget intact."""
        count, lost = self._drop(lambda lease: lease.worker == worker,
                                 self.blames if blame else None)
        if blame:
            return self._reclaim(lost, isolate=count > 1)
        self._requeue(lost, 0.0)
        return []

    def _drop(self, doomed: Callable[[_Lease], bool],
              charge: Optional[Dict[Cell, int]]) -> Tuple[int, List[Cell]]:
        """Remove the leases ``doomed`` picks, charging each to its cell;
        returns their count and the cells left with no lease."""
        count, lost = 0, []
        for cell, leases in list(self.leases.items()):
            keep = [lease for lease in leases if not doomed(lease)]
            dropped = len(leases) - len(keep)
            count += dropped
            if charge is not None:
                charge[cell] += dropped
            if keep:
                self.leases[cell] = keep
            elif dropped:
                del self.leases[cell]
                lost.append(cell)
        return count, lost

    def _reclaim(self, cells: List[Cell], *, isolate: bool) -> Verdicts:
        """One incident: convict the cells whose budget is spent, hold the
        rest back before re-dispatch."""
        if not cells:
            return []
        self.incidents += 1
        verdicts = [(cell, failure) for cell in cells
                    if (failure := self._verdict(cell)) is not None]
        self.verdicts.update(verdicts)
        self.suspects.difference_update(self.verdicts)
        survivors = [cell for cell in cells if cell not in self.verdicts]
        if isolate:
            self.suspects.update(survivors)
        self._requeue(survivors, self._hold())
        return verdicts

    def _verdict(self, cell: Cell) -> Optional[CellFailure]:
        """The one quarantine/timeout rule: ``QUARANTINE_AFTER`` blames
        quarantine a cell; past ``max_retries`` charged attempts it times
        out when expiries dominate and is quarantined otherwise."""
        blames, expiries = self.blames[cell], self.expiries[cell]
        if blames >= QUARANTINE_AFTER:
            message = f"quarantined after {blames} worker-fatal attempt(s)"
        elif blames + expiries <= self.policy.max_retries:
            return None
        elif expiries >= blames:
            return CellFailure(cell[0], cell[1], "CellLeaseExpiredError",
                               f"lease expired on {expiries} of "
                               f"{blames + expiries} attempt(s)", "timeout")
        else:
            message = (f"retry budget exhausted after {blames} "
                       f"worker-fatal attempt(s)")
        return CellFailure(cell[0], cell[1], "WorkerCrashError", message,
                           "quarantined")

    def _hold(self) -> float:
        """The exponential hold of the latest incident."""
        delay = min(HOLD_BASE_S * HOLD_FACTOR ** (self.incidents - 1),
                    HOLD_MAX_S)
        self.held_s += delay
        return delay

    def _requeue(self, cells: List[Cell], hold: float) -> None:
        if hold:
            self.ready_at.update(dict.fromkeys(cells, _monotonic() + hold))
        self.queue = sorted(self.queue + cells, key=self.order.__getitem__)

    def next_event(self) -> Optional[float]:
        """Seconds until the next lease deadline or hold release (None
        when no timed event is pending)."""
        times = [lease.deadline for leases in self.leases.values()
                 for lease in leases if lease.deadline is not None]
        times.extend(self.ready_at.values())
        return max(0.0, min(times) - _monotonic()) if times else None


class _Driver:
    """One campaign around its lease book (see the module docstring).

    ``outcomes``/``failures`` arrive pre-populated on a resumed run and
    are merged in place.  Every method that touches the book holds
    ``lock``, so the broker's connection threads may call them too.
    """

    def __init__(self, spec: CampaignSpec, images: np.ndarray,
                 labels: np.ndarray, clean: float,
                 outcomes: Dict[Cell, AttackOutcome],
                 failures: Dict[Cell, CellFailure], *,
                 policy: SupervisorConfig, checkpoint_path=None,
                 fault_hook: Optional[Callable] = None,
                 stats: Optional[SupervisorStats] = None,
                 steal: bool = False) -> None:
        policy.validate()
        self.spec = spec
        self.images = images
        self.labels = labels
        self.clean = clean
        self.outcomes = outcomes
        self.failures = failures
        self.checkpoint_path = checkpoint_path
        self.fault_hook = fault_hook
        self.stats = stats if stats is not None else SupervisorStats()
        self.lock = threading.RLock()
        pending = [c for c in spec.cells()
                   if c not in outcomes and c not in failures]
        self.book = _LeaseBook(pending, policy, steal)

    def result(self) -> CampaignResult:
        self.stats.backoff_s += self.book.held_s
        return _assemble(self.spec, self.clean, self.outcomes, self.failures)

    def _checkpoint(self) -> None:
        if self.checkpoint_path is not None:
            _campaign._atomic_write_text(
                self.checkpoint_path,
                _to_json(_assemble(self.spec, self.clean, self.outcomes,
                                   self.failures), complete=False))

    def prelude(self, before_cell: Optional[Callable[[str, int], None]]
                ) -> None:
        """Fire ``before_cell`` once per pending cell, in canonical order,
        before any dispatch (so stateful chaos hooks decide the same at
        every worker count); a ``ReproError`` fails the cell."""
        if before_cell is None:
            return
        for cell in list(self.book.queue):
            try:
                before_cell(*cell)
            except ReproError as exc:
                self.settle(cell, "failure", _failure_from(*cell, exc))

    # -- events ---------------------------------------------------------------

    def grant(self, worker: str) -> Optional[Tuple[Cell, int, object]]:
        """Grant ``worker`` its next cell and count the dispatch; returns
        ``(cell, attempt, fault directive)`` or None."""
        with self.lock:
            granted = self.book.grant(worker)
            if granted is None:
                return None
            cell, attempt, stolen = granted
            self._dispatched(attempt)
            self.stats.steals += stolen
            fault = (self.fault_hook(cell[0], cell[1], attempt)
                     if self.fault_hook is not None else None)
        return cell, attempt, fault

    def _dispatched(self, attempt: int) -> None:
        self.stats.dispatched += 1
        self.stats.retries += attempt > 0

    def settle(self, cell: Cell, kind: str, payload) -> bool:
        """Merge a delivery through the exactly-once gate; False (counted
        as a dropped duplicate) when it does not settle the cell."""
        with self.lock:
            if not self.book.deliver(cell):
                self.stats.duplicates_dropped += 1
                return False
            if kind == "outcome":
                self.outcomes[cell] = payload
                self.stats.completed += 1
            else:
                self.failures[cell] = payload
            self._checkpoint()
        return True

    def expire(self) -> int:
        with self.lock:
            count, verdicts = self.book.expire()
            self.stats.lease_expiries += count
            self._convict(verdicts)
        return count

    def lose(self, worker: str, *, blame: bool) -> None:
        with self.lock:
            self.stats.worker_crashes += blame
            self._convict(self.book.lose(worker, blame=blame))

    def _convict(self, verdicts: Verdicts) -> None:
        for cell, failure in verdicts:
            self.failures[cell] = failure
            if failure.kind == "timeout":
                self.stats.exhausted += 1
            else:
                self.stats.quarantined += 1
            self._checkpoint()

    # -- the in-process cell loop ---------------------------------------------

    def run_in_process(self, attack, blind_box: dict,
                       before_cell: Optional[Callable] = None) -> None:
        """Run the book's cells in this process until it is done: the
        serial path (``before_cell`` fires right before each cell) and
        both transports' last rung (chaos directives are ignored — there
        is no worker to kill — but in-cell ``ReproError``s still fail
        only their cell).  A ``KeyboardInterrupt`` propagates with the
        last checkpoint valid on disk."""
        while True:
            with self.lock:
                if self.book.done():
                    return
                granted = self.book.grant("in-process")
                wait_s = None if granted else self.book.next_event()
            if granted is None:   # reclaimed cells still on hold
                time.sleep(wait_s or 0.0)
                continue
            cell, attempt, _ = granted
            try:
                if before_cell is not None:
                    before_cell(*cell)
                with self.lock:
                    self._dispatched(attempt)
                outcome = _execute_cell(attack, blind_box, self.images,
                                        self.labels, self.spec.seed,
                                        cell[0], cell[1], clean=self.clean)
            except ReproError as exc:
                self.settle(cell, "failure", _failure_from(*cell, exc))
            else:
                self.settle(cell, "outcome", outcome)

    def fall_back(self, attack) -> None:
        """The last rung: no pool or worker left, finish in-process on
        the caller's own ``attack`` (this is the submitting process)."""
        self.stats.serial_fallback = True
        self.run_in_process(attack, {})


# ---------------------------------------------------------------------------
# The pool transport
# ---------------------------------------------------------------------------


def _hard_shutdown(pool) -> None:
    """Tear a pool down without waiting on hung or dead workers (their
    handles are taken first: ``shutdown`` drops the pool's own)."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - teardown best effort
            pass


def _pool_round(driver: _Driver, attack, size: int, name: str) -> bool:
    """Serve the book from one fresh pool of ``size`` workers until it
    drains, or until isolation starts or ends; True if the pool died.

    Forked workers adopt the live ``attack`` (inherited, not pickled);
    spawned workers rebuild it from its recipe.  Grants are incremental
    (never more cells out than workers) so a lease times execution, not
    queueing.
    """
    book = driver.book
    ctx = _exec._mp_context()
    forked = ctx.get_start_method() == "fork"
    pool = _exec.ProcessPoolExecutor(
        max_workers=size, mp_context=ctx, initializer=_exec._init_worker,
        initargs=(None if forked else _exec.WorkerRecipe.from_attack(attack),
                  driver.images, driver.labels, driver.clean,
                  attack if forked else None))
    isolating = book.isolating()
    futures: Dict[object, Cell] = {}
    died = True
    try:
        while True:
            while len(futures) < size and book.isolating() == isolating:
                granted = driver.grant(name)
                if granted is None:
                    break
                cell, _, fault = granted
                futures[pool.submit(_exec._worker_cell, cell[0], cell[1],
                                    driver.spec.seed, fault)] = cell
            if not futures:
                if book.done() or book.isolating() != isolating:
                    died = False
                    return False
                time.sleep(book.next_event() or 0.0)   # reclaimed cells on hold
                continue
            done, _ = wait(futures, timeout=book.next_event(),
                           return_when=FIRST_COMPLETED)
            crashed = [f for f in done
                       if isinstance(f.exception(), BrokenProcessPool)]
            for future in done:
                cell = futures.pop(future)
                if future not in crashed:
                    driver.settle(cell, *future.result())
            if crashed:   # settled results first, then every lease left
                driver.lose(name, blame=True)
                return True
            if driver.expire():
                driver.lose(name, blame=False)
                return True
    finally:
        if died:   # a dead pool, an expired lease, or an interrupt
            _hard_shutdown(pool)
        else:
            pool.shutdown(wait=True, cancel_futures=True)


def run_supervised(driver: _Driver, attack, workers: int) -> None:
    """Settle the pending cells of ``driver`` on supervised process
    pools of up to ``workers`` processes, under the driver's lease
    policy.

    :func:`~repro.core.campaign.run_campaign` builds the driver and
    runs its ``before_cell`` prelude; this transport only moves cells.
    Forked workers adopt the caller's ``attack`` and the in-process rung
    runs on it, while spawned workers rebuild it from its recipe.
    """
    size = max(1, min(workers, MAX_WORKERS))
    deaths = at_size = 0   # the degradation ladder
    while not driver.book.done():
        if deaths >= SERIAL_FALLBACK_AFTER:
            driver.fall_back(attack)
            break
        if not _pool_round(driver, attack,
                           1 if driver.book.isolating() else size,
                           f"pool-{deaths}"):
            continue
        deaths += 1
        at_size += 1
        if at_size >= DEGRADE_AFTER and size > 1:
            size, at_size = size // 2, 0
            driver.stats.degradations += 1
