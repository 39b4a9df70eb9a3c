"""One lease book under one transport: the campaign failure policy.

``run_campaign`` runs pending cells serially or, with more than one
worker, through the socket broker (:mod:`repro.core.service.broker`):
``workers=N`` alone on a private loopback broker that answers only the
local workers it spawned, ``service=`` on a broker any worker may join.
The failure policy exists once, here:

* :class:`_LeaseBook` is the pure lease state machine and the only code
  that decides a leased cell's fate: granting, settling exactly once,
  lease expiry, a lost worker with or without blame, re-running alone
  the cells one crash blamed together, the exponential hold before a
  reclaimed cell re-dispatches, an idle worker's steal of a stale
  lease, and the quarantine or timeout verdict once a cell's retry
  budget is spent.  It reads time only through :data:`_monotonic`, the
  one clock hook of the lease machinery.
* :class:`_Driver`, built once per campaign by
  :func:`~repro.core.campaign.run_campaign` and handed to whichever
  path runs it, owns everything around the book: the lease policy, the
  ``before_cell`` prelude, the merge into ``outcomes``/``failures`` with
  a checkpoint after every settle, the verdict records,
  :class:`SupervisorStats`, and :meth:`_Driver.run_in_process` — the
  one in-process cell loop behind the serial path and the broker's last
  rung, which runs on the caller's own attack.

The broker only reports events to the book: a local worker's process
exit or a remote worker's silence loses its leases with blame, an
expired lease is reclaimed (and a local worker holding it terminated),
a ``bye`` loses leases without blame.

Retries re-derive the same per-cell RNG stream, so a campaign that
crashed, hung, healed and degraded merges into checkpoint JSON
byte-identical to an undisturbed serial run (minus quarantined cells'
failure records) — ``tests/core/test_supervisor.py`` enforces it.
Checkpoints are written through :mod:`repro.core.campaign`, looked up
at call time so tests can patch the writer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SupervisorConfig
from ..errors import ReproError
from . import campaign as _campaign
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

__all__ = ["SupervisorStats"]

#: The one clock of the lease machinery — monotonic, so a frozen or
#: jumping *wall* clock can never expire (or immortalize) a lease.
#: Module-level so tests can substitute a fake clock for book and broker.
_monotonic = time.monotonic

Cell = Tuple[str, int]
Verdicts = List[Tuple[Cell, CellFailure]]

#: Ceiling on the local workers a broker spawns, whatever ``workers=``
#: or ``local_workers`` asks for (a fat-fingered ``--workers 4000``
#: should not fork-bomb the host).
MAX_WORKERS = 32
#: The policy beyond ``SupervisorConfig``: blames that quarantine a
#: cell; an incident's hold (s), the base times the factor per earlier
#: incident, capped; the local workers replaced after dying or
#: overrunning a lease before the in-process rung; the lease age (s)
#: after which an idle worker may steal it.
QUARANTINE_AFTER = 2
HOLD_BASE_S, HOLD_FACTOR, HOLD_MAX_S = 0.05, 2.0, 2.0
SERIAL_FALLBACK_AFTER = 6
STEAL_AFTER_S = 30.0


@dataclass
class SupervisorStats:
    """Counters of one campaign run, on either path (serial, broker).

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
    worker_crashes: int = 0   # local worker deaths and heartbeat evictions
    lease_expiries: int = 0   # leases reclaimed at their deadline
    quarantined: int = 0
    exhausted: int = 0        # cells timed out once their budget ran out
    degradations: int = 0     # local workers replaced (died or overran)
    serial_fallback: bool = False
    backoff_s: float = 0.0    # total hold before re-dispatch
    workers_joined: int = 0   # distinct workers that registered
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
    does not.  Methods are unsynchronized — :class:`_Driver` serializes
    access under its lock.
    """

    def __init__(self, cells: List[Cell], policy: SupervisorConfig) -> None:
        self.policy = policy
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

    def expire(self) -> Tuple[List[str], Verdicts]:
        """Reclaim every lease past its deadline: ``(the worker of each
        expired lease, new verdicts)``."""
        now = _monotonic()
        dropped, lost = self._drop(
            lambda lease: lease.deadline is not None and now > lease.deadline,
            self.expiries)
        return [lease.worker for lease in dropped], \
            self._reclaim(lost, isolate=False)

    def lose(self, worker: str, *, blame: bool) -> Verdicts:
        """Reclaim every lease ``worker`` held.  With ``blame`` (its
        process died or its heartbeat stopped) each cell is charged a
        worker-fatal attempt, and cells blamed together re-run alone;
        without (torn down for another cell's sake, or departed) they
        re-queue with their budget intact."""
        dropped, lost = self._drop(lambda lease: lease.worker == worker,
                                   self.blames if blame else None)
        if blame:
            return self._reclaim(lost, isolate=len(dropped) > 1)
        self._requeue(lost, 0.0)
        return []

    def _drop(self, doomed: Callable[[_Lease], bool],
              charge: Optional[Dict[Cell, int]]
              ) -> Tuple[List[_Lease], List[Cell]]:
        """Remove the leases ``doomed`` picks, charging each to its cell;
        returns them and the cells left with no lease."""
        dropped: List[_Lease] = []
        lost: List[Cell] = []
        for cell, leases in list(self.leases.items()):
            gone = [lease for lease in leases if doomed(lease)]
            if not gone:
                continue
            dropped += gone
            if charge is not None:
                charge[cell] += len(gone)
            keep = [lease for lease in leases if not doomed(lease)]
            if keep:
                self.leases[cell] = keep
            else:
                del self.leases[cell]
                lost.append(cell)
        return dropped, lost

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
                 stats: Optional[SupervisorStats] = None) -> None:
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
        self.book = _LeaseBook(pending, policy)

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

    def expire(self) -> List[str]:
        """Reclaim the leases past their deadline; returns the worker of
        each."""
        with self.lock:
            workers, verdicts = self.book.expire()
            self.stats.lease_expiries += len(workers)
            self._convict(verdicts)
        return workers

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
        the broker's last rung (chaos directives are ignored — there is
        no worker to kill — but in-cell ``ReproError``s still fail only
        their cell).  A ``KeyboardInterrupt`` propagates with the
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
        """The last rung: no worker left, finish in-process on the
        caller's own ``attack`` (this is the submitting process)."""
        self.stats.serial_fallback = True
        self.run_in_process(attack, {})

