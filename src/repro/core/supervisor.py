"""Self-healing campaign supervision: leases, retries, quarantine.

Every ``workers>1`` campaign runs here.  A fail-fast pool — one dead
worker aborts the run and waits for a human ``--resume`` — is the
wrong posture for DeepStrike's threat model: campaigns are long fleets
of independent cells running in an environment the attack itself
destabilizes.  So the pool is supervised, over the worker entry points
of :mod:`repro.core.executor`, and keeps the campaign alive on its own:

* **Lease-based dispatch.**  Every in-flight cell carries a lease
  (``SupervisorConfig.cell_timeout_s``).  Cells are dispatched
  incrementally — never more outstanding than the pool has workers — so
  a lease measures *execution* time, not queue time; a cell still
  running at its deadline is presumed hung, its pool is torn down, and
  the cell is retried.
* **Bounded retry with exponential backoff + jitter.**  A pool death
  loses only the in-flight cells; the supervisor rebuilds the pool and
  re-dispatches exactly those, up to ``max_retries`` per cell, sleeping
  a jittered exponential backoff between incidents.
* **Poison quarantine.**  Cells present during a crash become
  *suspects* and are re-run in isolation (one outstanding cell on a
  one-worker pool), which makes the next crash unambiguous.  A cell
  blamed for ``quarantine_after`` worker-fatal incidents is recorded as
  ``CellFailure(kind="quarantined")`` in the v2 checkpoint and the
  campaign moves on — one poison cell cannot sink the grid.
* **Graceful degradation.**  ``degrade_after`` pool deaths at a given
  size halve the worker count; after ``serial_fallback_after`` total
  deaths the supervisor abandons process pools entirely and finishes
  the remaining cells with in-process serial execution.  The ladder
  ends degraded, never dead.

The byte-parity contract survives supervision: retries re-derive the
same per-cell RNG stream, so a campaign that crashed, hung, healed, and
degraded merges into checkpoint JSON byte-identical to an undisturbed
serial run (minus any quarantined cells' failure records) —
``tests/core/test_supervisor.py`` enforces it.  Checkpoints and the
worker entry points are shared with :mod:`repro.core.executor` (and
looked up through that module at call time, so test patch points keep
working under supervision).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import defaultdict, deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SupervisorConfig
from ..errors import ReproError
from . import executor as _exec
from .campaign import (
    CampaignResult,
    CampaignSpec,
    CellFailure,
    _assemble,
    _execute_cell,
    _to_json,
)
from .evaluation import AttackOutcome

__all__ = ["SupervisorStats", "run_supervised"]

#: Lease deadlines are measured on this clock — monotonic, so a frozen
#: or backwards-jumping *wall* clock can never expire (or immortalize)
#: a lease.  Module-level indirection so tests can substitute a fake
#: clock and drive the lease machinery deterministically
#: (``tests/core/test_supervisor.py``).
_monotonic = time.monotonic

Cell = Tuple[str, int]

#: Seed salt for the backoff-jitter stream (decorrelation only — jitter
#: never touches cell RNG streams, so parity is unaffected).
_JITTER_SALT = 0x5EEDFACE


@dataclass
class SupervisorStats:
    """Observable counters for one supervised (or serial) campaign run.

    ``dispatched`` counts cells handed to a worker — including retries,
    excluding cache hits — which is how warm-cache runs prove they
    recomputed nothing (``dispatched == 0``).
    """

    dispatched: int = 0
    completed: int = 0
    cache_hits: int = 0
    retries: int = 0
    worker_crashes: int = 0   # pool-death incidents
    lease_expiries: int = 0   # cells cancelled at their deadline
    quarantined: int = 0
    exhausted: int = 0        # cells that ran out of retries
    degradations: int = 0     # worker-count halvings
    serial_fallback: bool = False
    backoff_s: float = 0.0    # total incident backoff slept

    def describe(self) -> Dict[str, object]:
        return {k: getattr(self, k) for k in (
            "dispatched", "completed", "cache_hits", "retries",
            "worker_crashes", "lease_expiries", "quarantined", "exhausted",
            "degradations", "serial_fallback", "backoff_s")}


@dataclass
class _Incident:
    """One pool-level failure: what died and who was involved."""

    kind: str            # "crash" | "lease"
    suspects: List[Cell]  # cells plausibly responsible (were in flight)
    lost: List[Cell]      # blameless cells whose work was discarded


class _Supervisor:
    """One campaign's supervision state machine (see module docstring)."""

    def __init__(self, recipe, images: np.ndarray, labels: np.ndarray,
                 spec: CampaignSpec, clean: float,
                 outcomes: Dict[Cell, AttackOutcome],
                 failures: Dict[Cell, CellFailure],
                 *, workers: int, config: SupervisorConfig,
                 checkpoint_path=None,
                 fault_hook: Optional[Callable] = None,
                 stats: Optional[SupervisorStats] = None) -> None:
        self.recipe = recipe
        self.images = images
        self.labels = labels
        self.spec = spec
        self.clean = clean
        self.outcomes = outcomes
        self.failures = failures
        self.checkpoint_path = checkpoint_path
        self.fault_hook = fault_hook
        self.stats = stats if stats is not None else SupervisorStats()
        self.cfg = config
        self.n_workers = max(1, min(workers,
                                    recipe.config.executor.worker_cap))
        self.attempts: Dict[Cell, int] = defaultdict(int)
        self.blames: Dict[Cell, int] = defaultdict(int)
        self.expiries: Dict[Cell, int] = defaultdict(int)
        self.total_incidents = 0
        self.incidents_at_size = 0
        self._jitter_rng = np.random.default_rng(spec.seed ^ _JITTER_SALT)

    # -- shared plumbing ------------------------------------------------------

    def _checkpoint(self) -> None:
        if self.checkpoint_path is not None:
            result = _assemble(self.spec, self.clean, self.outcomes,
                               self.failures)
            # Looked up through the executor module so the parity
            # suite's patched writer sees supervised checkpoints too.
            _exec._atomic_write_text(self.checkpoint_path,
                                     _to_json(result, complete=False))

    def _settle(self, cell: Cell, kind: str, payload) -> None:
        if kind == "outcome":
            self.outcomes[cell] = payload
            self.stats.completed += 1
        else:
            self.failures[cell] = payload
        self._checkpoint()

    def _fail(self, cell: Cell, error_type: str, message: str,
              kind: str) -> None:
        self.failures[cell] = CellFailure(
            target_layer=cell[0], n_strikes=cell[1],
            error_type=error_type, message=message, kind=kind,
        )
        self._checkpoint()

    def _backoff(self) -> None:
        cfg = self.cfg
        delay = min(cfg.backoff_base_s *
                    cfg.backoff_factor ** max(0, self.total_incidents - 1),
                    cfg.backoff_max_s)
        if cfg.backoff_jitter:
            delay *= 1.0 + cfg.backoff_jitter * \
                (self._jitter_rng.random() * 2.0 - 1.0)
        self.stats.backoff_s += delay
        time.sleep(delay)

    # -- one pool round -------------------------------------------------------

    def _dispatch_round(self, cells: List[Cell],
                        size: int) -> Optional[_Incident]:
        """Run ``cells`` on one fresh pool of ``size`` workers.

        Dispatch is incremental (outstanding <= size) so every
        submitted cell is actually executing and its lease clock is
        honest.  Returns None when every cell settled, or the first
        :class:`_Incident`; cells already settled by then stay settled.
        """
        cfg = self.cfg
        ctx = mp.get_context(_exec._resolve_start_method(
            self.recipe.config.executor.mp_start_method))
        # Built through the executor module: one pool construction patch
        # point for the whole parallel layer.
        pool = _exec.ProcessPoolExecutor(
            max_workers=size, mp_context=ctx,
            initializer=_exec._init_worker,
            initargs=(self.recipe, self.images, self.labels, self.clean))
        queue = deque(cells)
        futures: Dict[object, Cell] = {}
        deadlines: Dict[object, Optional[float]] = {}
        incident: Optional[_Incident] = None
        try:
            def submit_next() -> None:
                cell = queue.popleft()
                fault = None
                if self.fault_hook is not None:
                    fault = self.fault_hook(cell[0], cell[1],
                                            self.attempts[cell])
                if self.attempts[cell]:
                    self.stats.retries += 1
                self.stats.dispatched += 1
                future = pool.submit(_exec._worker_cell, cell[0], cell[1],
                                     self.spec.seed, fault)
                futures[future] = cell
                deadlines[future] = (_monotonic() + cfg.cell_timeout_s
                                     if cfg.cell_timeout_s else None)

            while queue and len(futures) < size:
                submit_next()
            while futures:
                poll = cfg.poll_interval_s if cfg.cell_timeout_s else None
                done, _ = wait(set(futures), timeout=poll,
                               return_when=FIRST_COMPLETED)
                crashed_cells: List[Cell] = []
                for future in done:
                    cell = futures.pop(future)
                    deadlines.pop(future, None)
                    try:
                        kind, payload = future.result()
                    except BrokenProcessPool:
                        # A broken pool fails every outstanding future
                        # at once; collect rather than settle.
                        crashed_cells.append(cell)
                        continue
                    self._settle(cell, kind, payload)
                if crashed_cells:
                    # Everything in flight when the pool died is a
                    # plausible culprit and gets re-run in isolation.
                    # The undispatched queue is blameless.
                    incident = _Incident(
                        "crash",
                        suspects=crashed_cells + [futures[f]
                                                  for f in futures],
                        lost=list(queue))
                    return incident
                if cfg.cell_timeout_s:
                    now = _monotonic()
                    expired = [f for f in list(futures)
                               if deadlines.get(f) is not None
                               and now > deadlines[f]]
                    if expired:
                        exp_cells = [futures[f] for f in expired]
                        others = [futures[f] for f in futures
                                  if f not in expired]
                        incident = _Incident("lease", suspects=exp_cells,
                                             lost=others + list(queue))
                        return incident
                while queue and len(futures) < size:
                    submit_next()
            return None
        except BaseException:
            # KeyboardInterrupt and friends: tear down hard (a hung
            # worker must not block the interrupt) and re-raise with
            # the last checkpoint valid on disk.
            incident = incident or _Incident("crash", suspects=[], lost=[])
            raise
        finally:
            if incident is None:
                pool.shutdown(wait=True, cancel_futures=True)
            else:
                self._hard_shutdown(pool)

    @staticmethod
    def _hard_shutdown(pool) -> None:
        """Tear a pool down without waiting on hung or dead workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    # -- incident bookkeeping -------------------------------------------------

    def _record_incident(self, incident: _Incident) -> None:
        self.total_incidents += 1
        self.incidents_at_size += 1
        if incident.kind == "crash":
            self.stats.worker_crashes += 1
        else:
            self.stats.lease_expiries += len(incident.suspects)
        for cell in incident.suspects:
            self.attempts[cell] += 1
            if incident.kind == "crash":
                self.blames[cell] += 1
            else:
                self.expiries[cell] += 1
        if self.incidents_at_size >= self.cfg.degrade_after \
                and self.n_workers > 1:
            self.n_workers = max(1, self.n_workers // 2)
            self.incidents_at_size = 0
            self.stats.degradations += 1
        self._backoff()

    def _triage(self, cells: List[Cell]) -> List[Cell]:
        """Quarantine/exhaust cells that are out of budget; return the
        ones still worth dispatching."""
        alive = []
        for cell in cells:
            if self.blames[cell] >= self.cfg.quarantine_after:
                self.stats.quarantined += 1
                self._fail(
                    cell, "WorkerCrashError",
                    f"quarantined after {self.blames[cell]} worker-fatal "
                    f"attempt(s)", kind="quarantined")
            elif self.attempts[cell] > self.cfg.max_retries:
                self.stats.exhausted += 1
                if self.expiries[cell] >= self.blames[cell]:
                    self._fail(
                        cell, "CellLeaseExpiredError",
                        f"lease expired on {self.expiries[cell]} of "
                        f"{self.attempts[cell]} attempt(s)", kind="timeout")
                else:
                    self.stats.quarantined += 1
                    self._fail(
                        cell, "WorkerCrashError",
                        f"retry budget exhausted after {self.blames[cell]} "
                        f"worker-fatal attempt(s)", kind="quarantined")
            else:
                alive.append(cell)
        return alive

    # -- the ladder's last rung -----------------------------------------------

    def _run_in_process(self, cells: List[Cell]) -> None:
        """Finish the campaign serially in this process (no pools left
        to die).  Chaos fault directives are ignored here — there is no
        worker to kill — but in-cell ``ReproError`` isolation holds."""
        self.stats.serial_fallback = True
        state = _exec._build_state(self.recipe, self.images, self.labels,
                                   self.clean)
        for cell in cells:
            self.stats.dispatched += 1
            if self.attempts[cell]:
                self.stats.retries += 1
            try:
                outcome = _execute_cell(
                    state.attack, state.blind_box, state.images,
                    state.labels, self.spec.seed, cell[0], cell[1],
                    clean=state.clean)
            except ReproError as exc:
                self._fail(cell, type(exc).__name__, str(exc), kind="error")
            else:
                self._settle(cell, "outcome", outcome)

    # -- main loop ------------------------------------------------------------

    def run(self) -> CampaignResult:
        healthy = [c for c in self.spec.cells()
                   if c not in self.outcomes and c not in self.failures]
        suspects: List[Cell] = []
        while healthy or suspects:
            healthy = [c for c in healthy if c not in self.outcomes]
            suspects = [c for c in suspects if c not in self.outcomes]
            if self.total_incidents >= self.cfg.serial_fallback_after:
                remaining = [c for c in self.spec.cells()
                             if c in suspects or c in healthy]
                self._run_in_process(self._triage(remaining))
                break
            if suspects:
                suspects = self._triage(suspects)
                if not suspects:
                    continue
                # Isolation: one outstanding cell on a one-worker pool,
                # so the next incident is unambiguously attributed.
                incident = self._dispatch_round(suspects, 1)
            elif healthy:
                incident = self._dispatch_round(healthy, self.n_workers)
            else:
                break
            if incident is None:
                if suspects:
                    suspects = []
                else:
                    healthy = []
                continue
            self._record_incident(incident)
            involved = set(incident.suspects) | set(incident.lost)
            if suspects:
                suspects = [c for c in suspects if c in involved]
            else:
                healthy = [c for c in incident.lost]
                suspects = list(incident.suspects)
        return _assemble(self.spec, self.clean, self.outcomes, self.failures)


def run_supervised(recipe, images: np.ndarray, labels: np.ndarray,
                   spec: CampaignSpec, clean: float,
                   outcomes: Dict[Cell, AttackOutcome],
                   failures: Dict[Cell, CellFailure],
                   *,
                   workers: int,
                   config: Optional[SupervisorConfig] = None,
                   checkpoint_path=None,
                   before_cell: Optional[Callable[[str, int], None]] = None,
                   fault_hook: Optional[Callable] = None,
                   stats: Optional[SupervisorStats] = None,
                   ) -> CampaignResult:
    """Run the pending cells of ``spec`` under self-healing supervision.

    Called by :func:`~repro.core.campaign.run_campaign` after the shared
    prelude (resume loading, spec resolution, clean-accuracy
    measurement); ``outcomes``/``failures`` arrive pre-populated from
    the checkpoint on a resumed run and are mutated in place.
    ``before_cell`` keeps its pinned semantics — fired once per cell,
    in the submitting process, in canonical order, *before* any
    dispatch — so stateful chaos hooks make identical decisions at
    every worker count, retries included.
    """
    cfg = config if config is not None else recipe.config.supervisor
    cfg.validate()
    supervisor = _Supervisor(recipe, images, labels, spec, clean,
                             outcomes, failures, workers=workers,
                             config=cfg, checkpoint_path=checkpoint_path,
                             fault_hook=fault_hook, stats=stats)
    pending = [cell for cell in spec.cells() if cell not in outcomes]
    for target, count in pending:
        if before_cell is not None:
            try:
                before_cell(target, count)
            except ReproError as exc:
                supervisor._fail((target, count), type(exc).__name__,
                                 str(exc), kind="error")
    if not [c for c in pending if c not in failures]:
        return _assemble(spec, clean, outcomes, failures)
    return supervisor.run()
