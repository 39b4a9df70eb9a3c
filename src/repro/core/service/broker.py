"""The campaign broker: the lease book served over a socket.

The broker is the one transport of :mod:`repro.core.supervisor`'s lease
book: every campaign with more than one worker runs through it.  A
``service=`` campaign binds where its :class:`~repro.config.ServiceConfig`
says and leases cells to whoever registers — its own local workers and
``repro work`` daemons from anywhere.  ``workers=N`` alone runs a
*private* campaign: a loopback broker on an ephemeral port that answers
only the local workers it spawned, named by unguessable ids handed over
at spawn, so no other process on the host can lease or deliver a cell.
Workers (:mod:`~repro.core.service.worker`) register, heartbeat and
lease cells; the book decides every cell's fate.  What this module
adds is how events reach the book:

* **Local workers, watched by their process.**  One that exits nonzero
  (killed, crashed) loses its leases with blame at the next sweep; one
  holding an expired lease is presumed hung and terminated, its cell
  charged only the expiry and its other leases lost without blame.
  Either way it is replaced while the ``SERIAL_FALLBACK_AFTER`` budget
  lasts (counted in ``SupervisorStats.degradations``).  A clean exit
  (after ``done``) is never replaced.  Under fork a local worker adopts
  the caller's attack, evaluation slice and clean baseline; otherwise
  it rebuilds the attack from the recipe in its ``job`` frame.
* **Remote workers, watched by heartbeat.**  Any message from a worker
  proves it alive; a remote one silent for :data:`HEARTBEAT_TIMEOUT_S`
  (on the supervisor's monotonic clock hook) is declared dead or
  partitioned and loses its leases with blame.  A worker that says
  ``bye`` leaves without blame.
* **Work stealing.**  An idle worker may take a second lease on a cell
  whose oldest lease has aged past ``STEAL_AFTER_S`` — the hedge against
  a slow or silently wedged peer.  Both executions may complete; the
  book's exactly-once gate keeps whichever result lands first.
* **Frame validation.**  A result frame is decoded — every outcome or
  failure field checked against its type — and checked against the
  campaign before it reaches the gate; a foreign, malformed or
  ill-typed frame, or one whose record is another cell's, gets an
  ``error`` reply and counts nothing.
* **The last rung.**  With no worker alive once the respawn budget is
  spent, or for :data:`NO_WORKER_GRACE_S` (a served campaign waiting
  for remote workers), the broker stops granting and finishes the
  remaining cells with the driver's in-process cell loop, on the
  caller's own attack: the campaign ends degraded, never dead.
* **Merge failures surface.**  An exception from merging a delivery —
  an ``OSError`` writing the checkpoint — is re-raised by
  :meth:`CampaignBroker.serve` in the campaign's own thread, as the
  serial path raises it.
"""

from __future__ import annotations

import multiprocessing as mp
import secrets
import socket
import threading
from typing import Callable, Dict, Optional, Set, Tuple

from ...config import ServiceConfig
from ...errors import ConfigError, ProtocolError
from .. import executor as _exec
from .. import supervisor as _sup
from ..campaign import ARMS_TARGET_PREFIX, CellFailure, _outcome_from_payload, _typed
from ..evaluation import AttackOutcome
from .protocol import PROTOCOL_VERSION, encode_array, encode_recipe
from .protocol import recv_msg, send_msg
from .worker import _serve

__all__ = ["CampaignBroker", "run_service"]

#: Monotonic seconds: the beat cadence sent in the job frame (and the
#: sweep period), the silence that evicts a remote worker, the worker
#: drought before the in-process rung, how long an idle worker's lease
#: request is held before it is asked to come back (the campaign's end
#: answers it at once).
HEARTBEAT_INTERVAL_S = 0.25
HEARTBEAT_TIMEOUT_S = 2.0
NO_WORKER_GRACE_S = 30.0
IDLE_WAIT_S = 0.1


class CampaignBroker:
    """One campaign's driver served over the wire (see module docstring).

    Life cycle: :meth:`start` binds the socket and spawns the local
    workers, :meth:`serve` sweeps until every cell settles — replacing
    local workers that die or hang, and falling back to in-process
    execution when no worker stays alive; :meth:`close` tears everything
    down (idempotent; :func:`run_service` always calls it).  ``recipe``
    is None when no worker may need to rebuild the attack (a private
    campaign under fork).
    """

    def __init__(self, recipe, driver: "_sup._Driver", *,
                 config: ServiceConfig, attack=None, private: bool = False,
                 shard_hook: Optional[Callable] = None) -> None:
        self.recipe = recipe
        self.driver = driver
        self.cfg = config
        self.cfg.validate()
        self.attack = attack
        self.private = private
        self.shard_hook = shard_hook
        self.beats: Dict[str, float] = {}   # worker id -> last contact
        self.address: Optional[Tuple[str, int]] = None
        self._closing = threading.Event()
        self._wake = threading.Event()      # a settle, or a failure
        self._failure: Optional[Exception] = None
        self._listener: Optional[socket.socket] = None
        # Local workers by id: in service, and out of it for good.
        self._local: Dict[str, mp.process.BaseProcess] = {}
        self._retired: Dict[str, mp.process.BaseProcess] = {}
        # Local workers that adopt the caller's attack (forked ones).
        self._adopters: Set[str] = set()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start the accept loop, spawn the local workers (at most
        ``MAX_WORKERS``); returns the bound ``(host, port)`` (resolved
        when ``port=0``)."""
        listener = socket.create_server((self.cfg.host, self.cfg.port))
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="broker-accept").start()
        for _ in range(min(self.cfg.local_workers, _sup.MAX_WORKERS)):
            self._spawn_local()
        return self.address

    def _spawn_local(self) -> None:
        """Start one local worker under a fresh unguessable id; a forked
        one adopts the caller's attack and the driver's evaluation slice
        and clean baseline (inherited, never pickled)."""
        ctx = _exec._mp_context()
        adopted = (_exec._WorkerState(self.attack, {}, self.driver.images,
                                      self.driver.labels, self.driver.clean)
                   if ctx.get_start_method() == "fork" else None)
        worker = secrets.token_hex(16)
        proc = ctx.Process(target=_serve, args=(self.address, worker, adopted),
                           daemon=True)
        with self.driver.lock:   # known before it can say hello
            proc.start()
            self._local[worker] = proc
            if adopted is not None:
                self._adopters.add(worker)

    def _retire(self, worker: str, *, blame: bool, replace: bool) -> None:
        """Take a local worker out of service for good: its leases are
        lost (with blame for a death), no frame of it is answered again,
        and with ``replace`` it is replaced while cells are pending and
        the ``SERIAL_FALLBACK_AFTER`` budget lasts."""
        self._retired[worker] = self._local.pop(worker)
        self.beats.pop(worker, None)
        self.driver.lose(worker, blame=blame)
        if replace and not self.driver.book.done() and \
                self.driver.stats.degradations < _sup.SERIAL_FALLBACK_AFTER:
            self.driver.stats.degradations += 1
            self._spawn_local()

    def close(self) -> None:
        """Stop granting, reap local workers, stop serving (idempotent).
        The listener outlives the workers so each can hear ``done``."""
        self._closing.set()
        for proc in (*self._local.values(), *self._retired.values()):
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._local.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass

    # -- socket plumbing ------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:   # until close() closes the listener
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        """One connection: request/reply frames until EOF.  Only socket
        trouble ends it quietly — the sweep decides whether the *worker*
        is gone; an exception from handling a frame (a checkpoint write
        failing while a delivery merges) is kept for :meth:`serve`."""
        with conn:
            conn.settimeout(10.0)
            while True:
                try:
                    msg = recv_msg(conn)
                except (ProtocolError, OSError):
                    return
                if msg is None:
                    return
                try:
                    reply = self._handle(msg)
                except Exception as exc:
                    if self._failure is None:
                        self._failure = exc
                    self._wake.set()
                    return
                try:
                    send_msg(conn, reply)
                except OSError:
                    return

    # -- message handling -----------------------------------------------------

    def _handle(self, msg: dict) -> dict:
        kind = msg.get("type")
        worker = str(msg.get("worker", "?"))
        with self.driver.lock:
            if kind == "result":   # past its lease deadline it comes too
                self._expire()      # late: a terminated worker is refused
            if worker not in self._local and \
                    (self.private or worker in self._retired):
                return {"type": "error",
                        "message": f"worker {worker!r} is not serving this "
                                   f"campaign"}
            if kind == "bye":
                self.beats.pop(worker, None)
                self.driver.lose(worker, blame=False)
                return {"type": "ok"}
            if kind == "hello" and worker not in self.beats:
                self.driver.stats.workers_joined += 1
            self.beats[worker] = _sup._monotonic()
        if kind == "hello":
            return self._job(worker)
        if kind == "beat":
            return {"type": "ok"}
        if kind == "lease":
            return self._lease(worker)
        if kind == "result":
            return self._result(msg)
        return {"type": "error", "message": f"unknown message type {kind!r}"}

    def _job(self, worker: str) -> dict:
        """The ``hello`` reply to ``worker``: the base seed, clean
        baseline and beat cadence, plus — for a worker that rebuilds the
        attack — the recipe and evaluation slice, which an adopting
        local worker would never decode."""
        job = {
            "type": "job",
            "protocol": PROTOCOL_VERSION,
            "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
            "clean": self.driver.clean,
            "base_seed": self.driver.spec.seed,
        }
        if self.recipe is not None and worker not in self._adopters:
            job.update(recipe=encode_recipe(self.recipe),
                       images=encode_array(self.driver.images),
                       labels=encode_array(self.driver.labels))
        return job

    def _lease(self, worker: str) -> dict:
        """Grant ``worker`` its next cell.  With none grantable the
        request is held for up to :data:`IDLE_WAIT_S` — the campaign's
        end answers it at once — before the worker is asked back."""
        with self.driver.lock:
            if self.driver.book.done() or self._closing.is_set():
                return {"type": "done"}
            granted = self.driver.grant(worker)
            if granted is not None:
                (target, count), attempt, fault = granted
                shard = (self.shard_hook(target, count, attempt)
                         if self.shard_hook is not None else None)
        if granted is None:
            if self._closing.wait(IDLE_WAIT_S):
                return {"type": "done"}
            return {"type": "wait", "delay": 0.0}
        return {"type": "assign", "target": target, "count": count,
                "attempt": attempt, "fault": fault, "shard": shard}

    def _result(self, msg: dict) -> dict:
        """Decode and check the frame, then settle it through the gate."""
        decode = {"outcome": _outcome_from_payload,
                  "failure": lambda raw: _typed(CellFailure, raw)}
        try:
            cell = (str(msg["target"]), int(msg["count"]))
            payload = decode[msg.get("kind")](msg["payload"])
            belongs = _belongs(payload, cell)
        except (ConfigError, KeyError, OverflowError, TypeError,
                ValueError) as exc:   # OverflowError: an infinite count
            return {"type": "error",
                    "message": f"malformed result frame: {exc!r}"}
        if cell not in self.driver.book.order:
            return {"type": "error",
                    "message": f"cell {cell} is not pending in this campaign"}
        if not belongs:
            return {"type": "error",
                    "message": f"the record delivered for {cell} belongs "
                               f"to another cell"}
        if not self.driver.settle(cell, msg["kind"], payload):
            return {"type": "ack", "duplicate": True}
        self._wake.set()
        return {"type": "ack"}

    # -- control loop ---------------------------------------------------------

    def _expire(self) -> None:
        """Reclaim the leases past their deadline; a local worker holding
        one is presumed hung, terminated and replaced."""
        for worker in self.driver.expire():
            if worker in self._local:
                self._local[worker].terminate()
                self._retire(worker, blame=False, replace=True)

    def _sweep(self) -> bool:
        """Report worker and lease events to the book; True while any
        worker is alive.  A local worker that exited is retired — with
        blame and a replacement after a nonzero exit; a remote worker
        silent past :data:`HEARTBEAT_TIMEOUT_S` is evicted with blame;
        then stale leases expire (:meth:`_expire`)."""
        with self.driver.lock:
            for worker, proc in list(self._local.items()):
                if proc.exitcode is not None:   # None while alive
                    died = proc.exitcode != 0
                    self._retire(worker, blame=died, replace=died)
            now = _sup._monotonic()
            for worker, seen in list(self.beats.items()):
                if worker not in self._local \
                        and now - seen > HEARTBEAT_TIMEOUT_S:
                    del self.beats[worker]
                    self.driver.lose(worker, blame=True)
            self._expire()
            return bool(self.beats or self._local)

    def serve(self) -> None:
        """Sweep every heartbeat interval and after every settle until
        the campaign settles, then tear down and re-raise an exception
        from merging a delivery.
        With no worker alive once the respawn budget is spent, or for the
        no-worker grace period, the remaining cells run in-process on
        the caller's attack."""
        try:
            last_alive = _sup._monotonic()
            while self._failure is None and not self.driver.book.done():
                self._wake.clear()
                alive = self._sweep()
                now = _sup._monotonic()
                if alive:
                    last_alive = now
                elif self.driver.stats.degradations >= \
                        _sup.SERIAL_FALLBACK_AFTER \
                        or now - last_alive > NO_WORKER_GRACE_S:
                    self._closing.set()
                    self.driver.fall_back(self.attack)
                    break
                self._wake.wait(HEARTBEAT_INTERVAL_S)
        finally:
            self.close()   # a failing delivery's worker has heard of it
        failure = self._failure   # caught on a connection thread
        if failure is not None:
            raise failure


def _belongs(record, cell: Tuple[str, int]) -> bool:
    """Whether a decoded result record is ``cell``'s: a failure, or a
    plain cell's outcome, by its ``(target_layer, n_strikes)``; an
    ``arms:`` cell's outcome by its strikes, bank size and defense."""
    target, count = cell
    if isinstance(record, CellFailure):
        return (record.target_layer, record.n_strikes) == cell
    if not target.startswith(ARMS_TARGET_PREFIX):
        return isinstance(record, AttackOutcome) \
            and (record.target_layer, record.n_strikes) == cell
    from ...defense.evaluation import ArmsRaceCell, parse_arms_target

    _, defense, bank_cells = parse_arms_target(target)
    return isinstance(record, ArmsRaceCell) and \
        (record.n_strikes, record.bank_cells, record.defense) == \
        (count, bank_cells, defense)


def run_service(driver: "_sup._Driver", attack, config: ServiceConfig, *,
                private: bool = False,
                shard_hook: Optional[Callable] = None,
                on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
                ) -> None:
    """Settle the pending cells of ``driver`` as a campaign broker bound
    where ``config`` says, under the driver's lease policy.

    :func:`~repro.core.campaign.run_campaign` builds the driver, runs its
    ``before_cell`` prelude and picks the mode: ``private`` for
    ``workers=N`` (only the local workers this broker spawns are
    answered), served for ``service=``.  The broker only moves cells —
    no broker binds when none is pending.  A worker that must rebuild
    the attack (any worker under a spawn start, a remote one) gets the
    recipe derived from ``attack``, so a victim the zoo cannot rebuild is
    refused with ``ConfigError`` before the broker binds — except in a
    private campaign under fork, whose workers all adopt ``attack``.
    The in-process last rung runs on ``attack``.  ``on_bound`` is called
    with the bound ``(host, port)`` before serving (the CLI prints it;
    tests attach workers).
    """
    if driver.book.done():
        return
    forked = _exec._mp_context().get_start_method() == "fork"
    recipe = None if private and forked else \
        _exec.WorkerRecipe.from_attack(attack)
    broker = CampaignBroker(recipe, driver, config=config, attack=attack,
                            private=private, shard_hook=shard_hook)
    try:
        bound = broker.start()
        if on_bound is not None:
            on_bound(bound)
        broker.serve()
    finally:
        broker.close()
