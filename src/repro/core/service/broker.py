"""The campaign broker: the lease book served over a socket.

The broker is the second transport of :mod:`repro.core.supervisor`'s
lease book — the same grants, exactly-once settling, expiry, blame,
holds and verdicts as the process pool, reported by remote workers
instead of futures.  The process owning the campaign binds a TCP
socket; workers (:mod:`~repro.core.service.worker`) register, heartbeat
and lease cells.  What this module adds is only the socket side:

* **Missed-heartbeat eviction.**  Any message from a worker proves it
  alive; one silent for :data:`HEARTBEAT_TIMEOUT_S` (on the supervisor's
  monotonic clock hook) is declared dead or partitioned and loses its
  leases with blame — the remote analogue of a pool death.  A worker
  that says ``bye`` leaves without blame.
* **Work stealing.**  An idle worker may take a second lease on a cell
  whose oldest lease has aged past ``STEAL_AFTER_S`` — the hedge against
  a slow or silently wedged peer.  Both executions may complete; the
  book's exactly-once gate keeps whichever result lands first.
* **Frame validation.**  A result frame is decoded — every outcome or
  failure field checked against its type — and checked against the
  campaign before it reaches the gate; a foreign, malformed or
  ill-typed frame, or one whose record is another cell's, gets an
  ``error`` reply and counts nothing.
* **Respawn.**  A local daemon that exits with a nonzero code while
  cells are pending is replaced by a fresh one, at most
  ``SERIAL_FALLBACK_AFTER`` times per campaign — the broker's analogue
  of the pool rebuilding its pool.  A clean exit (after ``done``, or
  from a lost broker) is never replaced.
* **The last rung.**  When *no* worker stays alive for
  :data:`NO_WORKER_GRACE_S`, the broker stops granting and finishes the
  remaining cells with the driver's in-process cell loop, on the
  caller's own attack: the service ends degraded, never dead.

Where it listens is settable (:class:`~repro.config.ServiceConfig`).
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
from typing import Callable, Dict, List, Optional, Tuple

from ...config import ServiceConfig
from ...errors import ConfigError, ProtocolError
from .. import executor as _exec
from .. import supervisor as _sup
from ..campaign import ARMS_TARGET_PREFIX, CellFailure, _outcome_from_payload, _typed
from ..evaluation import AttackOutcome
from .protocol import PROTOCOL_VERSION, encode_array, encode_recipe
from .protocol import recv_msg, send_msg

__all__ = ["CampaignBroker", "run_service"]

#: Monotonic seconds: the beat cadence sent in the job frame, the
#: silence that evicts a worker, the worker drought before the
#: in-process rung, an idle worker's wait before asking again.
HEARTBEAT_INTERVAL_S = 0.25
HEARTBEAT_TIMEOUT_S = 2.0
NO_WORKER_GRACE_S = 30.0
IDLE_WAIT_S = 0.1


def _local_worker_main(host: str, port: int) -> None:
    """Entry point for broker-spawned local worker daemons (module level
    so spawn-start platforms can import it)."""
    from .worker import run_worker

    run_worker((host, port))


class CampaignBroker:
    """One campaign's driver served over the wire (see module docstring).

    Life cycle: :meth:`start` binds the socket (and spawns
    ``local_workers`` daemons), :meth:`serve` sweeps until every cell
    settles — replacing local daemons that die, and falling back to
    in-process execution when no worker stays alive; :meth:`close`
    tears everything down (idempotent; :func:`run_service` always
    calls it).
    """

    def __init__(self, recipe, driver: "_sup._Driver", *,
                 config: ServiceConfig,
                 shard_hook: Optional[Callable] = None) -> None:
        self.recipe = recipe
        self.driver = driver
        self.cfg = config
        self.cfg.validate()
        self.shard_hook = shard_hook
        self.beats: Dict[str, float] = {}   # worker id -> last contact
        self.address: Optional[Tuple[str, int]] = None
        self._closing = threading.Event()
        self._settled = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._local_procs: List[mp.process.BaseProcess] = []
        self._respawns = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start the accept loop, spawn local workers; returns the
        bound ``(host, port)`` (resolved when ``port=0``)."""
        listener = socket.create_server((self.cfg.host, self.cfg.port))
        listener.settimeout(0.2)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="broker-accept").start()
        self._local_procs = [self._spawn_local()
                             for _ in range(self.cfg.local_workers)]
        return self.address

    def _spawn_local(self) -> mp.process.BaseProcess:
        proc = _exec._mp_context().Process(target=_local_worker_main,
                                           args=self.address, daemon=True)
        proc.start()
        return proc

    def _respawn(self) -> None:
        """Replace every local daemon that died with a nonzero exit code,
        while the ``SERIAL_FALLBACK_AFTER`` budget lasts."""
        for i, proc in enumerate(self._local_procs):
            # exitcode is None while alive, 0 after a clean exit.
            if proc.exitcode and self._respawns < _sup.SERIAL_FALLBACK_AFTER:
                self._respawns += 1
                self._local_procs[i] = self._spawn_local()

    def close(self) -> None:
        """Stop granting, reap local workers, stop serving (idempotent).
        The listener outlives the workers so each can hear ``done``."""
        self._closing.set()
        for proc in self._local_procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._local_procs.clear()
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
        """One connection: request/reply frames until EOF.  A torn frame
        or dead socket just ends the connection — the heartbeat sweep is
        what decides the *worker* is gone."""
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
                    send_msg(conn, self._handle(msg))
                except OSError:
                    return

    # -- message handling -----------------------------------------------------

    def _handle(self, msg: dict) -> dict:
        kind = msg.get("type")
        worker = str(msg.get("worker", "?"))
        with self.driver.lock:
            if kind == "bye":
                self.beats.pop(worker, None)
                self.driver.lose(worker, blame=False)
                return {"type": "ok"}
            if kind == "hello" and worker not in self.beats:
                self.driver.stats.workers_joined += 1
            self.beats[worker] = _sup._monotonic()
        if kind == "hello":
            return self._job()
        if kind == "beat":
            return {"type": "ok"}
        if kind == "lease":
            return self._lease(worker)
        if kind == "result":
            return self._result(msg)
        return {"type": "error", "message": f"unknown message type {kind!r}"}

    def _job(self) -> dict:
        """The ``hello`` reply: everything a worker runs cells with —
        the recipe, evaluation slice, clean baseline, base seed and beat
        cadence."""
        return {
            "type": "job",
            "protocol": PROTOCOL_VERSION,
            "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
            "recipe": encode_recipe(self.recipe),
            "images": encode_array(self.driver.images),
            "labels": encode_array(self.driver.labels),
            "clean": self.driver.clean,
            "base_seed": self.driver.spec.seed,
        }

    def _lease(self, worker: str) -> dict:
        with self.driver.lock:
            if self.driver.book.done() or self._closing.is_set():
                return {"type": "done"}
            granted = self.driver.grant(worker)
            if granted is None:
                return {"type": "wait", "delay": IDLE_WAIT_S}
            (target, count), attempt, fault = granted
            shard = (self.shard_hook(target, count, attempt)
                     if self.shard_hook is not None else None)
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
        self._settled.set()
        return {"type": "ack"}

    # -- control loop ---------------------------------------------------------

    def _sweep(self) -> bool:
        """Evict workers silent past :data:`HEARTBEAT_TIMEOUT_S` (their
        leases are lost with blame) and expire stale leases; True while
        any worker is alive."""
        with self.driver.lock:
            now = _sup._monotonic()
            for worker, seen in list(self.beats.items()):
                if now - seen > HEARTBEAT_TIMEOUT_S:
                    del self.beats[worker]
                    self.driver.lose(worker, blame=True)
            self.driver.expire()
            return bool(self.beats)

    def serve(self, attack) -> None:
        """Sweep every heartbeat interval, and after every settle, until
        the campaign settles.  Past the no-worker grace period the
        remaining cells run in-process on ``attack``."""
        last_alive = _sup._monotonic()
        while not self.driver.book.done():
            self._settled.clear()
            self._respawn()
            alive = self._sweep()
            now = _sup._monotonic()
            if alive:
                last_alive = now
            elif now - last_alive > NO_WORKER_GRACE_S:
                self._closing.set()
                self.driver.fall_back(attack)
                break
            self._settled.wait(HEARTBEAT_INTERVAL_S)


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
                shard_hook: Optional[Callable] = None,
                on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
                ) -> None:
    """Settle the pending cells of ``driver`` as a campaign broker bound
    where ``config`` says, under the driver's lease policy.

    The socket sibling of :func:`repro.core.supervisor.run_supervised`:
    :func:`~repro.core.campaign.run_campaign` builds the driver and runs
    its ``before_cell`` prelude, and this transport only moves cells —
    no broker binds when none is pending.  Workers rebuild the attack
    from its recipe — a victim the zoo cannot rebuild is refused with
    ``ConfigError`` before the broker binds — and the in-process last
    rung runs on ``attack``.  ``on_bound`` is called with the bound
    ``(host, port)`` before serving (the CLI prints it; tests attach
    workers).
    """
    if driver.book.done():
        return
    broker = CampaignBroker(_exec.WorkerRecipe.from_attack(attack), driver,
                            config=config, shard_hook=shard_hook)
    try:
        bound = broker.start()
        if on_bound is not None:
            on_bound(bound)
        broker.serve(attack)
    finally:
        broker.close()
