"""The campaign worker daemon: lease, execute, deliver, repeat.

A worker owns no campaign state and touches no cell cache — the
campaign process alone reads and fills that.  It registers with the
broker (:mod:`~repro.core.service.broker`) and receives the *job*: the
base seed, the clean baseline, the beat cadence and, for a worker that
rebuilds the attack, a data-only
:class:`~repro.core.executor.WorkerRecipe` and the evaluation slice.  A
job the worker cannot run is refused with
:class:`~repro.errors.ProtocolError`.  A forked local worker adopts the
caller's attack instead of rebuilding it.  Then it loops: lease a cell,
execute it under its blake2s-derived seed, deliver the result, ask for
the next.  Every worker runs its GEMMs on one BLAS thread
(:func:`_one_blas_thread`): it shares the host's cores with its peers.

Delivery is *at-least-once* by design.  The worker retries failed
exchanges on fresh connections, chaos shard directives make it
duplicate or drop frames on purpose, and a stolen cell may complete on
two workers at once — the lease book's exactly-once gate is the component
under test, so the worker never tries to be clever about it.

Liveness is a side thread beating at the cadence the broker sends in
the job payload.  Heartbeat failures are ignored here: the *broker's*
sweep is the arbiter of worker death, and a worker that was merely
partitioned re-registers simply by talking again.

Chaos surfaces, both honoured between lease and delivery:

* ``fault`` — the per-cell directives, applied via
  :func:`repro.core.executor._apply_fault` (``kill`` dies like an OOM
  kill, no teardown; ``hang`` stalls past the lease);
* ``shard`` — the service-era delivery directives
  (:meth:`repro.chaos.ChaosInjector.shard_fault`): ``disconnect``
  abandons the result so the lease must expire, ``duplicate`` delivers
  it twice, ``delay`` sleeps before delivering.
"""

from __future__ import annotations

import ctypes
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ...errors import ProtocolError, ReproError
from .. import executor as _exec
from ..campaign import _execute_cell, _failure_from, _outcome_to_payload
from .protocol import _leaf_matches, decode_array, decode_recipe, recv_msg, send_msg

__all__ = ["WorkerReport", "run_worker"]

#: Registration tries, seconds apart (a worker may start before its
#: broker binds), and the consecutive failed exchanges, seconds apart,
#: after which a worker presumes its broker gone.
JOIN_TRIES, JOIN_PAUSE_S = 40, 0.25
MAX_FAILURES, FAILURE_PAUSE_S = 12, 0.25


@dataclass
class WorkerReport:
    """What one worker did before exiting (returned by :func:`run_worker`,
    printed by ``repro work``)."""

    worker_id: str
    executed: int = 0           # cells computed here
    failures_delivered: int = 0  # in-cell ReproErrors turned into verdicts
    duplicates_sent: int = 0    # chaos 'duplicate' shard directives honoured
    results_dropped: int = 0    # chaos 'disconnect' shard directives honoured

    def describe(self) -> Dict[str, object]:
        return {k: getattr(self, k) for k in (
            "worker_id", "executed", "failures_delivered",
            "duplicates_sent", "results_dropped")}


def _one_blas_thread(maps: str = "/proc/self/maps") -> None:
    """Cap every OpenBLAS mapped into this process (numpy's bundled
    one, and scipy's) at one thread.

    A worker shares the host's cores with its peers and the campaign
    process, and numpy's OpenBLAS otherwise starts a thread per core for
    each of the engine's GEMMs; two workers on two cores then overrun
    them.  A silent no-op where the memory map is unreadable or maps no
    OpenBLAS with a thread setter.
    """
    try:
        with open(maps) as lines:
            paths = {line.split(None, 5)[5].strip() for line in lines
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)   # void f(int num_threads)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _default_worker_id() -> str:
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{os.urandom(3).hex()}")


def _rpc(address: Tuple[str, int], msg: dict, timeout: float = 10.0) -> dict:
    """One exchange on a fresh connection (request -> reply -> close).

    Connection-per-exchange keeps the worker stateless on the wire: a
    broker restart, a dropped socket, or a chaos disconnect costs one
    exchange, never a session.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        send_msg(sock, msg)
        reply = recv_msg(sock)
    if reply is None:
        raise ProtocolError("broker closed the connection without replying")
    if reply.get("type") == "error":
        raise ProtocolError(f"broker refused: {reply.get('message')}")
    return reply


@dataclass
class _Heartbeat:
    """Side thread beating ``beat`` frames at the broker's cadence."""

    address: Tuple[str, int]
    worker_id: str
    interval_s: float
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"beat-{self.worker_id}")
        self._thread.start()

    def _loop(self) -> None:
        beat = {"type": "beat", "worker": self.worker_id}
        while not self._stop.wait(self.interval_s):
            try:
                _rpc(self.address, beat, timeout=self.interval_s * 4)
            except (ProtocolError, OSError):
                pass  # the broker's sweep decides death, not this thread

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


def run_worker(address: Tuple[str, int], *,
               worker_id: Optional[str] = None) -> WorkerReport:
    """Serve one broker until its campaign is done; returns a report.
    A broker whose job this worker cannot run is refused with
    :class:`~repro.errors.ProtocolError`.  The calling process's
    OpenBLAS stays capped at one thread afterwards."""
    return _serve(address, worker_id or _default_worker_id(), None)


def _read_job(job: dict, adopted) -> Tuple[object, int, float]:
    """The attack stack, base seed and beat cadence of a ``job`` reply.

    A reply the worker cannot run is refused with ProtocolError: another
    frame type, a base seed that is no int, a clean baseline that is
    neither a float nor null, a beat cadence that is not positive, or —
    for a worker that rebuilds the attack (``adopted`` is None) — an
    undecodable recipe or array.
    """
    if job.get("type") != "job":
        raise ProtocolError(f"the broker answered hello with "
                            f"{job.get('type')!r:.40}, not a job")
    seed, clean, interval = (job.get(key) for key in (
        "base_seed", "clean", "heartbeat_interval_s"))
    if not (_leaf_matches(int, seed) and _leaf_matches(Optional[float], clean)
            and _leaf_matches(float, interval) and interval > 0):
        raise ProtocolError(f"unrunnable job: base_seed {seed!r:.40}, "
                            f"clean {clean!r:.40}, heartbeat_interval_s "
                            f"{interval!r:.40}")
    if adopted is None:
        adopted = _exec._build_state(decode_recipe(job.get("recipe")),
                                     decode_array(job.get("images")),
                                     decode_array(job.get("labels")), clean)
    return adopted, seed, float(interval)


def _serve(address: Tuple[str, int], worker_id: str,
           adopted) -> WorkerReport:
    """:func:`run_worker` as ``worker_id``, on the ``adopted`` attack
    stack of a forked local worker, or (None) on one rebuilt from the
    job's recipe; the entry point of the broker's local workers (module
    level, so a spawn start can import it).  The worker's GEMMs run on
    one BLAS thread."""
    _one_blas_thread()
    report = WorkerReport(worker_id=worker_id)
    hello = {"type": "hello", "worker": worker_id}
    for attempt in range(JOIN_TRIES):
        try:
            job = _rpc(address, hello)
            break
        except (ProtocolError, OSError):
            if attempt == JOIN_TRIES - 1:
                raise
            time.sleep(JOIN_PAUSE_S)
    state, base_seed, interval = _read_job(job, adopted)

    heart = _Heartbeat(address, worker_id, interval)
    heart.start()
    failures = 0
    try:
        while True:
            try:
                reply = _rpc(address, {"type": "lease",
                                       "worker": report.worker_id})
            except (ProtocolError, OSError):
                failures += 1
                if failures >= MAX_FAILURES:
                    return report  # broker is gone; exit quietly
                time.sleep(FAILURE_PAUSE_S)
                continue
            failures = 0
            kind = reply.get("type")
            if kind == "done":
                return report
            if kind == "wait":
                time.sleep(float(reply.get("delay", 0.05)))
                continue
            if kind != "assign":
                failures += 1
                continue
            _run_cell(address, reply, state, base_seed, report)
    finally:
        heart.stop()
        try:
            _rpc(address, {"type": "bye", "worker": report.worker_id},
                 timeout=2.0)
        except (ProtocolError, OSError):
            pass


def _run_cell(address: Tuple[str, int], assign: dict,
              state, base_seed: int, report: WorkerReport) -> None:
    """Execute one assigned cell and deliver its result (or honour a
    shard directive telling us to mangle the delivery)."""
    target = str(assign["target"])
    count = int(assign["count"])
    _exec._apply_fault(assign.get("fault"))  # kill/hang, pre-execution

    try:
        outcome = _execute_cell(state.attack, state.blind_box,
                                state.images, state.labels, base_seed,
                                target, count, clean=state.clean)
    except ReproError as exc:
        report.failures_delivered += 1
        failure = _failure_from(target, count, exc)
        result = {"kind": "failure", "payload": vars(failure).copy()}
    else:
        report.executed += 1
        result = {"kind": "outcome",
                  "payload": _outcome_to_payload(outcome)}

    shard = assign.get("shard") or {}
    if shard.get("delay"):
        time.sleep(float(shard["delay"]))
    if shard.get("disconnect"):
        # Simulated partition: the computed result never reaches the
        # broker; its lease expires and the cell is re-dispatched.
        report.results_dropped += 1
        return
    msg = {"type": "result", "worker": report.worker_id,
           "target": target, "count": count, **result}
    deliveries = 2 if shard.get("duplicate") else 1
    if deliveries == 2:
        report.duplicates_sent += 1
    for _ in range(deliveries):
        try:
            _rpc(address, msg)
        except (ProtocolError, OSError):
            # Lost delivery degrades to the disconnect case: the lease
            # expires and the broker re-dispatches.  At-least-once, not
            # exactly-once, is this side's contract.
            return
