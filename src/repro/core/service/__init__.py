"""Campaign-as-a-service: broker, worker daemon, wire protocol.

The lease book of :mod:`repro.core.supervisor` keeps a campaign alive
across process-pool deaths; this package serves the same book to
*remote* workers over a socket, the shape long fault-injection sweeps
take on shared grids (DAVOS on SGE; the paper's own multi-tenant
cloud-FPGA threat model):

* :mod:`~repro.core.service.protocol` — length-prefixed JSON frames,
  ndarray/recipe codecs, address parsing;
* :mod:`~repro.core.service.broker` — the socket transport: registers
  and heartbeats workers, evicts silent ones, lets idle workers steal
  stale leases, validates result frames before the book's exactly-once
  gate, and falls back to in-process execution when no worker stays
  alive;
* :mod:`~repro.core.service.worker` — the worker daemon: registers,
  rebuilds the attack from the wire recipe, heartbeats from a side
  thread, executes the cells it leases, and delivers results
  (duplicates and all — dedup is the broker's job).

The campaign process builds the campaign's one driver, merges cached
cells before the broker binds and stores computed ones after it closes;
workers only run cells and never see the cell cache, and rebuild the
attack from a recipe derived from the caller's (a victim the zoo cannot
rebuild is refused before the broker binds).  Entry points:
``run_campaign(service=ServiceConfig(...))``, or the CLI's ``repro
serve`` / ``repro work`` / ``repro campaign --broker``.
"""

from .broker import CampaignBroker, run_service
from .protocol import parse_address
from .worker import WorkerReport, run_worker

__all__ = [
    "CampaignBroker",
    "WorkerReport",
    "parse_address",
    "run_service",
    "run_worker",
]
