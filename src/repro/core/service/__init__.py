"""Campaign-as-a-service: broker, worker daemon, wire protocol.

The lease book of :mod:`repro.core.supervisor` keeps a campaign alive
across worker deaths and hangs; this package serves it over a socket to
every multi-worker campaign — privately to its own local workers
(``workers=N``), or to *remote* workers too (``service=``), the shape
long fault-injection sweeps take on shared grids (DAVOS on SGE; the
paper's own multi-tenant cloud-FPGA threat model):

* :mod:`~repro.core.service.protocol` — length-prefixed JSON frames,
  ndarray/recipe codecs, address parsing;
* :mod:`~repro.core.service.broker` — the transport: spawns and
  watches local workers by their process, registers and heartbeats
  remote ones, evicts silent ones, lets idle workers steal stale
  leases, validates result frames before the book's exactly-once gate,
  and falls back to in-process execution when no worker stays alive;
* :mod:`~repro.core.service.worker` — the worker daemon: registers,
  adopts the caller's attack (a forked local worker) or rebuilds it
  from the wire recipe, heartbeats from a side thread, executes the
  cells it leases, and delivers results (duplicates and all — dedup is
  the broker's job).

The campaign process builds the campaign's one driver, merges cached
cells before the broker binds and stores computed ones after it closes;
workers only run cells and never see the cell cache.  A worker that
rebuilds the attack does so from a recipe derived from the caller's (a
victim the zoo cannot rebuild is refused before a broker that needs one
binds).  Entry points: ``run_campaign(workers=N)``,
``run_campaign(service=ServiceConfig(...))``, or the CLI's ``repro
campaign --workers`` / ``repro serve`` / ``repro work`` / ``repro
campaign --broker``.
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
