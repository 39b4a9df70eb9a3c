"""The four benchmark workloads and the layer boundaries a traced run times.

Every workload runs under the numpy backend and the ``fxp`` policy (the
byte-parity tier), so a unit seed always produces the same output bytes.
A workload is a ``setup`` (victim load, engine/attack/testbed
construction, warm-up) and a ``unit`` of work that ``run.py`` repeats:

* ``fig5b``      one serial ``run_campaign`` of the Fig 5(b) spec;
* ``arms-race``  one serial ``repro defend`` arms-race grid campaign;
* ``blackbox``   one black-box session: profile, plan from the profile,
  execute, then a closed-loop confirmation over UART on a board;
* ``fig5b-pool`` one cold ``workers=2`` pass into a fresh cell cache and
  one warm rerun that reads it back.

Unit ``i`` of workload seed ``s`` runs with unit seed ``s * 1000 + i``,
which sets the campaign/study seed and the engine and sensor seeds.  The
evaluated images are the leading test images, as the CLI uses them, so
every run carries the same data and seeds vary the random streams.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.accel import AcceleratorEngine
from repro.accel.activity import STALL_CURRENT
from repro.config import default_config
from repro.core import (CampaignSpec, DeepStrike, RemoteAttacker, UARTLink,
                        run_campaign, save_campaign)
from repro.core.blind import BlindAttack
from repro.core.cellcache import CellCache
from repro.core.supervisor import SupervisorStats
from repro.defense import ArmsRaceStudy, parse_arms_target, resolve_defense
from repro.fpga.pdn import PowerDistributionNetwork
from repro.sensors import GateDelayModel, TDCSensor
from repro.sensors.calibration import theta_for_target
from repro.testbed import AttackTestbed, build_attack_testbed
from repro.zoo import get_pretrained

import metrics
from spans import Tracer

#: Eval images per fig5b campaign (the spec default).
FIG5B_IMAGES = 120

#: The default ``repro defend`` arms-race grid.
ARMS_BANKS = (3000, 5500, 8000)
ARMS_STRIKES = 4500
ARMS_IMAGES = 64
ARMS_DEFENSES = ("none", "recover", "tmr")

#: The ``examples/end_to_end_attack.py`` targets: (profiled order, counts).
BLACKBOX_TARGETS = ((0, (1000, 2000, 3600)),
                    (2, (1500, 3000, 4500)),
                    (3, (1500, 3000, 4500)))
BLACKBOX_IMAGES = 64
PROFILE_TRACES = 3
NOMINAL_READOUT = 92
IDLE_VOLTAGE = 0.9867
#: Profiled order and strike count of the scheme uploaded to the board.
UPLOAD_TARGET = (2, 4500)
COSIM_BANK_CELLS = 5500
TRACE_SAMPLES = 4096

POOL_WORKERS = 2

#: LeNet-5 layers (plus the blind baseline) the injection rows key on.
INJECT_TARGETS = ("conv1", "pool1", "conv2", "fc1", "blind")


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def eval_slice(victim, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``n`` test images and labels."""
    return victim.dataset.test_images[:n], victim.dataset.test_labels[:n]


def dominant_layer(plan) -> Optional[str]:
    """The layer that received most of a plan's landed strikes."""
    if not plan.struck:
        return None
    return max(plan.struck, key=lambda s: s.count).layer_name


@dataclasses.dataclass
class Measurement:
    """What the units of one pass measured."""

    cells: int = 0
    busy_s: float = 0.0            # wall time the cells were counted over
    unit_rates: List[float] = dataclasses.field(default_factory=list)
    cell_ms: List[float] = dataclasses.field(default_factory=list)
    unit_s: List[float] = dataclasses.field(default_factory=list)
    units: int = 0
    attempted: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    stats: Dict[str, float] = dataclasses.field(default_factory=dict)
    trigger_ticks: List[int] = dataclasses.field(default_factory=list)
    factors: List[float] = dataclasses.field(default_factory=list)
    raw_unit_s: List[float] = dataclasses.field(default_factory=list)

    def check(self, problems: List[str]) -> None:
        """Count one checked operation; any problem fails it."""
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    def add(self, name: str, value: float) -> None:
        self.stats[name] = self.stats.get(name, 0.0) + value

    def completed(self, cells: int, busy_s: float) -> None:
        """Record one unit's cells and the wall time they took."""
        self.cells += cells
        self.busy_s += busy_s
        self.unit_rates.append(cells / busy_s)

    def mark(self) -> Tuple[int, int, int]:
        return len(self.cell_ms), len(self.unit_s), len(self.unit_rates)

    def scale_since(self, mark: Tuple[int, int, int], factor: float) -> None:
        """Scale the timings recorded since ``mark`` by a host-speed
        factor (times multiply by it, rates divide)."""
        cells, units, rates = mark
        self.raw_unit_s += self.unit_s[units:]
        self.cell_ms[cells:] = [v * factor for v in self.cell_ms[cells:]]
        self.unit_s[units:] = [v * factor for v in self.unit_s[units:]]
        self.unit_rates[rates:] = [v / factor
                                   for v in self.unit_rates[rates:]]
        self.factors.append(factor)


class CellClock:
    """The ``before_cell`` hook: marks each cell's start (a cell runs
    until the next cell starts, its checkpoint write included) and, in a
    traced run, opens a ``campaign.cell`` span per cell."""

    def __init__(self, tracer, unit: str) -> None:
        self.tracer = tracer
        self.unit = unit
        self.marks: List[float] = []

    def __call__(self, target: str, count: int) -> None:
        self.marks.append(time.perf_counter())
        if not self.tracer.enabled:
            return
        if len(self.marks) > 1:
            self.tracer.end()
        attrs = {"target": target, "count": count}
        layer = target
        if target.startswith("arms:"):
            layer, attrs["defense"], _bank = parse_arms_target(target)
        self.tracer.set_group(f"{self.unit}/{target}@{count}", layer)
        self.tracer.begin("campaign.cell", **attrs)

    def finish(self) -> List[float]:
        """Close the last cell; returns every cell's latency in ms."""
        end = time.perf_counter()
        if self.tracer.enabled and self.marks:
            self.tracer.end()
            self.tracer.set_group(self.unit, None)
        bounds = self.marks + [end]
        return [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]


class CompletionStats(SupervisorStats):
    """Supervisor counters that also stamp each cell completion, the only
    per-cell event a pooled campaign shows its submitting process."""

    def __setattr__(self, name, value) -> None:
        if name == "completed" and value:
            self.__dict__.setdefault("marks", []).append(time.perf_counter())
        super().__setattr__(name, value)


class Context:
    """Per-run inputs and the correctness references."""

    def __init__(self, seed: int, scratch: Path,
                 references: Dict[str, str], record: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.references = references
        self.record = record
        self.config = default_config()

    def digest_problems(self, key: str, data: bytes) -> List[str]:
        if self.record:
            self.references[key] = metrics.digest(data)
            return []
        return metrics.check_digest(self.references, key, data)


def _fresh_attack(victim, config, useed: int) -> DeepStrike:
    engine = AcceleratorEngine(victim.quantized, config=config,
                               rng=np.random.default_rng(useed))
    return DeepStrike(engine, rng=np.random.default_rng(useed + 1))


def check_cells(m: Measurement, spec, result) -> None:
    """One checked operation per campaign cell; a ``CellFailure`` fails
    it."""
    failures = {(f.target_layer, f.n_strikes): f for f in result.failures}
    for cell in spec.cells():
        failure = failures.get(cell)
        m.check([] if failure is None else [
            f"{cell[0]}@{cell[1]}: {failure.error_type}: {failure.message}"])


def _campaign_bytes(result, path: Path) -> bytes:
    save_campaign(result, path)
    return path.read_bytes()


# -- workloads ----------------------------------------------------------------


class Workload:
    """Shared set-up: load the victim, build an engine and attack, warm
    the code paths with one cheap cell."""

    name = ""
    #: Cells (and cell-latency samples) a run must reach before it may
    #: stop; sets the latency tail's percentile (see ``latency_summary``).
    min_cells = 0

    def setup(self, ctx: Context, tracer) -> dict:
        with tracer.span("zoo.load"):
            victim = get_pretrained()
        attack = _fresh_attack(victim, ctx.config, ctx.seed)
        images = victim.dataset.test_images[:8]
        attack.execute(images, victim.dataset.test_labels[:8],
                       attack.plan_for_layer("pool1", 40))
        return {"victim": victim}

    def unit(self, ctx: Context, state: dict, index: int, tracer,
             m: Measurement) -> None:
        raise NotImplementedError


class Fig5b(Workload):
    name = "fig5b"
    min_cells = 100  # p90

    def unit(self, ctx, state, index, tracer, m):
        victim = state["victim"]
        useed = unit_seed(ctx.seed, index)
        images, labels = eval_slice(victim, FIG5B_IMAGES)
        spec = dataclasses.replace(CampaignSpec.fig5b_default(), seed=useed)
        attack = _fresh_attack(victim, ctx.config, useed)
        clock = CellClock(tracer, f"fig5b/{useed}")
        start = time.perf_counter()
        with tracer.span("campaign.run"):
            result = run_campaign(
                attack, images, labels, spec, before_cell=clock,
                checkpoint_path=ctx.scratch / "fig5b.ckpt.json")
            m.cell_ms += clock.finish()
        ran = time.perf_counter()
        data = _campaign_bytes(result, ctx.scratch / "fig5b.json")
        m.unit_s.append(time.perf_counter() - start)
        m.completed(len(clock.marks), ran - start)
        check_cells(m, spec, result)
        m.check(metrics.check_campaign(json.loads(data), len(spec.cells()))
                + ctx.digest_problems(f"fig5b:{useed}", data))


class ArmsRace(Workload):
    name = "arms-race"
    min_cells = 45  # p75

    def unit(self, ctx, state, index, tracer, m):
        victim = state["victim"]
        useed = unit_seed(ctx.seed, index)
        images, labels = eval_slice(victim, ARMS_IMAGES)
        defenses = [(label, resolve_defense(label)) for label in ARMS_DEFENSES]
        study = ArmsRaceStudy(victim.quantized, images, labels,
                              config=ctx.config, target_layer="conv2",
                              seed=useed)
        spec = study.campaign_spec([(bank, ARMS_STRIKES)
                                    for bank in ARMS_BANKS], defenses)
        attack = _fresh_attack(victim, ctx.config, useed)
        clock = CellClock(tracer, f"arms-race/{useed}")
        start = time.perf_counter()
        with tracer.span("campaign.run"):
            result = run_campaign(attack, images, labels, spec,
                                  before_cell=clock)
            m.cell_ms += clock.finish()
        m.unit_s.append(time.perf_counter() - start)
        m.completed(len(clock.marks), m.unit_s[-1])
        check_cells(m, spec, result)
        by_key = {(c.bank_cells, c.defense): c
                  for sweep in result.sweeps for c in sweep.outcomes}
        cells = [dataclasses.asdict(by_key[(bank, label)])
                 for bank in ARMS_BANKS for label in ARMS_DEFENSES
                 if (bank, label) in by_key]
        for name in ("razor_flags", "replays", "exhausted"):
            m.add(f"defense.{name}", sum(c[name] for c in cells))
        count = [] if len(cells) == len(spec.cells()) else [
            f"{len(cells)} arms-race cells of {len(spec.cells())}"]
        data = (json.dumps(cells, indent=2) + "\n").encode()
        m.check(count + metrics.check_arms_cells(cells)
                + ctx.digest_problems(f"arms-race:{useed}", data))


class Blackbox(Workload):
    name = "blackbox"
    min_cells = 45  # p75

    def setup(self, ctx, tracer):
        state = super().setup(ctx, tracer)
        with tracer.span("testbed.build"):
            state["testbed"] = build_attack_testbed(
                state["victim"].quantized, config=ctx.config,
                bank_cells=COSIM_BANK_CELLS, seed=ctx.seed)
        state["theta"] = theta_for_target(
            ctx.config.tdc, GateDelayModel(ctx.config.delay),
            voltage=IDLE_VOLTAGE)
        return state

    def unit(self, ctx, state, index, tracer, m):
        victim, testbed = state["victim"], state["testbed"]
        useed = unit_seed(ctx.seed, index)
        session = f"blackbox/{useed}"
        tracer.set_group(session, None)
        images, labels = eval_slice(victim, BLACKBOX_IMAGES)
        config = ctx.config.with_overrides(seed=useed)
        start = time.perf_counter()

        # Profile the victim through the TDC side channel, then plan and
        # strike each target from the profile alone.
        attack = _fresh_attack(victim, config, useed)
        sensor = TDCSensor(config.tdc, GateDelayModel(config.delay),
                           state["theta"],
                           rng=np.random.default_rng(useed + 2))
        library = attack.profile_victim(sensor, NOMINAL_READOUT,
                                        n_traces=PROFILE_TRACES)
        m.add("profiler.layers_found", len(library))
        m.check(metrics.check_library([s.kind_guess for s in library]))
        uploads = {}
        for order, counts in BLACKBOX_TARGETS:
            for count in counts:
                cell_start = time.perf_counter()
                plan = attack.plan_from_profile(library, order, count)
                tracer.set_group(f"{session}/{order}@{count}",
                                 dominant_layer(plan))
                with tracer.span("blackbox.cell"):
                    outcome = attack.execute(images, labels, plan)
                tracer.set_group(session, None)
                m.cell_ms.append((time.perf_counter() - cell_start) * 1e3)
                uploads[(order, count)] = plan.scheme
                m.check(metrics.check_outcome(
                    f"profiled#{order}@{count}",
                    dataclasses.asdict(outcome)))

        # Closed-loop confirmation: upload the conv2 scheme over UART,
        # co-simulate one inference period on the board, read the trace.
        board = testbed.board
        board.reset()
        board.settle(STALL_CURRENT)
        remote = RemoteAttacker(UARTLink(), testbed.scheduler)
        acked = remote.upload_scheme(uploads[UPLOAD_TARGET])
        m.check([] if acked else ["scheme upload was NAKed"])
        ticks = (testbed.engine.schedule.total_cycles + 400) \
            * ctx.config.clock.ticks_per_victim_cycle
        cosim_start = time.perf_counter()
        testbed.run(ticks)
        m.add("cosim.run_s", time.perf_counter() - cosim_start)
        m.add("cosim.ticks", ticks)
        trace = remote.download_trace(max_samples=TRACE_SAMPLES)
        m.unit_s.append(time.perf_counter() - start)
        m.completed(len(uploads), m.unit_s[-1])

        tpc = ctx.config.clock.ticks_per_victim_cycle
        first = testbed.engine.schedule.windows()[0]
        trigger = testbed.scheduler.trigger_tick
        if trigger is not None:
            m.trigger_ticks.append(trigger)
            # A trigger in the idle lead-in is the modelled detector's
            # false alarm: a simulated statistic, not a failed operation.
            m.add("cosim.early_triggers",
                  int(trigger < first.start_cycle * tpc))
        m.check(metrics.check_trigger(trigger, first.end_cycle * tpc))
        m.check([] if trace.shape == (min(ticks, TRACE_SAMPLES),) else
                [f"downloaded {trace.shape} samples"])
        m.add("remote.retransmissions", remote.stats.retransmissions)


class Fig5bPool(Workload):
    name = "fig5b-pool"
    min_cells = 51  # p75

    def unit(self, ctx, state, index, tracer, m):
        victim = state["victim"]
        useed = unit_seed(ctx.seed, index)
        images, labels = eval_slice(victim, FIG5B_IMAGES)
        spec = dataclasses.replace(CampaignSpec.fig5b_default(), seed=useed)

        # The serial reference the pooled passes must match byte for
        # byte: the checker's work, so neither timed nor traced by layer.
        with tracer.span("check.serial_reference"):
            tracer.set_group(f"reference/{useed}", None)
            serial = run_campaign(_fresh_attack(victim, ctx.config, useed),
                                  images, labels, spec)
            expected = _campaign_bytes(serial, ctx.scratch / "serial.json")
        tracer.set_group(f"fig5b-pool/{useed}", None)

        cache_dir = ctx.scratch / f"cache-{useed}"
        passes = []
        try:
            for label in ("cold", "warm"):
                stats = CompletionStats()
                cache = CellCache(cache_dir)
                attack = _fresh_attack(victim, ctx.config, useed)
                start = time.perf_counter()
                with tracer.span(f"pool.{label}"):
                    result = run_campaign(attack, images, labels, spec,
                                          workers=POOL_WORKERS, cache=cache,
                                          stats=stats)
                elapsed = time.perf_counter() - start
                data = _campaign_bytes(result, ctx.scratch / f"{label}.json")
                passes.append((label, stats, cache, elapsed, start))
                m.check([] if data == expected else
                        [f"{label} pool JSON differs from the serial JSON"])
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        (_, cold, cold_cache, cold_s, cold_start), \
            (_, warm, warm_cache, warm_s, _) = passes
        # A pooled cell's latency is not visible from outside; the gap
        # spanning POOL_WORKERS completions is one cell's time on one
        # worker when the workers take turns.
        marks = [cold_start] + cold.__dict__.get("marks", [])
        m.cell_ms += [(b - a) * 1e3 for a, b in
                      zip(marks, marks[POOL_WORKERS:])]
        m.completed(cold.completed, cold_s)
        m.unit_s.append(cold_s + warm_s)
        n_cells = len(spec.cells())
        m.check(metrics.check_campaign(json.loads(expected), n_cells)
                + ctx.digest_problems(f"fig5b:{useed}", expected))
        m.check([] if warm.dispatched == 0 and warm_cache.stats.hits ==
                n_cells else [f"warm rerun dispatched {warm.dispatched}, "
                              f"hit {warm_cache.stats.hits} of {n_cells}"])
        for stats in (cold, warm):
            for name in ("dispatched", "retries", "worker_crashes",
                         "degradations"):
                m.add(f"supervisor.{name}", getattr(stats, name))
        for cache in (cold_cache, warm_cache):
            for name in ("hits", "misses", "stores"):
                m.add(f"cellcache.{name}", getattr(cache.stats, name))


WORKLOADS = {w.name: w for w in (Fig5b(), ArmsRace(), Blackbox(),
                                 Fig5bPool())}

#: Units a traced pass runs: fixed, so the simulated statistics it
#: reports compare exactly between two versions of the program.
TRACED_UNITS = {"fig5b": 6, "arms-race": 5, "blackbox": 5, "fig5b-pool": 3}


# -- tracing ------------------------------------------------------------------


def _count_plan(record, args, kwargs, plan) -> None:
    record["landed"] = plan.strikes_landed
    record["requested"] = plan.n_strikes_requested


def _count_injection(record, args, kwargs, result) -> None:
    struck = kwargs.get("struck", args[3] if len(args) > 3 else ())
    record["struck_cycles"] = sum(s.count for s in struck)


def _count_ticks(record, args, kwargs, volts) -> None:
    record["ticks"] = volts.size


def make_tracer() -> Tracer:
    """A tracer wrapping every layer boundary the benchmark measures."""
    tracer = Tracer()
    for owner, attr, name, after in (
            (DeepStrike, "plan_for_layer", "attack.plan", _count_plan),
            (DeepStrike, "plan_from_profile", "attack.plan", _count_plan),
            (BlindAttack, "plan_random", "attack.plan", _count_plan),
            (DeepStrike, "execute", "attack.execute", None),
            (DeepStrike, "clean_predictions", "campaign.clean_baseline",
             None),
            (DeepStrike, "profile_victim", "profiler.profile", None),
            (AcceleratorEngine, "clean_stage_codes", "engine.clean_codes",
             None),
            (AcceleratorEngine, "accuracy_under_attack", "engine.inject",
             _count_injection),
            (PowerDistributionNetwork, "simulate", "pdn.simulate",
             _count_ticks),
            (PowerDistributionNetwork, "simulate_batch", "pdn.simulate",
             _count_ticks),
            (CellCache, "lookup_cells", "cellcache.lookup", None),
            (CellCache, "put", "cellcache.put", None),
            (RemoteAttacker, "upload_scheme", "remote.upload", None),
            (RemoteAttacker, "download_trace", "remote.download", None),
            (AttackTestbed, "run", "cosim.run", None)):
        tracer.wrap(owner, attr, name, after)
    return tracer


def measured_spans(tracer: Tracer) -> List[dict]:
    """Spans of the measured units (not set-up, not the pool's serial
    reference run)."""
    return [s for s in tracer.closed()
            if not (s["group"] or "").startswith(("setup", "reference"))]


def per_layer(tracer: Tracer, m: Measurement) -> Dict[str, Tuple[float,
                                                                 str]]:
    """The per-layer metrics of one traced pass: totals over its units."""
    spans = measured_spans(tracer)
    setup = [s for s in tracer.closed()
             if (s["group"] or "").startswith("setup")]

    def select(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(s["end"] - s["start"] for s in select(name, **match))

    def summed(field, name, **match):
        return sum(s[field] for s in select(name, **match))

    def median_of(name):
        runs = [s["end"] - s["start"] for s in setup if s["name"] == name]
        return statistics.median(runs) if runs else 0.0

    requested = summed("requested", "attack.plan")
    campaign_self = metrics.self_times(spans, only_children="campaign.cell")
    out = {
        "zoo.load_s": (median_of("zoo.load"), "s"),
        "testbed.build_s": (median_of("testbed.build"), "s"),
        "attack.plan_s": (total("attack.plan"), "s"),
        "attack.plan_calls": (len(select("attack.plan")), "count"),
        "attack.landed_ratio": (
            summed("landed", "attack.plan") / requested if requested
            else 0.0, "ratio"),
        "pdn.simulate_s": (total("pdn.simulate"), "s"),
        "pdn.ticks": (summed("ticks", "pdn.simulate"), "ticks"),
        "engine.clean_codes_s": (total("engine.clean_codes"), "s"),
    }
    for target in INJECT_TARGETS:
        out[f"engine.inject_s.{target}"] = (
            total("engine.inject", layer=target), "s")
        out[f"engine.struck_cycles.{target}"] = (
            summed("struck_cycles", "engine.inject", layer=target), "cycles")
    for label in ARMS_DEFENSES:
        out[f"defense.cell_s.{label}"] = (
            total("campaign.cell", defense=label), "s")
    for name in ("razor_flags", "replays", "exhausted"):
        out[f"defense.{name}"] = (m.stats.get(f"defense.{name}", 0), "count")
    out["campaign.clean_baseline_s"] = (total("campaign.clean_baseline"),
                                        "s")
    out["campaign.self_s"] = (sum(campaign_self[s["id"]] for s in spans
                                  if s["name"] == "campaign.run"), "s")
    for name in ("dispatched", "retries", "worker_crashes", "degradations"):
        out[f"supervisor.{name}"] = (m.stats.get(f"supervisor.{name}", 0),
                                     "count")
    out["cellcache.lookup_s"] = (total("cellcache.lookup"), "s")
    out["cellcache.put_s"] = (total("cellcache.put"), "s")
    for name in ("hits", "misses", "stores"):
        out[f"cellcache.{name}"] = (m.stats.get(f"cellcache.{name}", 0),
                                    "count")
    out["profiler.profile_s"] = (total("profiler.profile"), "s")
    out["profiler.layers_found"] = (
        m.stats.get("profiler.layers_found", 0) / max(1, m.units), "count")
    out["remote.upload_s"] = (total("remote.upload"), "s")
    out["remote.download_s"] = (total("remote.download"), "s")
    out["remote.retransmissions"] = (
        m.stats.get("remote.retransmissions", 0), "count")
    out["cosim.run_s"] = (total("cosim.run"), "s")
    out["cosim.ticks"] = (m.stats.get("cosim.ticks", 0), "ticks")
    out["cosim.ticks_per_s"] = (sim_ticks_per_s(m), "ticks/s")
    out["cosim.trigger_tick"] = (
        statistics.median(m.trigger_ticks) if m.trigger_ticks else 0,
        "tick")
    out["cosim.early_triggers"] = (m.stats.get("cosim.early_triggers", 0),
                                   "count")
    return out


def sim_ticks_per_s(m: Measurement) -> float:
    """Simulated 5 ns board ticks per host second of co-simulation."""
    run_s = m.stats.get("cosim.run_s", 0.0)
    return m.stats.get("cosim.ticks", 0) / run_s if run_s else 0.0
