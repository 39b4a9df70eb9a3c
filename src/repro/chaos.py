"""Chaos-injection harness: break the attack stack on purpose.

The reliability layer (ARQ link, debounced detector, fault-isolated
campaigns) exists because the paper's attack runs in an environment it
is itself destabilizing.  This module provides the adversary for that
layer — a seeded injector that perturbs TDC readouts (noise bursts,
stuck samples), drops start-detector triggers, mangles link frames, and
kills campaign cells, all behind restore-on-exit context managers:

    spec = chaos_preset("noisy", seed=7)
    injector = ChaosInjector(spec)
    with injector.applied(scheduler=sched, link=link):
        ...  # run the closed loop under fire

Everything is driven by one ``numpy`` generator seeded from the spec,
so a chaos run is exactly reproducible.  Used by
``tests/integration/test_chaos.py`` and the CLI's ``--chaos`` flag.

Chaos composes with process-parallel campaigns (``--workers N``): the
cell-kill hook is a ``before_cell`` callback, and ``run_campaign`` pins
``before_cell`` to fire in the *submitting* process at dispatch time in
canonical cell order — so the injector's RNG draws happen in the same
sequence at every worker count, and a chaos campaign at ``workers=4``
kills exactly the cells the serial run kills (the parity suite enforces
this).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .core.link_faults import LinkFaultConfig, LinkFaultModel
from .core.start_detector import DetectorState, DNNStartDetector
from .errors import ChaosError, ConfigError

__all__ = ["ChaosSpec", "ChaosInjector", "CHAOS_PRESETS", "chaos_preset"]


@dataclass(frozen=True)
class ChaosSpec:
    """What to break, and how hard.

    All probabilities are per-sample (readouts), per-event (triggers,
    cells) or per-frame (link).  ``link=None`` leaves the link clean.
    """

    noise_burst_prob: float = 0.0   # per readout: start a noise burst
    noise_burst_len: int = 4        # samples per burst
    noise_amp: int = 6              # max |counts| added during a burst
    stuck_prob: float = 0.0         # per readout: sensor output freezes
    stuck_len: int = 6              # samples it stays frozen
    trigger_drop_prob: float = 0.0  # per trigger edge: swallow it
    link: Optional[LinkFaultConfig] = None
    cell_failure_prob: float = 0.0  # per campaign cell: inject a failure
    worker_kill_prob: float = 0.0   # per campaign cell: kill its worker
    cell_hang_prob: float = 0.0     # per campaign cell: stall past its lease
    cell_hang_s: float = 0.25       # how long a hung cell stalls
    # Shard-level delivery faults (campaign-service runs only): mangle
    # how a cell's *result* travels, not whether the cell computes.
    worker_disconnect_prob: float = 0.0  # per cell: drop the result frame
    result_duplicate_prob: float = 0.0   # per cell: deliver the result twice
    result_delay_prob: float = 0.0       # per cell: delay the delivery
    result_delay_s: float = 0.05         # how long a delayed delivery waits
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("noise_burst_prob", "stuck_prob", "trigger_drop_prob",
                     "cell_failure_prob", "worker_kill_prob",
                     "cell_hang_prob", "worker_disconnect_prob",
                     "result_duplicate_prob", "result_delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name}={p} outside [0, 1]")
        if self.noise_burst_len < 1 or self.stuck_len < 1:
            raise ConfigError("burst/stuck lengths must be >= 1")
        if self.noise_amp < 0:
            raise ConfigError("noise_amp must be >= 0")
        if self.cell_hang_s < 0.0:
            raise ConfigError("cell_hang_s must be >= 0")
        if self.result_delay_s < 0.0:
            raise ConfigError("result_delay_s must be >= 0")


#: Named severity tiers, selected by the CLI's ``--chaos PRESET``.
CHAOS_PRESETS = {
    "off": ChaosSpec(),
    "mild": ChaosSpec(
        noise_burst_prob=0.002, noise_amp=3,
        link=LinkFaultConfig.lossy(0.05),
    ),
    "noisy": ChaosSpec(
        noise_burst_prob=0.01, noise_amp=6,
        stuck_prob=0.002,
        link=LinkFaultConfig.lossy(0.2),
    ),
    "hostile": ChaosSpec(
        noise_burst_prob=0.02, noise_amp=10,
        stuck_prob=0.005, stuck_len=10,
        trigger_drop_prob=0.25,
        link=LinkFaultConfig(drop=0.12, corrupt=0.1, truncate=0.05,
                             duplicate=0.05, reorder=0.05),
        cell_failure_prob=0.2,
        worker_kill_prob=0.1,
        cell_hang_prob=0.05, cell_hang_s=0.2,
        worker_disconnect_prob=0.1,
        result_duplicate_prob=0.1,
        result_delay_prob=0.05, result_delay_s=0.05,
    ),
}


def chaos_preset(name: str, seed: int = 0) -> ChaosSpec:
    """Look up a preset by name, reseeded for this run."""
    try:
        spec = CHAOS_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown chaos preset '{name}' "
            f"(choose from {sorted(CHAOS_PRESETS)})"
        ) from None
    return replace(spec, seed=seed)


class ChaosInjector:
    """Applies a :class:`ChaosSpec` to live attack components.

    One injector holds one RNG stream; reuse it across the context
    managers below so all perturbations come from the same seeded
    sequence.  The managers monkeypatch *instances* (never classes) and
    restore them on exit, even on error.
    """

    def __init__(self, spec: ChaosSpec,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(spec.seed)
        self.stats = {"noise_bursts": 0, "stuck_runs": 0,
                      "dropped_triggers": 0, "failed_cells": 0,
                      "killed_workers": 0, "hung_cells": 0,
                      "disconnected_shards": 0, "duplicated_results": 0,
                      "delayed_results": 0}
        #: cell -> fault directive drawn at dispatch (None = clean cell).
        self._cell_faults: dict = {}
        #: cell -> shard delivery directive drawn at dispatch (or None).
        self._shard_faults: dict = {}
        # streaming readout-filter state
        self._burst_left = 0
        self._stuck_left = 0
        self._held = 0

    # -- readout perturbation -------------------------------------------------

    def readout_filter(self, readout: int) -> int:
        """Streaming per-sample perturbation (stuck-at wins over noise)."""
        spec = self.spec
        if self._stuck_left > 0:
            self._stuck_left -= 1
            return self._held
        if spec.stuck_prob and self.rng.random() < spec.stuck_prob:
            self.stats["stuck_runs"] += 1
            self._stuck_left = spec.stuck_len - 1
            self._held = int(readout)
            return self._held
        if self._burst_left > 0:
            self._burst_left -= 1
            return int(readout) + self._noise()
        if spec.noise_burst_prob and self.rng.random() < spec.noise_burst_prob:
            self.stats["noise_bursts"] += 1
            self._burst_left = spec.noise_burst_len - 1
            return int(readout) + self._noise()
        return int(readout)

    def _noise(self) -> int:
        amp = self.spec.noise_amp
        return int(self.rng.integers(-amp, amp + 1)) if amp else 0

    def perturb_trace(self, trace: np.ndarray,
                      lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Batch version of :meth:`readout_filter`, clipped to [lo, hi]."""
        out = np.array([self.readout_filter(int(v)) for v in
                        np.asarray(trace).ravel()], dtype=np.int64)
        if hi is not None:
            out = np.clip(out, lo, hi)
        else:
            out = np.maximum(out, lo)
        return out.reshape(np.asarray(trace).shape)

    # -- context managers -----------------------------------------------------

    @contextlib.contextmanager
    def on_scheduler(self, scheduler) -> Iterator[None]:
        """Perturb every readout the scheduler's sensor produces,
        clipped to the sensor's physical range."""
        hi = scheduler.sensor.config.l_carry
        previous = scheduler.readout_filter

        def filt(readout: int) -> int:
            return max(0, min(hi, self.readout_filter(readout)))

        scheduler.readout_filter = filt
        try:
            yield
        finally:
            scheduler.readout_filter = previous

    @contextlib.contextmanager
    def on_sensor(self, sensor) -> Iterator[None]:
        """Perturb a bare :class:`~repro.sensors.tdc.TDCSensor`'s
        ``readout``/``sample_trace`` (for open-loop profiling paths)."""
        hi = sensor.config.l_carry
        orig_readout = sensor.readout
        orig_trace = sensor.sample_trace

        def readout(voltage: float) -> int:
            return max(0, min(hi, self.readout_filter(orig_readout(voltage))))

        def sample_trace(voltages: np.ndarray) -> np.ndarray:
            return self.perturb_trace(orig_trace(voltages), 0, hi)

        sensor.readout = readout
        sensor.sample_trace = sample_trace
        try:
            yield
        finally:
            del sensor.readout
            del sensor.sample_trace

    @contextlib.contextmanager
    def on_detector(self, detector: DNNStartDetector) -> Iterator[None]:
        """Randomly swallow trigger edges.

        A dropped trigger re-arms the FSM, so a *sustained* droop fires
        again after another debounce interval — exactly the failure the
        closed loop must survive.
        """
        orig = detector.observe_readout

        def observe_readout(readout: int) -> bool:
            fired = orig(readout)
            if fired and self.rng.random() < self.spec.trigger_drop_prob:
                self.stats["dropped_triggers"] += 1
                detector.state = DetectorState.ARMED
                return False
            return fired

        detector.observe_readout = observe_readout
        try:
            yield
        finally:
            del detector.observe_readout

    @contextlib.contextmanager
    def on_link(self, link) -> Iterator[None]:
        """Install this spec's frame-fault model on a UARTLink."""
        previous = link.fault_model
        if self.spec.link is not None:
            link.fault_model = LinkFaultModel(self.spec.link, rng=self.rng)
        try:
            yield
        finally:
            link.fault_model = previous

    @contextlib.contextmanager
    def applied(self, scheduler=None, sensor=None, detector=None,
                link=None) -> Iterator["ChaosInjector"]:
        """Apply every handler whose target was given, restore on exit."""
        with contextlib.ExitStack() as stack:
            if scheduler is not None:
                stack.enter_context(self.on_scheduler(scheduler))
                if detector is None:
                    detector = scheduler.detector
            if sensor is not None:
                stack.enter_context(self.on_sensor(sensor))
            if detector is not None:
                stack.enter_context(self.on_detector(detector))
            if link is not None:
                stack.enter_context(self.on_link(link))
            yield self

    # -- campaign hook --------------------------------------------------------

    def campaign_cell_hook(self, target: str, count: int) -> None:
        """``before_cell`` hook: randomly fail, kill, or hang a cell.

        A *failure* raises :class:`~repro.errors.ChaosError`, which
        ``run_campaign`` records as a
        :class:`~repro.core.campaign.CellFailure` — the campaign itself
        must keep going.  *Kill* and *hang* directives are stored for
        :meth:`cell_fault` and honoured inside the worker process
        (:func:`repro.core.executor._apply_fault`): a kill takes the
        whole worker down the way a segfault would, a hang stalls the
        cell past its lease.  Both are first-attempt only, so the
        supervisor's retry always recovers — which is the point: under
        supervision a hostile chaos campaign must converge to the same
        outcomes as a clean serial run.

        Shard-level delivery faults (disconnect / duplicate / delay —
        service campaigns only) are drawn here too and stored for
        :meth:`shard_fault`; the worker daemon honours them *around*
        delivery, so the cell still computes and the broker's
        lease-expiry/dedup machinery is what heals the damage.

        Worker-count independence: ``run_campaign`` invokes this in the
        submitting process at dispatch time, in canonical cell order,
        for serial and parallel runs alike — and *every* draw for a
        cell happens here, in a fixed order (fail, kill, hang,
        disconnect, duplicate, delay), with zero-probability draws
        skipped — so the RNG sequence is the same whether the campaign
        runs at ``workers=1``, ``workers=N``, or distributed under a
        broker.  The shard draws come *after* the original three, so
        pre-service specs keep their historical sequences bit-for-bit.
        """
        spec = self.spec
        fail = bool(spec.cell_failure_prob and
                    self.rng.random() < spec.cell_failure_prob)
        kill = bool(spec.worker_kill_prob and
                    self.rng.random() < spec.worker_kill_prob)
        hang = bool(spec.cell_hang_prob and
                    self.rng.random() < spec.cell_hang_prob)
        disconnect = bool(spec.worker_disconnect_prob and
                          self.rng.random() < spec.worker_disconnect_prob)
        duplicate = bool(spec.result_duplicate_prob and
                         self.rng.random() < spec.result_duplicate_prob)
        delay = bool(spec.result_delay_prob and
                     self.rng.random() < spec.result_delay_prob)
        directive = None
        if kill:
            directive = ("kill", 0)
            self.stats["killed_workers"] += 1
        elif hang:
            directive = ("hang", spec.cell_hang_s)
            self.stats["hung_cells"] += 1
        self._cell_faults[(target, count)] = directive
        shard = {}
        if disconnect:
            shard["disconnect"] = True
            self.stats["disconnected_shards"] += 1
        if duplicate:
            shard["duplicate"] = True
            self.stats["duplicated_results"] += 1
        if delay:
            shard["delay"] = spec.result_delay_s
            self.stats["delayed_results"] += 1
        self._shard_faults[(target, count)] = shard or None
        if fail:
            self.stats["failed_cells"] += 1
            raise ChaosError(
                f"chaos: injected failure in cell ({target}, {count})"
            )

    def cell_fault(self, target: str, count: int, attempt: int = 0):
        """Supervisor ``fault_hook``: the directive drawn for this cell.

        Draws *nothing* — all randomness happened in
        :meth:`campaign_cell_hook` at dispatch time, so dispatch order
        and retries cannot perturb the chaos sequence.  Directives
        apply to the first attempt only (``attempt > 0`` returns None):
        one kill or hang per cell, then the retry succeeds.
        """
        if attempt:
            return None
        return self._cell_faults.get((target, count))

    def shard_fault(self, target: str, count: int, attempt: int = 0):
        """Service ``shard_hook``: the delivery directive for this cell.

        Same contract as :meth:`cell_fault` — draws nothing, first
        attempt only — but aimed at the *delivery* path: a dict with any
        of ``disconnect`` (the worker computes the cell, then drops the
        result so the lease must expire), ``duplicate`` (the result is
        delivered twice and the broker must dedup), and ``delay``
        (seconds to sit on the result before delivering).
        """
        if attempt:
            return None
        return self._shard_faults.get((target, count))
