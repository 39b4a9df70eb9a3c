"""Central simulation configuration.

The reproduction replaces a physical PYNQ-Z1 board with numerical models.
Every model constant lives here, in one frozen dataclass per subsystem, so
that experiments can state exactly which physical assumptions they ran
under and ablation benches can sweep them.

Defaults are calibrated so the paper's *shapes* reproduce:

* the striker bank at 24,000 cells drives the DSP total fault rate to
  ~100% (Fig 6b),
* the TDC calibrated operating point sits near a readout of 90 out of 128
  (Fig 1b),
* a single 10 ns strike is one victim clock cycle (Section IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from .errors import ConfigError
from .units import mhz, mv, ns, ua

__all__ = [
    "ClockConfig",
    "PDNConfig",
    "DelayModelConfig",
    "TDCConfig",
    "DSPConfig",
    "StrikerConfig",
    "AcceleratorConfig",
    "ReliabilityConfig",
    "RecoveryConfig",
    "SupervisorConfig",
    "ServiceConfig",
    "SimulationConfig",
    "default_config",
]


@dataclass(frozen=True)
class ClockConfig:
    """Clock tree configuration of the simulated device.

    The global simulation tick is one period of the *fastest* clock in the
    design: the TDC driving clock / DSP double-data-rate clock at 200 MHz
    (5 ns).  The victim accelerator logic runs at 100 MHz (one op issue every
    2 ticks), matching the paper's 10 ns strike granularity.
    """

    sim_frequency_hz: float = mhz(200.0)
    victim_frequency_hz: float = mhz(100.0)
    tdc_drive_frequency_hz: float = mhz(200.0)
    signal_ram_frequency_hz: float = mhz(100.0)

    @property
    def sim_dt(self) -> float:
        """Simulation timestep in seconds (one tick)."""
        return 1.0 / self.sim_frequency_hz

    @property
    def ticks_per_victim_cycle(self) -> int:
        ratio = self.sim_frequency_hz / self.victim_frequency_hz
        return int(round(ratio))

    def validate(self) -> None:
        if self.sim_frequency_hz <= 0:
            raise ConfigError("sim_frequency_hz must be positive")
        for name in ("victim_frequency_hz", "tdc_drive_frequency_hz",
                     "signal_ram_frequency_hz"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
            ratio = self.sim_frequency_hz / value
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    f"{name} ({value:g} Hz) must divide the simulation "
                    f"frequency ({self.sim_frequency_hz:g} Hz) evenly"
                )


@dataclass(frozen=True)
class PDNConfig:
    """Power distribution network model with prompt and resonant droop.

    Real PDN output impedance has two regimes the attack exploits:

    * a *prompt* (high-frequency, decap-limited) component — a one-pole
      response with time constant ``tau_prompt`` and impedance
      ``r_prompt`` that makes a single 10 ns strike dip the rail
      immediately, and
    * a *resonant* (mid-frequency, package RLC) component — droop ``y``
      obeying ``y'' + 2*zeta*w_n*y' + w_n^2 y = w_n^2 * r_resonant * i``
      which contributes ringing and microsecond-scale recovery.

    The rail voltage is ``v = v_nominal - y_prompt - y_resonant -
    r_static*i + noise``.
    """

    v_nominal: float = 1.0
    resonance_hz: float = mhz(10.0)
    damping_ratio: float = 0.35
    r_resonant: float = 0.012   # ohms: resonant transient impedance
    r_prompt: float = 0.138     # ohms: prompt (high-frequency) impedance
    tau_prompt: float = ns(2.0)  # seconds: prompt response time constant
    r_static: float = 0.012     # ohms: DC IR-drop term
    idle_current: float = 0.080  # amperes drawn by static logic
    noise_sigma_v: float = mv(1.2)  # gaussian supply noise

    def validate(self) -> None:
        if not 0.0 < self.damping_ratio < 1.0:
            raise ConfigError("damping_ratio must be in (0, 1) (underdamped)")
        if self.v_nominal <= 0:
            raise ConfigError("v_nominal must be positive")
        for name in ("resonance_hz", "r_resonant", "r_prompt", "tau_prompt",
                     "r_static"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.idle_current < 0 or self.noise_sigma_v < 0:
            raise ConfigError("idle_current and noise_sigma_v must be >= 0")


@dataclass(frozen=True)
class DelayModelConfig:
    """Alpha-power-law gate delay versus supply voltage.

    ``delay(v) = delay_nominal * ((v_nominal - v_th) / (v - v_th))**alpha``

    with ``alpha`` between 1 and 2 for deep-submicron CMOS.  Used by both the
    TDC delay lines and the DSP critical-path timing model, so the sensor
    and the fault mechanism respond to the same physics.
    """

    v_nominal: float = 1.0
    v_threshold: float = 0.35
    alpha: float = 1.3

    def validate(self) -> None:
        if self.v_threshold >= self.v_nominal:
            raise ConfigError("v_threshold must be below v_nominal")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")


@dataclass(frozen=True)
class TDCConfig:
    """TDC-based delay sensor (paper Section III-B).

    ``l_lut`` LUT delay-line stages feed an ``l_carry``-stage carry chain;
    the launch and sample clocks share frequency ``ClockConfig.
    tdc_drive_frequency_hz`` and differ by the calibrated phase ``theta``.
    The paper's configuration is ``F_dr=200 MHz, L_LUT=4, L_CARRY=128`` with
    theta calibrated for ~90 consecutive ones at nominal voltage.
    """

    l_lut: int = 4
    l_carry: int = 128
    lut_stage_delay_nominal: float = ns(0.80)
    carry_stage_delay_nominal: float = ns(0.016)
    jitter_sigma: float = ns(0.004)
    calibration_target: int = 92  # "approximately 90 consecutive 1s" (paper)

    def validate(self) -> None:
        if self.l_lut < 1 or self.l_carry < 8:
            raise ConfigError("TDC delay lines too short (l_lut>=1, l_carry>=8)")
        if not 0 < self.calibration_target < self.l_carry:
            raise ConfigError("calibration_target must be within the carry chain")
        for name in ("lut_stage_delay_nominal", "carry_stage_delay_nominal"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")


@dataclass(frozen=True)
class DSPConfig:
    """DSP48 slice model: pre-adder + multiplier, double-data-rate clocked.

    The pipeline computes ``(a + d) * b`` with ``pipeline_depth`` register
    stages; the victim fetches the result after 5 victim cycles (paper
    Section IV-A).  ``critical_path_nominal`` leaves ~8% slack at the DDR
    period of 5 ns, mirroring the "tight but clean" timing closure the paper
    describes for double-pumped DSPs.
    """

    pipeline_depth: int = 5
    ddr_frequency_hz: float = mhz(200.0)
    critical_path_nominal: float = ns(4.60)
    # Fault stochastics (see repro.dsp.faults): each operation excites a
    # data-dependent fraction of the critical path — its effective delay is
    # ``critical_path_nominal * (excitation_base + excitation_span * x)``
    # with ``x ~ Beta(1, excitation_shape)``; an op faults when that
    # effective delay misses the DDR period.  Conditioned on a fault,
    # shallow violations duplicate, deep ones randomize, with crossover
    # scale ``duplication_decay``.
    excitation_base: float = 0.88
    excitation_span: float = 0.12
    excitation_shape: float = 2.0
    duplication_decay: float = ns(0.15)

    @property
    def ddr_period(self) -> float:
        return 1.0 / self.ddr_frequency_hz

    def validate(self) -> None:
        if self.pipeline_depth < 2:
            raise ConfigError("pipeline_depth must be >= 2")
        if self.critical_path_nominal >= self.ddr_period:
            raise ConfigError(
                "DSP fails timing at nominal voltage: critical path "
                f"{self.critical_path_nominal} >= period {self.ddr_period}"
            )
        if not 0.0 < self.excitation_base <= 1.0:
            raise ConfigError("excitation_base must be in (0, 1]")
        if not 0.0 < self.excitation_span <= 1.0 - self.excitation_base + 1e-12:
            raise ConfigError(
                "excitation_span must keep base+span within (0, 1]"
            )
        for name in ("excitation_shape", "duplication_decay"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class StrikerConfig:
    """Latch-loop power striker cell bank (paper Section III-C).

    Each LUT6_2 + 2x LDCE cell hosts two self-oscillating loops.  The loop
    period is two latch-loop traversals, giving an oscillation near 250 MHz;
    ``current_per_cell`` is the average dynamic current of one cell with both
    loops toggling.  24,000 cells then draw ~1.1 A, enough to collapse the
    modelled PDN by ~150 mV and drive the DSP fault rate to ~100% (Fig 6b).
    """

    loops_per_cell: int = 2
    loop_delay_nominal: float = ns(2.0)
    current_per_cell: float = ua(38.0)
    luts_per_cell: int = 1
    latches_per_cell: int = 2

    def validate(self) -> None:
        if self.loops_per_cell < 1:
            raise ConfigError("loops_per_cell must be >= 1")
        if self.loop_delay_nominal <= 0 or self.current_per_cell <= 0:
            raise ConfigError("loop delay and cell current must be positive")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Victim DNN accelerator resource/energy model.

    ``conv_lanes`` DSP slices work in parallel on convolution layers while
    fully connected layers stream through ``fc_lanes`` slices (the paper
    notes FC layers only accumulate prior products serially, which is why
    FC1 runs longest despite fewer total MACs than CONV2 would suggest).
    """

    conv_lanes: int = 32
    fc_lanes: int = 8
    pool_lanes: int = 8
    current_per_active_dsp: float = ua(1800.0)
    current_per_pool_op: float = ua(2000.0)
    bram_current_per_access: float = ua(200.0)
    activity_jitter: float = 0.18  # cycle-to-cycle activity modulation
    interlayer_stall_cycles: int = 400
    #: Images per batch in accuracy_under_attack, under both dtype
    #: policies.  Part of the batched RNG stream contract
    #: (docs/performance.md): changing it changes where batch
    #: boundaries fall and therefore the sampled fault outcomes.
    eval_batch_size: int = 64

    def validate(self) -> None:
        for name in ("conv_lanes", "fc_lanes", "pool_lanes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.interlayer_stall_cycles < 0:
            raise ConfigError("interlayer_stall_cycles must be >= 0")
        if self.eval_batch_size < 1:
            raise ConfigError("eval_batch_size must be >= 1")


@dataclass(frozen=True)
class ReliabilityConfig:
    """Hostile-environment tolerance of the attack's control plane.

    The paper's remote guidance runs over a microcontroller-class UART
    sharing a noisy physical environment with the strikes it commands;
    the on-chip start detector watches a sensor the striker itself
    perturbs.  This section parameterizes how hard the attacker fights
    back: the ARQ retry budget and backoff schedule for the link, and
    the detector's tolerance for glitched samples inside a debounce
    streak.  See ``docs/reliability.md``.
    """

    #: Retransmissions per operation after the first attempt.
    max_retries: int = 10
    #: First retransmission wait, seconds (simulated wall clock).
    backoff_base_s: float = 1e-3
    #: Multiplier applied to the wait after every failed attempt.
    backoff_factor: float = 2.0
    #: Ceiling on a single backoff wait, seconds.
    backoff_max_s: float = 0.25
    #: Total simulated wait budget per operation before the link is
    #: declared dead, seconds.
    op_timeout_s: float = 5.0
    #: Fractional random jitter on every backoff wait: a wait of ``b``
    #: becomes ``b * (1 ± backoff_jitter)``.  Decorrelates shards that
    #: share a link fault, so they do not retry in lockstep and re-collide.
    backoff_jitter: float = 0.1
    #: Non-conforming samples forgiven inside a detector debounce streak
    #: (0 reproduces the paper's strict purification FSM).
    detector_glitch_tolerance: int = 0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_max_s <= 0:
            raise ConfigError("backoff waits must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.op_timeout_s <= 0:
            raise ConfigError("op_timeout_s must be positive")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigError("backoff_jitter must be in [0, 1)")
        if self.detector_glitch_tolerance < 0:
            raise ConfigError("detector_glitch_tolerance must be >= 0")


@dataclass(frozen=True)
class RecoveryConfig:
    """Victim-side detect-and-recover runtime (docs/defense.md).

    Models the three layers of the hardened victim: a razor-style shadow
    latch on every DSP capture edge, a per-layer checkpoint/rollback
    replay path running at a divided clock (droop-immune but slower),
    and algorithmic containment (activation-range clamping, optional TMR
    on the final FC layer) for whatever slips through.
    """

    #: Shadow-latch timing-error detection on DSP capture edges.
    razor_enabled: bool = True
    #: P(the shadow latch flags a shallow, duplication-class miss).  The
    #: late edge lands inside the shadow sampling window, so coverage is
    #: high.
    razor_dup_coverage: float = 0.95
    #: P(the shadow latch flags a deep, random-class miss).  Deep
    #: violations can corrupt the shadow sample too, so coverage is
    #: lower — exactly the faults containment has to absorb.
    razor_random_coverage: float = 0.65
    #: Rollback replays per layer per inference before giving up.
    max_replays_per_layer: int = 3
    #: Clock divisor of the replay path (2 = half rate; 1 = retry at
    #: speed, for ablations).
    replay_clock_divisor: int = 2
    #: Clamp compute-layer outputs to calibrated clean ranges.
    clamp_activations: bool = True
    #: Fractional widening of each calibrated range, per side.
    clamp_margin: float = 0.05
    #: Triple-execute the final FC layer and majority-vote the scores.
    tmr_final_fc: bool = False
    #: Images consumed from the calibration set when learning ranges.
    calibration_images: int = 32
    #: What to do when the replay budget runs out: "raise" a typed
    #: RecoveryExhaustedError (fail-stop) or "accept" the last replay's
    #: still-flagged result (fail-degraded, counted in stats).
    exhaustion_policy: str = "raise"

    def validate(self) -> None:
        for name in ("razor_dup_coverage", "razor_random_coverage"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name}={p} outside [0, 1]")
        if self.max_replays_per_layer < 0:
            raise ConfigError("max_replays_per_layer must be >= 0")
        if self.replay_clock_divisor < 1:
            raise ConfigError("replay_clock_divisor must be >= 1")
        if self.clamp_margin < 0:
            raise ConfigError("clamp_margin must be >= 0")
        if self.calibration_images < 1:
            raise ConfigError("calibration_images must be >= 1")
        if self.exhaustion_policy not in ("raise", "accept"):
            raise ConfigError(
                "exhaustion_policy must be 'raise' or 'accept', "
                f"got {self.exhaustion_policy!r}"
            )


@dataclass(frozen=True)
class SupervisorConfig:
    """The lease policy of every multi-worker campaign
    (docs/reliability.md §3c), passed as ``run_campaign(supervisor=...)``.

    ``workers>1`` and ``service=`` campaigns both run through the
    campaign broker and report to one lease book, which retries lost
    cells after an exponential hold, cancels cells at their lease
    deadline and quarantines poison cells — so a campaign survives
    crashes, hangs and repeat offenders without a manual resume.  Only
    these two values are settable; the rest of the policy is constants
    in :mod:`repro.core.supervisor`.
    """

    #: Lease deadline per granted cell.  A cell still running at its
    #: deadline is presumed hung and reclaimed: the broker re-queues it
    #: and terminates the local worker running it.  It is also how the
    #: broker recovers a result lost in delivery.  ``None`` disables
    #: leases.
    cell_timeout_s: Optional[float] = 120.0
    #: Worker-fatal losses plus lease expiries allowed per cell; one more
    #: and the cell fails with kind="timeout"/"quarantined" instead of
    #: aborting the run.
    max_retries: int = 3

    def validate(self) -> None:
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass(frozen=True)
class ServiceConfig:
    """Where the broker listens (docs/reliability.md §3c), passed as
    ``run_campaign(service=...)``.

    The lease policy lives in :class:`SupervisorConfig`; the broker's
    timings are constants in :mod:`repro.core.service.broker`.
    """

    #: Interface the broker binds (workers connect here).
    host: str = "127.0.0.1"
    #: Broker TCP port; 0 binds an ephemeral port (reported at start).
    port: int = 0
    #: Local worker daemons the broker spawns itself at start (the
    #: one-command distributed path); remote workers may still attach.
    local_workers: int = 0

    def validate(self) -> None:
        if not self.host:
            raise ConfigError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port {self.port} outside [0, 65535]")
        if self.local_workers < 0:
            raise ConfigError("local_workers must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Bundle of all subsystem configurations plus the global RNG seed.

    Every section can change a simulated outcome, so all of it is part
    of a campaign cell's cache address; where and when cells run
    (:class:`SupervisorConfig`, :class:`ServiceConfig`) are
    ``run_campaign`` arguments instead.
    """

    clock: ClockConfig = field(default_factory=ClockConfig)
    pdn: PDNConfig = field(default_factory=PDNConfig)
    delay: DelayModelConfig = field(default_factory=DelayModelConfig)
    tdc: TDCConfig = field(default_factory=TDCConfig)
    dsp: DSPConfig = field(default_factory=DSPConfig)
    striker: StrikerConfig = field(default_factory=StrikerConfig)
    accel: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    #: How the two per-op Bernoulli tests draw; both policies run the
    #: same exact forward and injector.  "fxp" draws one uniform per
    #: (image, exposed op) for the fault test and per (faulted image,
    #: exposed op) for the razor: the byte-parity reference.  "fp32"
    #: draws fault sites by sparse Poisson thinning and one razor
    #: uniform per faulted site: the same laws on another stream,
    #: pinned to the reference by differential tolerance tests.
    dtype_policy: str = "fxp"
    seed: int = 20210705

    def validate(self) -> "SimulationConfig":
        """Validate every subsystem; returns self for chaining."""
        self.clock.validate()
        self.pdn.validate()
        self.delay.validate()
        self.tdc.validate()
        self.dsp.validate()
        self.striker.validate()
        self.accel.validate()
        self.reliability.validate()
        self.recovery.validate()
        if self.dtype_policy not in ("fxp", "fp32"):
            raise ConfigError(
                f"dtype_policy must be 'fxp' or 'fp32', got {self.dtype_policy!r}"
            )
        if self.pdn.v_nominal != self.delay.v_nominal:
            raise ConfigError(
                "PDN and delay model disagree on nominal voltage: "
                f"{self.pdn.v_nominal} vs {self.delay.v_nominal}"
            )
        return self

    def with_overrides(self, **sections: Any) -> "SimulationConfig":
        """Return a copy with whole sections replaced, e.g.
        ``cfg.with_overrides(tdc=replace(cfg.tdc, l_lut=8))``."""
        return replace(self, **sections)

    def describe(self) -> Dict[str, Any]:
        """Flat description dict for experiment logs."""
        return {
            "sim_frequency_hz": self.clock.sim_frequency_hz,
            "victim_frequency_hz": self.clock.victim_frequency_hz,
            "pdn_resonance_hz": self.pdn.resonance_hz,
            "pdn_r_prompt": self.pdn.r_prompt,
            "pdn_r_resonant": self.pdn.r_resonant,
            "tdc_l_lut": self.tdc.l_lut,
            "tdc_l_carry": self.tdc.l_carry,
            "dsp_critical_path_ns": self.dsp.critical_path_nominal * 1e9,
            "striker_current_per_cell_a": self.striker.current_per_cell,
            "seed": self.seed,
        }


def default_config(seed: int = 20210705) -> SimulationConfig:
    """The paper-calibrated default configuration."""
    return SimulationConfig(seed=seed).validate()
