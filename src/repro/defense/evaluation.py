"""Defense studies: monitor performance and the attack/defense arms race.

Two experiments share this module:

* :class:`DetectionStudy` quantifies the droop monitor's trade-off —
  detection rate and latency versus false alarms on clean traffic — as
  the attacker dials intensity (striker cells, strike counts) up or
  down.
* :class:`ArmsRaceStudy` pits the striker against the detect-and-recover
  runtime (:class:`~repro.defense.HardenedAcceleratorEngine`), sweeping
  striker intensity × defense configuration and reporting
  accuracy-under-attack, recovery latency overhead, and the residual
  fault rate that slips past the razor latches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.activity import STALL_CURRENT, inference_current_trace
from ..accel.engine import AcceleratorEngine
from ..config import RecoveryConfig, SimulationConfig, default_config
from ..core.campaign import ARMS_TARGET_PREFIX, _reseed
from ..errors import ConfigError
from ..fpga.pdn import PowerDistributionNetwork
from ..nn.quantize import QuantizedModel
from ..sensors.delay import GateDelayModel
from ..sensors.tdc import TDCSensor
from ..striker.bank import effective_bank_current
from ..striker.cell import StrikerCell
from .droop_monitor import DroopMonitor
from .hardened_engine import HardenedAcceleratorEngine
from .recovery import RecoveryStats

__all__ = ["ArmsRaceCell", "ArmsRaceStudy", "DetectionResult",
           "DetectionStudy", "arms_target", "default_defenses",
           "parse_arms_target", "resolve_defense"]


@dataclass(frozen=True)
class DetectionResult:
    """Monitor performance at one attack intensity."""

    bank_cells: int
    n_strikes: int
    detection_rate: float
    mean_latency_s: Optional[float]
    false_alarm_rate: float  # alarms per clean trace


class DetectionStudy:
    """Generate clean/attacked traces and score a droop monitor.

    The study targets the victim's busiest layer (deepest legitimate
    droop), which is the attacker's best hiding place: if the monitor
    wins there, it wins everywhere.
    """

    def __init__(self, engine: AcceleratorEngine, sensor: TDCSensor,
                 seed: int = 0) -> None:
        self.engine = engine
        self.sensor = sensor
        self.config = engine.config
        self.seed = seed
        self._cell = StrikerCell(self.config.striker,
                                 GateDelayModel(self.config.delay))
        windows = engine.schedule.windows()
        self.target = max(windows, key=lambda w: w.plan.lanes)
        # Clean traces keyed by seed-offset family (100 = fit set, 900 =
        # false-alarm set), grown lazily.  Each trace is fully determined
        # by its seed, so memoizing across evaluate()/sweep() calls
        # changes nothing but the wall clock.
        self._trace_sets: Dict[int, List[np.ndarray]] = {}

    # -- trace generation ----------------------------------------------------

    def _trace(self, strike_cycles: Optional[np.ndarray], bank_cells: int,
               seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        current = inference_current_trace(
            self.engine.schedule, self.config.accel, self.config.clock,
            rng=rng,
        )
        if strike_cycles is not None and bank_cells > 0:
            tpc = self.config.clock.ticks_per_victim_cycle
            amps = effective_bank_current(bank_cells, self._cell,
                                          self.config.pdn)
            for cycle in strike_cycles:
                start = int(cycle) * tpc
                current[start:start + tpc] += amps
        pdn = PowerDistributionNetwork(self.config.pdn,
                                       dt=self.config.clock.sim_dt, rng=rng)
        pdn.settle(STALL_CURRENT)
        return self.sensor.sample_trace(pdn.simulate(current))

    def _clean_set(self, base: int, n: int) -> List[np.ndarray]:
        """First ``n`` clean traces of the ``seed + base + k`` family,
        memoized (an intensity sweep reuses them across every cell)."""
        traces = self._trace_sets.setdefault(base, [])
        while len(traces) < n:
            traces.append(self._trace(None, 0,
                                      self.seed + base + len(traces)))
        return traces[:n]

    def clean_traces(self, n: int = 4) -> List[np.ndarray]:
        return self._clean_set(100, n)

    def attacked_trace(self, bank_cells: int, n_strikes: int,
                       seed_offset: int = 0) -> np.ndarray:
        window = self.target
        if n_strikes < 1 or n_strikes > window.cycles:
            raise ConfigError(
                f"n_strikes must be in [1, {window.cycles}]"
            )
        cycles = window.start_cycle + np.linspace(
            0, window.cycles - 1, n_strikes
        ).astype(int)
        return self._trace(cycles, bank_cells,
                           self.seed + 500 + seed_offset)

    @property
    def attack_start_tick(self) -> int:
        return self.target.start_cycle * self.config.clock.ticks_per_victim_cycle

    # -- scoring ----------------------------------------------------------

    def evaluate(self, monitor: DroopMonitor, bank_cells: int,
                 n_strikes: int, trials: int = 4,
                 clean_trials: int = 4) -> DetectionResult:
        """Fit on clean traces, score on attacked and fresh clean ones.
        ``trials`` and ``clean_trials`` below 1 are a
        :class:`~repro.errors.ConfigError`."""
        if min(trials, clean_trials) < 1:
            raise ConfigError(f"detection needs at least 1 trial of each "
                              f"kind, got trials={trials}, "
                              f"clean_trials={clean_trials}")
        monitor.fit(self.clean_traces(clean_trials))

        detections = 0
        latencies: List[float] = []
        for k in range(trials):
            verdict = monitor.watch(
                self.attacked_trace(bank_cells, n_strikes, seed_offset=k)
            )
            if verdict.detected:
                detections += 1
                latency = monitor.detection_latency_s(
                    verdict, self.config.clock.sim_dt,
                    self.attack_start_tick,
                )
                if latency is not None:
                    latencies.append(latency)

        false_alarms = 0
        for fresh in self._clean_set(900, clean_trials):
            if monitor.watch(fresh).detected:
                false_alarms += 1

        return DetectionResult(
            bank_cells=bank_cells,
            n_strikes=n_strikes,
            detection_rate=detections / trials,
            mean_latency_s=(float(np.mean(latencies)) if latencies else None),
            false_alarm_rate=false_alarms / clean_trials,
        )

    def sweep(self, monitor: DroopMonitor,
              intensities: Sequence[tuple],
              trials: int = 3) -> List[DetectionResult]:
        """Evaluate across (bank_cells, n_strikes) intensities."""
        return [self.evaluate(monitor, cells, strikes, trials=trials)
                for cells, strikes in intensities]


# -- the arms race ----------------------------------------------------------


def default_defenses() -> Tuple[Tuple[str, Optional[RecoveryConfig]], ...]:
    """The standard arms-race defense axis: undefended baseline versus
    the full detect-and-recover runtime."""
    return tuple((label, resolve_defense(label))
                 for label in ("none", "recover"))


def resolve_defense(label: str) -> Optional[RecoveryConfig]:
    """The standard defense-label registry used by campaign workers.

    Campaign cells carry only the *label* over the wire (inside the
    ``arms:`` target string), so a defended campaign is restricted to
    this registry; bespoke :class:`~repro.config.RecoveryConfig` axes
    go through :meth:`ArmsRaceStudy.sweep` directly.

    The recovery configs use ``exhaustion_policy="accept"`` so a sweep
    cell overwhelmed by the attack reports degraded accuracy instead of
    aborting the whole study (the fail-stop policy is for deployments,
    not for measurement).
    """
    if label == "none":
        return None
    if label == "recover":
        return RecoveryConfig(exhaustion_policy="accept")
    if label == "tmr":
        return RecoveryConfig(tmr_final_fc=True, exhaustion_policy="accept")
    raise ConfigError(
        f"unknown defense label '{label}' (expected none/recover/tmr)"
    )


def arms_target(layer: str, defense: str, bank_cells: int) -> str:
    """Encode one arms-race column as a campaign target string,
    ``arms:<layer>:<defense>@<bank_cells>`` — the grammar that lets the
    arms-race grid ride the campaign orchestration (supervisor, cell
    cache, checkpoints) unchanged, with strike counts as the per-cell
    axis."""
    if not layer or ":" in layer or "@" in layer:
        raise ConfigError(f"bad arms-race layer name '{layer}'")
    resolve_defense(defense)  # label must be registry-resolvable
    if bank_cells < 1:
        raise ConfigError(f"bank_cells must be >= 1, got {bank_cells}")
    return f"{ARMS_TARGET_PREFIX}{layer}:{defense}@{bank_cells}"


def parse_arms_target(target: str) -> Tuple[str, str, int]:
    """Decode :func:`arms_target`; returns (layer, defense, bank_cells)."""
    if not target.startswith(ARMS_TARGET_PREFIX):
        raise ConfigError(f"not an arms-race target: '{target}'")
    body = target[len(ARMS_TARGET_PREFIX):]
    head, sep, bank = body.rpartition("@")
    layer, sep2, defense = head.partition(":")
    if not sep or not sep2 or not layer or not defense:
        raise ConfigError(
            f"bad arms-race target '{target}' "
            f"(expected arms:<layer>:<defense>@<bank_cells>)"
        )
    try:
        bank_cells = int(bank)
    except ValueError:
        raise ConfigError(
            f"bad bank size in arms-race target '{target}'"
        ) from None
    if bank_cells < 1:
        raise ConfigError(f"bank_cells must be >= 1, got {bank_cells}")
    return layer, defense, bank_cells


@dataclass(frozen=True)
class ArmsRaceCell:
    """One (striker intensity, defense) cell of the arms-race grid."""

    bank_cells: int
    n_strikes: int
    defense: str                 # label, e.g. "none" / "recover" / "tmr"
    clean_accuracy: float
    attacked_accuracy: float
    #: Fraction of images whose attacked prediction differs from the
    #: same engine's clean prediction — the faults that *survived* the
    #: defense (undefended: the raw fault-induced misprediction rate).
    residual_mismatch_rate: float
    replay_overhead: float       # extra cycles / baseline cycles
    razor_flags: int
    replays: int
    exhausted: int
    strikes_landed: int

    @property
    def accuracy_drop(self) -> float:
        return self.clean_accuracy - self.attacked_accuracy


class ArmsRaceStudy:
    """Striker intensity × defense configuration, head to head.

    Each cell plans the same characterization-mode strike train (the
    attacker does not know the defense is present) and executes it
    against either the undefended :class:`~repro.accel.AcceleratorEngine`
    or a :class:`HardenedAcceleratorEngine` built from a
    :class:`~repro.config.RecoveryConfig`.  Per-cell RNG seeds derive
    from the study seed and the cell coordinates, so any cell can be
    reproduced in isolation.

    The study is the arms-race *hot path* (docs/performance.md): the
    quantized model, clean predictions, clean/defended stage-code
    caches, calibrated clamps, and noise-free PDN strike pricing are all
    computed once and shared across every ``(bank_cells, n_strikes,
    defense)`` cell — engines are cached per defense label, strikers per
    bank size, plans per (layer, bank, strikes).  None of the shared
    work draws randomness, and every cell resets its engine's generator
    in place to ``default_rng(cell_seed)`` before injecting, so a warm
    study emits bit-identical cells to a cold one
    (``tests/defense/test_defense_parity.py``).
    """

    def __init__(self, model: QuantizedModel, images: np.ndarray,
                 labels: np.ndarray,
                 config: Optional[SimulationConfig] = None,
                 target_layer: str = "conv2",
                 input_shape: Tuple[int, ...] = (1, 28, 28),
                 seed: int = 0) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels)
        if images.shape[0] < 1 or images.shape[0] != labels.shape[0]:
            raise ConfigError("need matching, non-empty images and labels")
        self.model = model
        self.images = images
        self.labels = labels
        self.config = (config or default_config()).validate()
        self.target_layer = target_layer
        self.input_shape = input_shape
        self.seed = seed
        # Cross-cell reuse state (all RNG-free to build; see class doc).
        self._engines: Dict[str, Tuple[Optional[RecoveryConfig],
                                       AcceleratorEngine]] = {}
        self._plan_engine: Optional[AcceleratorEngine] = None
        self._planners: Dict[int, object] = {}
        self._plans: Dict[Tuple[str, int, int], object] = {}
        self._clean_preds: Optional[np.ndarray] = None

    def _cell_seed(self, bank_cells: int, n_strikes: int,
                   defense: str) -> int:
        digest = hashlib.blake2s(
            f"armsrace:{self.seed}:{bank_cells}:{n_strikes}:{defense}"
            .encode(), digest_size=8,
        ).digest()
        return int.from_bytes(digest, "little")

    def _build_engine(self, recovery: Optional[RecoveryConfig],
                      rng: np.random.Generator) -> AcceleratorEngine:
        if recovery is None:
            return AcceleratorEngine(self.model, self.config, rng,
                                     self.input_shape)
        cfg = dc_replace(self.config, recovery=recovery)
        engine = HardenedAcceleratorEngine(self.model, cfg, rng,
                                           self.input_shape)
        if recovery.clamp_activations:
            engine.calibrate(self.images)
        return engine

    def _engine_for(self, defense: str,
                    recovery: Optional[RecoveryConfig]
                    ) -> AcceleratorEngine:
        """One engine per defense label, rebuilt only if the label is
        re-used with a different recovery config."""
        entry = self._engines.get(defense)
        if entry is not None and entry[0] == recovery:
            return entry[1]
        engine = self._build_engine(recovery, np.random.default_rng(0))
        self._engines[defense] = (recovery, engine)
        return engine

    def _plan(self, layer: str, bank_cells: int, n_strikes: int):
        """Strike plan shared by every defense arm of a cell.

        Pricing is deterministic (noise-free PDN, settled-state
        snapshot) and independent of the recovery section, so one plain
        planning engine serves all defenses; strikers are cached per
        bank size to reuse their settled-trace cache across plans.
        """
        key = (layer, bank_cells, n_strikes)
        plan = self._plans.get(key)
        if plan is None:
            from ..core.attack import DeepStrike
            striker = self._planners.get(bank_cells)
            if striker is None:
                striker = DeepStrike(self._planning_engine(), bank_cells,
                                     np.random.default_rng(0))
                self._planners[bank_cells] = striker
            plan = striker.plan_for_layer(layer, n_strikes)
            self._plans[key] = plan
        return plan

    def _planning_engine(self) -> AcceleratorEngine:
        """The plain engine the study plans strikes and predicts clean
        with; it never injects."""
        if self._plan_engine is None:
            self._plan_engine = AcceleratorEngine(
                self.model, self.config, np.random.default_rng(0),
                self.input_shape)
        return self._plan_engine

    def clean_predictions(self) -> np.ndarray:
        """Clean model predictions on the eval slice (engine-independent
        and RNG-free; computed once, on the engine's exact GEMM
        forward)."""
        if self._clean_preds is None:
            engine = self._planning_engine()
            codes = self.model.quantize_input(self.images)
            for stage in self.model.stages:
                codes = engine.forward_stage(stage, codes)
            self._clean_preds = np.argmax(codes, axis=1)
        return self._clean_preds

    def run_cell(self, bank_cells: int, n_strikes: int,
                 recovery: Optional[RecoveryConfig] = None,
                 label: Optional[str] = None,
                 target_layer: Optional[str] = None) -> ArmsRaceCell:
        """Execute one grid cell; ``recovery=None`` is the undefended
        baseline.  ``target_layer`` overrides the study default (the
        per-cell seed scheme is unchanged — it covers the intensity and
        defense coordinates)."""
        defense = label if label is not None else (
            "none" if recovery is None else "recover"
        )
        layer = target_layer if target_layer is not None \
            else self.target_layer
        engine = self._engine_for(defense, recovery)
        plan = self._plan(layer, bank_cells, n_strikes)
        clean_preds = self.clean_predictions()

        # Injection is the cell's only RNG consumer: resetting the
        # engine generator (and the razor/replay models aliasing it) to
        # the cell seed reproduces a cold, fresh-engine run exactly.
        _reseed(engine.rng, self._cell_seed(bank_cells, n_strikes,
                                            defense))
        if isinstance(engine, HardenedAcceleratorEngine):
            engine.stats = RecoveryStats()
            engine.razor.reset()
            att_preds = engine.predict_under_attack(self.images,
                                                    plan.struck)
        else:
            # Undefended baseline: skip the stages upstream of the
            # struck layer via the engine's cached clean forward pass
            # (RNG-free, so the cell stream is untouched).
            att_preds = engine.predict_under_attack(
                self.images, plan.struck,
                stage_codes=engine.clean_stage_codes(self.images),
            )
        stats = getattr(engine, "stats", None)
        return ArmsRaceCell(
            bank_cells=bank_cells,
            n_strikes=n_strikes,
            defense=defense,
            clean_accuracy=float((clean_preds == self.labels).mean()),
            attacked_accuracy=float((att_preds == self.labels).mean()),
            residual_mismatch_rate=float((att_preds != clean_preds).mean()),
            replay_overhead=(stats.overhead_fraction if stats else 0.0),
            razor_flags=(stats.razor_flags if stats else 0),
            replays=(stats.replays if stats else 0),
            exhausted=(stats.exhausted if stats else 0),
            strikes_landed=plan.strikes_landed,
        )

    def sweep(self, intensities: Sequence[Tuple[int, int]],
              defenses: Optional[Sequence[
                  Tuple[str, Optional[RecoveryConfig]]]] = None,
              ) -> List[ArmsRaceCell]:
        """Full grid: every (bank_cells, n_strikes) × every defense."""
        axis = tuple(defenses) if defenses is not None else \
            default_defenses()
        cells: List[ArmsRaceCell] = []
        for bank_cells, n_strikes in intensities:
            for label, recovery in axis:
                cells.append(self.run_cell(bank_cells, n_strikes,
                                           recovery, label))
        return cells

    def campaign_spec(self, intensities: Sequence[Tuple[int, int]],
                      defenses: Optional[Sequence[
                          Tuple[str, Optional[RecoveryConfig]]]] = None):
        """The same grid as :meth:`sweep`, expressed as a
        :class:`~repro.core.campaign.CampaignSpec` so it runs through
        ``run_campaign``'s supervisor/cache/checkpoint machinery.

        Each ``(bank_cells, defense)`` column becomes one sweep whose
        target is :func:`arms_target` and whose counts are the strike
        intensities.  Only registry defenses (:func:`resolve_defense`)
        are expressible — workers rebuild the recovery config from the
        label alone.  Execution order differs from :meth:`sweep`
        (column-major vs intensity-major) but cells are seed-isolated,
        so the *set* of cells is bit-identical either way.
        """
        from ..core.campaign import CampaignSpec

        axis = tuple(defenses) if defenses is not None else \
            default_defenses()
        for lbl, recovery in axis:
            if resolve_defense(lbl) != recovery:
                raise ConfigError(
                    f"defense '{lbl}' is not expressible as a campaign "
                    f"cell: its recovery config does not match the "
                    f"standard registry (use ArmsRaceStudy.sweep)"
                )
        columns: Dict[str, List[int]] = {}
        for bank_cells, n_strikes in intensities:
            for lbl, _recovery in axis:
                target = arms_target(self.target_layer, lbl, bank_cells)
                counts = columns.setdefault(target, [])
                if n_strikes not in counts:
                    counts.append(n_strikes)
        return CampaignSpec(
            sweeps=tuple((target, tuple(sorted(counts)))
                         for target, counts in columns.items()),
            blind_counts=(),
            eval_images=int(self.images.shape[0]),
            seed=self.seed,
        )
