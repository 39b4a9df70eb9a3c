"""Campaign orchestration: structured attack studies with persistence.

A *campaign* is the full Fig 5(b)-style study — several targets, several
strike counts, a blind baseline — executed once and persisted as JSON so
reports and notebooks can consume the numbers without re-simulation.
The CLI's ``report`` subcommand and downstream analyses build on this.

Long campaigns run in a hostile environment (they are, after all,
simulating an attack that destabilizes its own platform), so execution
is fault-isolated and resumable:

* every ``(target, strike count)`` cell runs under its *own*
  deterministically derived RNG stream, so a cell's numbers do not
  depend on which cells ran before it;
* a failing cell records a structured :class:`CellFailure` and the
  campaign carries on instead of dying;
* with ``checkpoint_path`` set, an atomically written checkpoint (temp
  file + ``os.replace``) lands after every cell, and
  ``resume_from=<checkpoint>`` skips completed cells — an interrupted
  campaign resumed from its checkpoint produces a byte-identical final
  JSON to an uninterrupted run.

Because every cell runs under its own stream, cells are also
*embarrassingly parallel*.  ``run_campaign`` has two execution paths —
serial, and the campaign broker (:mod:`repro.core.service`) under the
lease book of :mod:`repro.core.supervisor`, either private to its own
local workers (``workers=N``) or served to any worker that joins
(``service=``) — with the guarantee, enforced by
``tests/core/test_parallel_parity.py`` and its siblings, that the final
campaign JSON is byte-identical to the serial run, including
interrupted-and-resumed runs.  :func:`_execute_cell` is the single
source of truth both call.

File format v2 adds the ``failures`` and ``complete`` fields; v1 files
still load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import ServiceConfig, SupervisorConfig
from ..errors import ConfigError, ReproError
from .attack import DeepStrike
from .blind import BlindAttack
from .evaluation import AttackOutcome, LayerSweepResult

__all__ = ["CampaignSpec", "CampaignResult", "CellFailure", "run_campaign",
           "save_campaign", "load_campaign"]

FORMAT_VERSION = 2

#: Sweep name under which the unguided baseline's cells are recorded.
BLIND_TARGET = "blind"

#: Target prefix routing a cell to the arms-race study — the grammar is
#: ``arms:<layer>:<defense>@<bank_cells>``; see
#: :func:`repro.defense.arms_target`.  Defined here so the campaign core
#: never imports the defense package for plain campaigns.
ARMS_TARGET_PREFIX = "arms:"


@dataclass(frozen=True)
class CampaignSpec:
    """What to run: per-target strike counts plus the baseline."""

    sweeps: Tuple[Tuple[str, Tuple[int, ...]], ...]
    blind_counts: Tuple[int, ...] = ()
    eval_images: int = 120
    bank_cells: Optional[int] = None  # None, or the attack's bank size
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sweeps:
            raise ConfigError("a campaign needs at least one target sweep")
        targets = [layer for layer, _ in self.sweeps]
        if self.blind_counts:
            targets.append(BLIND_TARGET)
        if len(set(targets)) != len(targets):
            raise ConfigError(f"sweep targets must be distinct: {targets}")
        for layer, counts in self.sweeps:
            if not counts:
                raise ConfigError(f"target '{layer}' has no strike counts")
        for layer, counts in (*self.sweeps, (BLIND_TARGET,
                                             self.blind_counts)):
            if any(a >= b for a, b in zip(counts, counts[1:])):
                raise ConfigError(
                    f"strike counts for '{layer}' must be strictly "
                    f"increasing, got {list(counts)}"
                )
        if self.eval_images < 1:
            raise ConfigError("eval_images must be >= 1")

    @classmethod
    def fig5b_default(cls) -> "CampaignSpec":
        """The default Fig 5(b) study on the LeNet-5 victim."""
        return cls(
            sweeps=(
                ("conv1", (500, 1000, 1500, 1800)),
                ("conv2", (500, 1500, 3000, 4500)),
                ("fc1", (500, 1500, 3000, 4500)),
                ("pool1", (40, 90, 140)),
            ),
            blind_counts=(1500, 4500),
        )

    def cells(self) -> List[Tuple[str, int]]:
        """Every ``(target, count)`` cell in canonical execution order."""
        out = [(layer, count) for layer, counts in self.sweeps
               for count in counts]
        out.extend((BLIND_TARGET, count) for count in self.blind_counts)
        return out


@dataclass(frozen=True)
class CellFailure:
    """One isolated per-cell failure (the campaign kept going).

    ``kind`` classifies how the cell died: ``"error"`` (an in-cell
    :class:`~repro.errors.ReproError`, the classic case), or — a verdict
    of the lease book behind every multi-worker campaign —
    ``"quarantined"`` (the cell lost its worker ``QUARANTINE_AFTER``
    times) or ``"timeout"`` (the cell kept overrunning its lease until
    its retry budget ran out).  Pre-supervisor v2 checkpoints have no
    ``kind`` field and load as ``"error"``.
    """

    target_layer: str
    n_strikes: int
    error_type: str
    message: str
    kind: str = "error"


@dataclass
class CampaignResult:
    """Everything a campaign measured."""

    spec: CampaignSpec
    clean_accuracy: float
    sweeps: List[LayerSweepResult] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)

    def sweep(self, target: str) -> LayerSweepResult:
        for s in self.sweeps:
            if s.target_layer == target:
                return s
        raise ConfigError(f"no sweep for target '{target}'")

    def max_drops(self) -> Dict[str, float]:
        return {s.target_layer: s.max_drop for s in self.sweeps}

    def most_sensitive_target(self) -> str:
        return max(self.sweeps, key=lambda s: s.max_drop).target_layer


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cell_seed(base: int, target: str, count: int) -> int:
    """Stable 64-bit per-cell seed (process-independent, unlike hash())."""
    digest = hashlib.blake2s(f"{base}:{target}:{count}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _reseed(rng: np.random.Generator, seed: int) -> None:
    """Reset a generator in place so aliased references follow along."""
    rng.bit_generator.state = np.random.default_rng(seed).bit_generator.state


#: XOR salt deriving the blind baseline's stream from the cell seed.
_BLIND_SEED_SALT = 0x9E3779B9


def _execute_cell(attack: DeepStrike, blind_box: Dict[str, BlindAttack],
                  images: np.ndarray, labels: np.ndarray,
                  base_seed: int, target: str, count: int,
                  clean: Optional[float] = None) -> AttackOutcome:
    """Run one ``(target, count)`` cell under its derived RNG stream.

    The single source of truth for cell execution: the serial loop and
    every worker (:mod:`repro.core.service.worker`) call exactly this
    function, which is what makes a ``workers=N`` campaign byte-identical
    to the serial run.  ``blind_box`` caches the lazily built
    :class:`BlindAttack` across calls (one per process); ``clean`` is the
    campaign-level clean-accuracy baseline, measured once and shared so
    cells skip the per-cell clean forward pass.  An arms-race cell runs
    on one warm :class:`~repro.defense.ArmsRaceStudy` per process (also
    kept in ``blind_box``) under the study's own per-cell seed scheme,
    which makes it bit-identical to a direct ``ArmsRaceStudy.sweep``.
    """
    if target.startswith(ARMS_TARGET_PREFIX):
        from ..defense.evaluation import (ArmsRaceStudy, parse_arms_target,
                                          resolve_defense)

        study = blind_box.get("__arms__")
        if study is None:
            study = ArmsRaceStudy(attack.engine.model, images, labels,
                                  config=attack.config, seed=base_seed,
                                  input_shape=attack.engine.input_shape)
            blind_box["__arms__"] = study
        layer, defense, bank_cells = parse_arms_target(target)
        return study.run_cell(bank_cells, count, resolve_defense(defense),
                              label=defense, target_layer=layer)
    seed = _cell_seed(base_seed, target, count)
    _reseed(attack.engine.rng, seed)
    if target == BLIND_TARGET:
        blind = blind_box.get(BLIND_TARGET)
        if blind is None:
            blind = BlindAttack(attack.engine, bank_cells=attack.bank_cells,
                                rng=np.random.default_rng(0))
            blind_box[BLIND_TARGET] = blind
        _reseed(blind.rng, seed ^ _BLIND_SEED_SALT)
        return blind.execute(images, labels, blind.plan_random(count),
                             clean_accuracy=clean)
    plan = attack.plan_for_layer(target, count)
    return attack.execute(images, labels, plan, clean_accuracy=clean)


def _failure_from(target: str, count: int, exc: ReproError) -> CellFailure:
    """The record of a cell that raised ``exc`` (its hook or its body)."""
    return CellFailure(target_layer=target, n_strikes=count,
                       error_type=type(exc).__name__, message=str(exc))


def _assemble(spec: CampaignSpec, clean: float,
              outcomes: Dict[Tuple[str, int], AttackOutcome],
              failures: Dict[Tuple[str, int], CellFailure]
              ) -> CampaignResult:
    """Build a result from whatever cells exist, in canonical order."""
    result = CampaignResult(spec=spec, clean_accuracy=clean)
    for layer, counts in spec.sweeps:
        sweep = LayerSweepResult(layer)
        sweep.outcomes = [outcomes[(layer, c)] for c in counts
                          if (layer, c) in outcomes]
        result.sweeps.append(sweep)
    if spec.blind_counts:
        sweep = LayerSweepResult(BLIND_TARGET)
        sweep.outcomes = [outcomes[(BLIND_TARGET, c)]
                          for c in spec.blind_counts
                          if (BLIND_TARGET, c) in outcomes]
        result.sweeps.append(sweep)
    result.failures = [failures[key] for key in spec.cells()
                       if key in failures]
    return result


def run_campaign(attack: DeepStrike, images: np.ndarray,
                 labels: np.ndarray,
                 spec: Optional[CampaignSpec] = None,
                 *,
                 checkpoint_path=None,
                 resume_from=None,
                 before_cell: Optional[Callable[[str, int], None]] = None,
                 workers: int = 1,
                 cache=None,
                 supervisor=None,
                 service=None,
                 fault_hook=None,
                 shard_hook=None,
                 stats=None,
                 on_bound=None,
                 ) -> CampaignResult:
    """Execute a campaign with the given attacker.

    Parameters
    ----------
    checkpoint_path:
        Write an atomically replaced checkpoint here after every cell.
    resume_from:
        Path of a checkpoint (or finished campaign file) whose completed
        cells are skipped.  Its spec must match ``spec`` when both are
        given; with ``spec=None`` the checkpoint's spec is used.  Cells
        that previously *failed* are retried.
    before_cell:
        Called with ``(target, count)`` in the *submitting* process at
        *dispatch time*, in canonical :meth:`CampaignSpec.cells` order —
        under ``workers=1`` that is immediately before the cell
        executes; under ``workers>1`` or ``service`` it fires for the
        whole pending set before any dispatch, so the hook must not
        depend on earlier cells' results.  A
        :class:`~repro.errors.ReproError` raised here (or inside the
        cell) is recorded as a :class:`CellFailure` and the cell is
        never executed; anything else — notably
        ``KeyboardInterrupt`` — propagates, leaving the last checkpoint
        valid on disk.  Because the hook always runs in the submitting
        process in canonical order, a stateful hook (e.g. the chaos
        injector's cell killer) makes identical decisions at every
        worker count.
    workers:
        Shard pending cells across this many local worker processes
        (at most ``MAX_WORKERS``), leased by a private campaign broker
        on an ephemeral loopback port that answers only the workers it
        spawned.  ``1`` (the default) runs the serial path.  Per-cell
        reseeding makes the final result byte-identical either way.
        Forked workers run on ``attack`` itself, as does the in-process
        last rung; under a spawn start they rebuild it from its
        :class:`~repro.core.executor.WorkerRecipe`, which refuses a
        victim the zoo cannot rebuild with :class:`ConfigError`.
    cache:
        A :class:`~repro.core.cellcache.CellCache` (or a directory path
        for one).  Completed cells whose content address — victim
        weights, config, bank size, evaluation slice, cell, seed — is
        already cached are merged without recomputation before any
        cell is dispatched; newly computed cells are stored once, on
        the way out.  This process is the cache's only reader and
        writer — workers never touch it.  Cache hits preserve the
        byte-parity contract: a warm run emits the same JSON as a cold
        serial run.
    supervisor:
        A :class:`~repro.config.SupervisorConfig`, the lease policy of
        every multi-worker campaign (:mod:`repro.core.supervisor`);
        ``None`` takes its defaults.  Lost workers' cells are retried
        after a backoff, cells are reclaimed at their lease deadline,
        poison cells are quarantined, and dead or hung local workers
        are replaced until a budget is spent, then the campaign
        finishes in-process rather than aborting.  It decides where and
        when a cell runs, never its outcome, so it is no part of a
        cell's cache address.
    service:
        A :class:`~repro.config.ServiceConfig`: serve the campaign to
        any worker that joins (:mod:`repro.core.service`) instead of
        only to private local workers.  This process binds
        ``host:port``, spawns ``service.local_workers`` worker daemons,
        and leases pending cells to whoever registers (``repro work
        --broker`` attaches more workers from anywhere).  The lease
        book, plus missed-heartbeat eviction and work stealing, keeps
        the merged checkpoint byte-identical to a serial run; if no
        worker stays alive for the broker's grace period it finishes
        the remaining cells in-process.  No broker binds when every
        cell is already settled (resumed or cached).  Mutually
        exclusive with ``workers > 1``.
    fault_hook:
        Test-and-chaos hook ``(target, count, attempt) -> directive``
        consulted at each dispatch to a worker; see
        :meth:`repro.chaos.ChaosInjector.cell_fault`.
    shard_hook:
        Service-only hook ``(target, count, attempt) -> directive``
        mangling *result delivery* (disconnect / duplicate / delay);
        see :meth:`repro.chaos.ChaosInjector.shard_fault`.  Ignored
        without ``service``.
    on_bound:
        Service-only callback receiving the broker's bound ``(host,
        port)`` before serving starts (the CLI prints it; tests attach
        workers to it).
    stats:
        A :class:`~repro.core.supervisor.SupervisorStats` mutated in
        place with dispatch/retry/cache counters (works for serial runs
        too — the dispatch counter is how zero-recompute warm-cache runs
        are verified).
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if service is not None and workers > 1:
        raise ConfigError(
            "service= and workers>1 are mutually exclusive; a service "
            "campaign parallelizes through registered workers "
            "(service.local_workers, repro work --broker)"
        )
    plan_spec = spec
    outcomes: Dict[Tuple[str, int], AttackOutcome] = {}
    failures: Dict[Tuple[str, int], CellFailure] = {}
    clean: Optional[float] = None

    if resume_from is not None:
        previous = load_campaign(resume_from)
        if plan_spec is None:
            plan_spec = previous.spec
        elif previous.spec != plan_spec:
            raise ConfigError(
                "checkpoint spec does not match the requested campaign "
                "spec; refusing to mix results"
            )
        clean = previous.clean_accuracy
        for sweep in previous.sweeps:
            for outcome in sweep.outcomes:
                outcomes[(sweep.target_layer, outcome.n_strikes)] = outcome
    plan_spec = plan_spec or CampaignSpec.fig5b_default()
    if plan_spec.bank_cells not in (None, attack.bank_cells):
        raise ConfigError(
            f"the campaign spec asks for a {plan_spec.bank_cells}-cell "
            f"striker bank but the attack has {attack.bank_cells} cells"
        )

    n = min(plan_spec.eval_images, images.shape[0])
    images = images[:n]
    labels = labels[:n]

    if clean is None:
        # clean_predictions shares the engine's cached clean forward
        # pass with every subsequent cell evaluation on these images.
        clean = float((attack.clean_predictions(images) == labels).mean())

    cache_obj = None
    digest = None
    cached: Dict[Tuple[str, int], AttackOutcome] = {}
    if cache is not None:
        from .cellcache import CellCache, campaign_digest

        cache_obj = cache if isinstance(cache, CellCache) else \
            CellCache(Path(cache))
        digest = campaign_digest(attack.config, attack.bank_cells,
                                 attack.engine.model, images, labels)
        cached = cache_obj.lookup_cells(
            digest,
            [c for c in plan_spec.cells() if c not in outcomes],
            plan_spec.seed,
        )
        outcomes.update(cached)

    # The one driver of this campaign: every path below settles its
    # cells, and only the cells neither resumed nor cached are pending.
    from .supervisor import _Driver

    driver = _Driver(plan_spec, images, labels, clean, outcomes, failures,
                     policy=supervisor or SupervisorConfig(),
                     checkpoint_path=checkpoint_path, fault_hook=fault_hook,
                     stats=stats)
    driver.stats.cache_hits += len(cached)
    if cached:
        driver._checkpoint()
    try:
        if service is None and workers == 1:
            driver.run_in_process(attack, {}, before_cell)
            return driver.result()
        driver.prelude(before_cell)
        from .service import run_service

        if service is None:   # private: only its own local workers
            run_service(driver, attack, ServiceConfig(local_workers=workers),
                        private=True)
        else:
            run_service(driver, attack, service, shard_hook=shard_hook,
                        on_bound=on_bound)
        return driver.result()
    finally:
        if cache_obj is not None:
            # Store whatever completed — interrupted runs still bank
            # their finished cells (resumed outcomes included).
            for (target, count), outcome in outcomes.items():
                if (target, count) not in cached:
                    cache_obj.put(cache_obj.cell_key(
                        digest, target, count, plan_spec.seed), outcome)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory so a rename within it is durable
    (some filesystems don't support opening directories — ignore)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` through ``write(handle)`` on a same-directory temp
    file + fsync + ``os.replace`` — the one artifact writer.

    ``os.replace`` alone is atomic but not *durable*: after a host
    crash the rename may survive while the data blocks it points at do
    not, leaving a truncated file.  Fsyncing the temp file before the
    replace (and, best-effort, the directory after it) guarantees a
    reader finds either the previous content or the complete new one —
    never a torn checkpoint, cache entry or victim archive.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent or Path("."))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write_text(path, text: str) -> None:
    """:func:`_atomic_write` of ``text``, UTF-8 encoded."""
    _atomic_write(path, lambda handle: handle.write(text.encode()))


def _outcome_to_payload(outcome) -> dict:
    """Serialize a cell outcome to a JSON-safe dict.

    Plain :class:`AttackOutcome` cells keep their historical v2 shape
    (no discriminator — existing files stay byte-stable); arms-race
    cells carry ``"kind": "arms"`` so loaders can rebuild the right
    dataclass.
    """
    payload = asdict(outcome)
    if type(outcome).__name__ == "ArmsRaceCell":
        payload["kind"] = "arms"
    return payload


#: What a JSON value may be, by the annotation of the record field it
#: fills: a bool is an int subclass but never a count, and a float field
#: takes an int or NaN (a cell whose strikes all miss records a NaN
#: ``mean_strike_voltage``).
_FIELD_TYPES = {int: int, float: (int, float), str: str}


def _require(what: str, values, kind) -> None:
    """Raise :class:`ConfigError` unless every one of ``values`` fits a
    field annotated ``kind``."""
    for value in values:
        if isinstance(value, bool) \
                or not isinstance(value, _FIELD_TYPES[kind]):
            raise ConfigError(f"{what}: {value!r:.40} is not "
                              f"{kind.__name__}")


def _typed(cls, raw):
    """Build the record dataclass ``cls`` (an outcome or a
    :class:`CellFailure`) from decoded JSON — checkpoints, cache entries
    and result frames all arrive from outside the process.  Raises
    :class:`ConfigError` when ``raw`` is not an object or a field is
    unknown or does not fit its annotation (and ``TypeError``, from the
    constructor, when one is missing)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a {cls.__name__} must be an object, "
                          f"got {type(raw).__name__}")
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        if name not in hints:
            raise ConfigError(f"unknown {cls.__name__} field {name!r}")
        _require(f"{cls.__name__}.{name}", [value], hints[name])
    return cls(**raw)


def _outcome_from_payload(raw):
    """Inverse of :func:`_outcome_to_payload`, type-checked by
    :func:`_typed`."""
    if isinstance(raw, dict) and raw.get("kind") == "arms":
        from ..defense.evaluation import ArmsRaceCell

        return _typed(ArmsRaceCell,
                      {k: v for k, v in raw.items() if k != "kind"})
    return _typed(AttackOutcome, raw)


def _to_json(result: CampaignResult, complete: bool) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "complete": complete,
        "spec": {
            "sweeps": [[layer, list(counts)]
                       for layer, counts in result.spec.sweeps],
            "blind_counts": list(result.spec.blind_counts),
            "eval_images": result.spec.eval_images,
            "bank_cells": result.spec.bank_cells,
            "seed": result.spec.seed,
        },
        "clean_accuracy": result.clean_accuracy,
        "sweeps": [
            {
                "target_layer": s.target_layer,
                "outcomes": [_outcome_to_payload(o) for o in s.outcomes],
            }
            for s in result.sweeps
        ],
        "failures": [asdict(f) for f in result.failures],
    }
    return json.dumps(payload, indent=2) + "\n"


def save_campaign(result: CampaignResult, path) -> None:
    """Write a campaign result as JSON (atomically)."""
    _atomic_write_text(path, _to_json(result, complete=True))


def load_campaign(path) -> CampaignResult:
    """Read a campaign result (or checkpoint) back from JSON.

    Accepts the current format (v2) and the original v1 files, which had
    no ``failures``/``complete`` fields.  A file that cannot be read or
    is not a campaign file (torn, foreign, hand-broken) raises
    :class:`ConfigError` naming it.
    """
    try:
        return _result_from_payload(json.loads(Path(path).read_text()))
    except OSError as exc:
        raise ConfigError(f"cannot read campaign file {path}: "
                          f"{exc.strerror or exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} is not a campaign file "
                          f"({type(exc).__name__}: {exc})") from None


def _result_from_payload(payload: dict) -> CampaignResult:
    """Inverse of :func:`_to_json` (raises on any malformed part; the
    spec, the clean baseline and every record are type-checked)."""
    version = payload.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise ConfigError(
            f"campaign file format {version!r} unsupported "
            f"(expected 1..{FORMAT_VERSION})"
        )
    raw_spec = payload["spec"]
    spec = CampaignSpec(
        sweeps=tuple((layer, tuple(counts))
                     for layer, counts in raw_spec["sweeps"]),
        blind_counts=tuple(raw_spec["blind_counts"]),
        eval_images=raw_spec["eval_images"],
        bank_cells=raw_spec["bank_cells"],
        seed=raw_spec["seed"],
    )
    cells = spec.cells()
    _require("spec target", [target for target, _ in cells], str)
    _require("spec", [count for _, count in cells] + [spec.eval_images,
                                                       spec.seed], int)
    if spec.bank_cells is not None:
        _require("spec.bank_cells", [spec.bank_cells], int)
    _require("clean_accuracy", [payload["clean_accuracy"]], float)
    result = CampaignResult(spec=spec,
                            clean_accuracy=payload["clean_accuracy"])
    for sweep_data in payload["sweeps"]:
        _require("sweeps", [sweep_data["target_layer"]], str)
        sweep = LayerSweepResult(sweep_data["target_layer"])
        for raw in sweep_data["outcomes"]:
            sweep.outcomes.append(_outcome_from_payload(raw))
        result.sweeps.append(sweep)
    result.failures = [_typed(CellFailure, raw)
                       for raw in payload.get("failures", ())]
    return result
