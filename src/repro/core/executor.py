"""Process-parallel campaign workers: the recipe and the pool entry points.

Every campaign cell runs under its own blake2s-derived RNG stream,
which makes cells independent of execution *order*; this module makes
them independent of execution *process*.  ``run_campaign(..., workers=N)``
shards the pending ``(target, strike-count)`` cells across a process
pool run by the self-healing supervisor (:mod:`repro.core.supervisor`),
which builds its pools and workers from the entry points here:

* **Forked workers adopt, spawned workers rebuild, none unpickle.**  A
  forked worker inherits the submitting process's live
  :class:`~repro.core.attack.DeepStrike` with the rest of its memory and
  adopts it in :func:`_init_worker`: victim, engine, and the clean stage
  codes that measuring the campaign's clean baseline cached for the
  very ``images`` array the worker receives.  A spawned worker (and every
  broker worker) receives a :class:`WorkerRecipe` — victim *zoo name*,
  frozen :class:`~repro.config.SimulationConfig`, striker bank size —
  and rebuilds the attack from it (:func:`_build_state`).  Either way no
  live engine is pickled across the process boundary, and every cell
  reseeds the engine stream, so neither start method moves an output
  byte.
* **Fault isolation matches the serial loop.**  A
  :class:`~repro.errors.ReproError` inside a worker cell comes back from
  :func:`_worker_cell` as a structured
  :class:`~repro.core.campaign.CellFailure` record.

The supervisor looks ``ProcessPoolExecutor`` up through this module at
call time, so a test can patch the pool construction of the whole
parallel layer in one place.  The differential tests in
``tests/core/test_parallel_parity.py`` enforce the headline guarantee:
``workers ∈ {1, 2, 4}`` produce byte-identical final campaign JSON,
including interrupted-and-resumed runs and runs under a chaos preset.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401 (patch point)
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import SimulationConfig, default_config
from ..errors import ReproError
from .attack import DEFAULT_ATTACK_CELLS, DeepStrike
from .campaign import _execute_cell, _failure_from

__all__ = ["WorkerRecipe"]


@dataclass(frozen=True)
class WorkerRecipe:
    """Everything a worker process needs to rebuild the attack.

    Deliberately *data only*: a zoo victim name, a frozen
    :class:`SimulationConfig` and the striker bank size.  A spawned pool
    worker or a broker worker loads the victim's cached weights by name
    (:func:`repro.zoo.load_quantized`), rebuilds the engine and
    :class:`DeepStrike` from the config, and relies on per-cell
    reseeding for parity — so nothing stateful ever crosses the process
    boundary.  (A forked pool worker needs no recipe: it adopts the
    attack it inherited.)
    """

    victim_name: str = "lenet5"
    bank_cells: int = DEFAULT_ATTACK_CELLS
    config: SimulationConfig = field(default_factory=default_config)

    @classmethod
    def from_attack(cls, attack: DeepStrike) -> "WorkerRecipe":
        """The recipe of a live attack; a victim the zoo cannot rebuild
        is refused with :class:`~repro.errors.ConfigError`."""
        from ..zoo import zoo_name

        return cls(victim_name=zoo_name(attack.engine.model),
                   bank_cells=attack.bank_cells, config=attack.config)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass
class _WorkerState:
    """Per-process attack stack (set once by the initializer)."""

    attack: DeepStrike
    blind_box: dict
    images: np.ndarray
    labels: np.ndarray
    #: Campaign-level clean-accuracy baseline (measured once in the
    #: submitting process; workers reuse it instead of re-measuring).
    clean: Optional[float] = None


_STATE: Optional[_WorkerState] = None


def _build_state(recipe: WorkerRecipe, images: np.ndarray,
                 labels: np.ndarray,
                 clean: Optional[float] = None) -> _WorkerState:
    """Rebuild the attack stack from a recipe (shared by spawned pool
    workers and the broker's worker daemon).
    The engine takes the 1x28x28 input every zoo victim uses.  The RNG
    seeds here are irrelevant: every cell reseeds the engine stream
    from its blake2s-derived cell seed before executing."""
    from ..accel import AcceleratorEngine
    from ..zoo import load_quantized

    quantized = load_quantized(recipe.victim_name)
    engine = AcceleratorEngine(quantized, config=recipe.config,
                               rng=np.random.default_rng(0))
    attack = DeepStrike(engine, bank_cells=recipe.bank_cells,
                        rng=np.random.default_rng(0))
    return _WorkerState(attack=attack, blind_box={},
                        images=images, labels=labels, clean=clean)


def _init_worker(recipe: WorkerRecipe, images: np.ndarray,
                 labels: np.ndarray, clean: Optional[float] = None,
                 attack: Optional[DeepStrike] = None) -> None:
    """Set this worker's attack stack (runs once per process).

    A forked worker gets the submitting process's live ``attack`` —
    inherited with the parent's memory, never unpickled — and adopts it;
    whatever the worker's cells write to it lands in the worker's own
    copy-on-write pages, never in the parent's attack.  A spawned worker
    gets ``attack=None`` and rebuilds the stack from ``recipe``.
    """
    global _STATE
    _STATE = (_build_state(recipe, images, labels, clean) if attack is None
              else _WorkerState(attack=attack, blind_box={}, images=images,
                                labels=labels, clean=clean))


def _apply_fault(fault) -> None:
    """Honour a supervisor chaos directive inside the worker.

    ``("kill", _)`` dies the way a segfault/OOM-kill does (no Python
    teardown, pool breaks); ``("hang", seconds)`` stalls the cell so its
    lease expires.  Directives are issued per ``(cell, attempt)`` by the
    dispatching process — see :meth:`repro.chaos.ChaosInjector.cell_fault`.
    """
    if not fault:
        return
    kind = fault[0]
    if kind == "kill":
        os._exit(13)
    elif kind == "hang":
        time.sleep(float(fault[1]))


def _worker_cell(target: str, count: int, base_seed: int, fault=None):
    """Execute one cell in a worker; runs in the pool process.

    Returns ``("outcome", AttackOutcome)`` or — for any in-cell
    :class:`ReproError`, preserving the serial loop's fault isolation —
    ``("failure", CellFailure)``.  Non-``ReproError`` exceptions
    propagate and surface in the parent, exactly as they do serially.
    """
    _apply_fault(fault)
    state = _STATE
    if state is None:  # pragma: no cover - pool always runs the initializer
        raise RuntimeError("campaign worker used before initialization")
    try:
        outcome = _execute_cell(state.attack, state.blind_box, state.images,
                                state.labels, base_seed, target, count,
                                clean=state.clean)
        return "outcome", outcome
    except ReproError as exc:
        return "failure", _failure_from(target, count, exc)


# ---------------------------------------------------------------------------
# Submitting side
# ---------------------------------------------------------------------------


def _mp_context():
    """Fork where the platform offers it (cheapest start, inherits the
    loaded interpreter), else spawn."""
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
