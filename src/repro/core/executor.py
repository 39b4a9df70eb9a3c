"""How a campaign worker gets its attack: adopted, or rebuilt from a recipe.

Every campaign cell runs under its own blake2s-derived RNG stream,
which makes cells independent of execution *order*; this module makes
them independent of execution *process*.  ``run_campaign(..., workers=N)``
and ``run_campaign(..., service=...)`` lease pending ``(target,
strike-count)`` cells to worker processes through the campaign broker
(:mod:`repro.core.service.broker`), whose workers get their attack
stack here:

* **Forked local workers adopt, everyone else rebuilds, none unpickle.**
  A local worker started by fork inherits the submitting process's live
  :class:`~repro.core.attack.DeepStrike` with the rest of its memory and
  adopts it through its ``Process`` arguments: victim, engine, and the
  clean stage codes that measuring the campaign's clean baseline cached
  for the very ``images`` array the worker receives.  A worker that
  must rebuild — a local worker under a spawn start, or a remote
  ``repro work`` daemon — receives a :class:`WorkerRecipe` (victim *zoo
  name*, frozen :class:`~repro.config.SimulationConfig`, striker bank
  size) in its ``job`` frame and rebuilds the attack from it
  (:func:`_build_state`).  Either way no live engine is pickled across
  the process boundary, and every cell reseeds the engine stream, so
  neither start method moves an output byte.
* **Chaos directives** (:func:`_apply_fault`) kill or stall a worker
  the way a segfault or a wedged cell would.

The broker looks :func:`_mp_context` up through this module at call
time, so a test can switch the start method of every local worker in
one place.  The differential tests in
``tests/core/test_parallel_parity.py`` enforce the headline guarantee:
``workers ∈ {1, 2, 4}`` produce byte-identical final campaign JSON,
including interrupted-and-resumed runs and runs under a chaos preset.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import SimulationConfig, default_config
from .attack import DEFAULT_ATTACK_CELLS, DeepStrike

__all__ = ["WorkerRecipe"]


@dataclass(frozen=True)
class WorkerRecipe:
    """Everything a worker process needs to rebuild the attack.

    Deliberately *data only*: a zoo victim name, a frozen
    :class:`SimulationConfig` and the striker bank size.  A worker that
    rebuilds loads the victim's cached weights by name
    (:func:`repro.zoo.get_pretrained`), rebuilds the engine and
    :class:`DeepStrike` from the config, and relies on per-cell
    reseeding for parity — so nothing stateful ever crosses the process
    boundary.  (A forked local worker needs no recipe: it adopts the
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


@dataclass
class _WorkerState:
    """A worker's attack stack and the campaign's evaluation slice."""

    attack: DeepStrike
    blind_box: dict
    images: np.ndarray
    labels: np.ndarray
    #: Campaign-level clean-accuracy baseline (measured once in the
    #: submitting process; workers reuse it instead of re-measuring).
    clean: Optional[float] = None


def _build_state(recipe: WorkerRecipe, images: np.ndarray,
                 labels: np.ndarray,
                 clean: Optional[float] = None) -> _WorkerState:
    """Rebuild the attack stack from a recipe (every worker that does
    not adopt the caller's attack).
    The engine takes the 1x28x28 input every zoo victim uses.  The RNG
    seeds here are irrelevant: every cell reseeds the engine stream
    from its blake2s-derived cell seed before executing."""
    from ..accel import AcceleratorEngine
    from ..zoo import get_pretrained

    quantized = get_pretrained(model_name=recipe.victim_name).quantized
    engine = AcceleratorEngine(quantized, config=recipe.config,
                               rng=np.random.default_rng(0))
    attack = DeepStrike(engine, bank_cells=recipe.bank_cells,
                        rng=np.random.default_rng(0))
    return _WorkerState(attack=attack, blind_box={},
                        images=images, labels=labels, clean=clean)


def _apply_fault(fault) -> None:
    """Honour a chaos directive inside the worker.

    ``("kill", _)`` dies the way a segfault/OOM-kill does (no Python
    teardown, a nonzero exit); ``("hang", seconds)`` stalls the cell so
    its lease expires.  Directives are issued per ``(cell, attempt)`` by
    the dispatching process — see
    :meth:`repro.chaos.ChaosInjector.cell_fault`.
    """
    if not fault:
        return
    kind = fault[0]
    if kind == "kill":
        os._exit(13)
    elif kind == "hang":
        time.sleep(float(fault[1]))


def _mp_context():
    """Fork where the platform offers it (cheapest start, inherits the
    loaded interpreter and the caller's attack), else spawn."""
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
