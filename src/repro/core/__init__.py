"""DeepStrike itself: the paper's primary contribution.

The attack stack, bottom to top:

* :mod:`~repro.core.scheme` — the *attacking scheme file*: attack delay /
  attack period / number of attacks encoded as a bit vector,
* :mod:`~repro.core.signal_ram` — the BRAM that replays that bit vector
  at ``f_sRAM``, driving the striker's Start signal,
* :mod:`~repro.core.start_detector` — the FSM watching five TDC zone
  bits; a Hamming-weight drop marks the victim DNN starting,
* :mod:`~repro.core.profiler` — builds the per-layer signature library
  from TDC traces of victim inferences,
* :mod:`~repro.core.scheduler` — the closed-loop attacker tenant wiring
  sensor -> detector -> signal RAM -> striker bank on the live board,
* :mod:`~repro.core.attack` — the DeepStrike planner/orchestrator
  (profile, plan, compute strike voltages, execute, evaluate),
* :mod:`~repro.core.blind` — the unguided baseline attack of Fig 5(b),
* :mod:`~repro.core.remote` — the UART-style remote guidance channel,
* :mod:`~repro.core.campaign` / :mod:`~repro.core.executor` — the
  Fig 5(b)-style study runner: resumable, fault-isolated, and
  process-parallel with byte-identical serial parity.
"""

import importlib

#: The submodule of each re-exported name.  A name's submodule loads on
#: first access (PEP 562), so a command that needs one light module,
#: such as ``repro cache gc`` (:mod:`~repro.core.cellcache`), does not
#: import the attack stack and, through :mod:`repro.fpga`, scipy and
#: networkx.
_EXPORTS = {
    "scheme": ("AttackScheme",),
    "signal_ram": ("SignalRAM",),
    "start_detector": ("DetectorState", "DNNStartDetector"),
    "profiler": ("LayerSignature", "SideChannelProfiler"),
    "scheduler": ("AttackScheduler",),
    "attack": ("AttackPlan", "DeepStrike"),
    "blind": ("BlindAttack",),
    "campaign": ("CampaignResult", "CampaignSpec", "CellFailure",
                 "load_campaign", "run_campaign", "save_campaign"),
    "executor": ("WorkerRecipe",),
    "link_faults": ("LinkFaultConfig", "LinkFaultModel", "LinkStats"),
    "remote": ("RemoteAttacker", "TraceReply", "UARTLink"),
    "evaluation": ("AttackOutcome", "LayerSweepResult", "sweep_to_rows"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        msg = f"module {__name__!r} has no attribute {name!r}"
        # PEP 562: an unknown name raises AttributeError, which hasattr()
        # and ``from repro.core import <submodule>`` rely on.
        raise AttributeError(msg)  # lint: ignore[REPRO-EXC002]
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
