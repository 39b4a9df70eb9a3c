"""Report helpers for the attack-versus-defense arms race.

Turns :class:`~repro.defense.ArmsRaceCell` grids into the table that
``repro defend`` prints and docs/defense.md discusses: accuracy under
attack per defense, the recovery latency overhead the defender pays for
it, and the residual fault rate that slips past the razor latches.
"""

from __future__ import annotations

from typing import List, Sequence

from ..defense.evaluation import ArmsRaceCell
from .reports import fixed_table

__all__ = ["arms_race_rows", "arms_race_table"]

_HEADERS = ["cells", "strikes", "defense", "clean", "attacked", "drop",
            "residual", "overhead", "flags", "replays", "exhausted"]


def arms_race_rows(cells: Sequence[ArmsRaceCell]) -> List[List]:
    """One table row per grid cell, in sweep order."""
    return [
        [c.bank_cells, c.n_strikes, c.defense, c.clean_accuracy,
         c.attacked_accuracy, c.accuracy_drop, c.residual_mismatch_rate,
         c.replay_overhead, c.razor_flags, c.replays, c.exhausted]
        for c in cells
    ]


def arms_race_table(cells: Sequence[ArmsRaceCell]) -> str:
    """Monospace arms-race grid (what ``repro defend`` prints)."""
    return fixed_table(_HEADERS, arms_race_rows(cells))
