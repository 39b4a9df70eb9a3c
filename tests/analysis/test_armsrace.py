"""Arms-race report table helpers."""

from repro.analysis.armsrace import arms_race_rows, arms_race_table
from repro.defense import ArmsRaceCell


def _cell(cells=5500, strikes=4500, defense="none", attacked=0.9,
          overhead=0.0):
    return ArmsRaceCell(
        bank_cells=cells, n_strikes=strikes, defense=defense,
        clean_accuracy=0.98, attacked_accuracy=attacked,
        residual_mismatch_rate=round(0.98 - attacked, 4),
        replay_overhead=overhead, razor_flags=0, replays=0,
        exhausted=0, strikes_landed=strikes,
    )


GRID = [
    _cell(3000, defense="none", attacked=0.95),
    _cell(3000, defense="recover", attacked=0.98, overhead=0.1),
    _cell(8000, defense="none", attacked=0.60),
    _cell(8000, defense="recover", attacked=0.97, overhead=0.4),
]


class TestTables:
    def test_rows_follow_sweep_order(self):
        rows = arms_race_rows(GRID)
        assert len(rows) == 4
        assert rows[0][0] == 3000 and rows[0][2] == "none"
        assert rows[-1][2] == "recover"

    def test_accuracy_drop_column(self):
        rows = arms_race_rows([_cell(attacked=0.88)])
        assert rows[0][5] == GRID[0].clean_accuracy - 0.88

    def test_fixed_table_renders(self):
        text = arms_race_table(GRID)
        assert "defense" in text and "overhead" in text
        assert "recover" in text

    def test_empty_grid_renders(self):
        assert "defense" in arms_race_table([])
