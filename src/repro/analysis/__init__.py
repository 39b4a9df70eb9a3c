"""Analysis helpers: metrics, report tables, and ASCII plots.

The arms-race table (:mod:`repro.analysis.armsrace`) is not re-exported:
it imports :mod:`repro.defense`, and with it scipy and networkx, which
commands that print no arms race do not need.
"""

from .ascii_plot import bar_chart, line_chart, sparkline
from .metrics import monotone_fraction, series_auc
from .reports import fixed_table, markdown_table

__all__ = [
    "bar_chart",
    "fixed_table",
    "line_chart",
    "markdown_table",
    "monotone_fraction",
    "series_auc",
    "sparkline",
]
