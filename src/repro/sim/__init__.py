"""Experiment harness helpers: named seed streams, series averaging, report
tables.

Experiments are specified as :class:`repro.api.Scenario` values (named
presets via :meth:`~repro.api.Scenario.from_preset`) and run by
:class:`repro.api.FMoreEngine`; this package keeps the named-seed-stream
utilities every cell draws from, the seed-averaging helpers and the ASCII
reporting the benches print.
"""

from .reporting import ascii_table, fmt, paper_vs_measured, series_table
from .rng import rng_from, rng_state, set_rng_state, spawn_rngs
from .runner import SeriesStats, average_histories

__all__ = [
    "SeriesStats",
    "average_histories",
    "ascii_table",
    "series_table",
    "paper_vs_measured",
    "fmt",
    "rng_from",
    "spawn_rngs",
    "rng_state",
    "set_rng_state",
]
