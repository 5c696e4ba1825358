"""Series averaging across seeds.

"All the results are the average of five experiments" (Section V-A); this
module averages the per-round series of repeated runs, exposing mean and
standard deviation for each curve (see :meth:`repro.api.RunResult.averaged`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.trainer import TrainingHistory

__all__ = ["SeriesStats", "average_histories"]


@dataclass
class SeriesStats:
    """Mean/std of a per-round metric across repeated runs."""

    mean: np.ndarray
    std: np.ndarray

    def __len__(self) -> int:
        return int(self.mean.size)


def _stack(histories: list[TrainingHistory], attr: str) -> np.ndarray:
    series = [np.asarray(getattr(h, attr), dtype=float) for h in histories]
    lengths = {s.size for s in series}
    if len(lengths) != 1:
        raise ValueError("histories must have equal length to be averaged")
    return np.stack(series)


def average_histories(histories: list[TrainingHistory]) -> dict[str, SeriesStats]:
    """Per-round mean/std of accuracy, loss and cumulative time."""
    if not histories:
        raise ValueError("need at least one history")
    out: dict[str, SeriesStats] = {}
    for attr, key in (
        ("accuracies", "accuracy"),
        ("losses", "loss"),
        ("cumulative_seconds", "cumulative_seconds"),
    ):
        data = _stack(histories, attr)
        out[key] = SeriesStats(mean=data.mean(axis=0), std=data.std(axis=0))
    return out
