"""Post-hoc trial metrics: MSE, settling times, and Welch's one-tailed t-test.

Settling time is the earliest time after which the signal stays inside the
band for every remaining sample.  A trial only counts as converged if that
time falls within the first 75% of the record, so truncated logs cannot fake
convergence.  Non-convergence is a value (None), not an error, and summary
statistics exclude non-converged trials while reporting their count.

The Student-t CDF used by the Welch test is ``scipy.special.stdtr``, imported
inside ``student_t_cdf`` so that importing the package does not load
``scipy.special`` (see ``sampling``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import wrap_angle
from .svgd import _require_positive


@dataclass(frozen=True)
class TrialRecord:
    """Per-timestep log of one episode.

    states has one more row than controls; times align with states and are
    strictly increasing.
    """

    times: np.ndarray     # (T+1,) seconds
    states: np.ndarray    # (T+1, n)
    controls: np.ndarray  # (T, m)

    def __post_init__(self):
        if len(self.states) != len(self.times):
            raise ValueError("states and times must have equal length")
        if len(self.controls) != len(self.states) - 1:
            raise ValueError("controls must be one shorter than states")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class SettlingCriterion:
    """Band definition for a settling-time measurement.

    mode "absolute": band is the half-width in signal units.
    mode "fraction_of_range": half-width is band * step_range (the step
    range is pi for the swing-up angle).
    """

    signal_index: int
    target: float
    band: float
    mode: str = "absolute"
    step_range: float = math.pi
    wrap_angle: bool = False

    def __post_init__(self):
        _require_positive(self.band, "band")
        _require_positive(self.step_range, "step_range")
        if self.mode not in ("absolute", "fraction_of_range"):
            raise ValueError("mode must be 'absolute' or 'fraction_of_range'")

    @property
    def half_width(self) -> float:
        if self.mode == "absolute":
            return self.band
        return self.band * self.step_range


def _signal_error(record: TrialRecord, signal_index: int, target: float,
                  wrap: bool) -> np.ndarray:
    e = record.states[:, signal_index] - target
    return wrap_angle(e) if wrap else e


def mse(record: TrialRecord, signal_index: int, target: float,
        wrap: bool = False) -> float:
    """Mean squared (optionally angle-wrapped) error over all timesteps."""
    if len(record.states) == 0:
        raise ValueError("empty record")
    e = _signal_error(record, signal_index, target, wrap)
    return float(np.mean(e * e))


def settling_time(record: TrialRecord,
                  criterion: SettlingCriterion) -> float | None:
    """Earliest time the signal permanently enters the band, or None."""
    err = np.abs(_signal_error(record, criterion.signal_index,
                               criterion.target, criterion.wrap_angle))
    inside = err <= criterion.half_width
    outside_idx = np.nonzero(~inside)[0]
    settle = 0 if outside_idx.size == 0 else int(outside_idx[-1]) + 1
    if settle >= len(inside):
        return None
    # Guard against truncation: the in-band tail must span >= 25% of the log.
    if settle > 0.75 * (len(inside) - 1):
        return None
    return float(record.times[settle])


def student_t_cdf(t: float, dof: float) -> float:
    """P(T <= t) for Student's t with (possibly fractional) dof."""
    from scipy.special import stdtr

    if dof <= 0:
        raise ValueError("dof must be positive")
    return float(stdtr(dof, t))


def welch_t_test_one_tailed(group_a, group_b):
    """Welch statistic, Welch-Satterthwaite dof, and one-tailed p.

    Tests the hypothesis "group_a has a smaller mean than group_b" (smaller
    is better): p = P(T_dof < t).  Identical groups give p = 0.5.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs at least two values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("groups must be finite")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 or vb == 0.0:
        raise ValueError("degenerate group: zero variance")
    na, nb = a.size, b.size
    se2 = va / na + vb / nb
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    dof = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, dof, student_t_cdf(t, dof)


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    mean: float
    std: float
    median: float
    n: int
    n_nonconverged: int


def summarize(records: list[TrialRecord],
              metric_fns: dict[str, Callable[[TrialRecord], float | None]]
              ) -> list[SummaryRow]:
    """Mean/std/median per metric; non-converged trials are counted but
    excluded from the statistics (the std is the n-1 sample std, reported as
    0.0 when only one value is available)."""
    if not records:
        raise ValueError("need at least one trial")
    rows = []
    for name, fn in metric_fns.items():
        values = [fn(r) for r in records]
        kept = np.array([v for v in values if v is not None], dtype=float)
        n_bad = sum(v is None for v in values)
        if kept.size == 0:
            rows.append(SummaryRow(name, math.nan, math.nan, math.nan,
                                   0, n_bad))
            continue
        std = float(kept.std(ddof=1)) if kept.size > 1 else 0.0
        rows.append(SummaryRow(name, float(kept.mean()), std,
                               float(np.median(kept)), int(kept.size), n_bad))
    return rows
