"""Outdoor climate series: loading, sampling, and a synthetic winter.

A climate file is a CSV with header ``time_h,theta_ext_C,phi_ext,
rain_kg_m2_s,swr_W_m2``. Times are hours from the start of the run and are
converted to seconds on load. Sampling interpolates linearly between rows
and holds the first/last row outside the tabulated range.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._table import read_table, write_table
from .errors import ClimateFormatError

_HEADER = ["time_h", "theta_ext_C", "phi_ext", "rain_kg_m2_s", "swr_W_m2"]


@dataclass(frozen=True)
class ClimateSample:
    theta: float     # degC
    phi: float       # -
    rain: float      # kg m^-2 s^-1
    swr: float       # W m^-2


class ClimateSeries:
    """Tabulated outdoor conditions over time."""

    def __init__(self, times_s, theta, phi, rain, swr):
        t = np.asarray(times_s, dtype=float)
        cols = [np.asarray(c, dtype=float) for c in (theta, phi, rain, swr)]
        if t.ndim != 1 or len(t) < 1:
            raise ClimateFormatError("need at least one climate row")
        for c in cols:
            if c.shape != t.shape:
                raise ClimateFormatError("climate columns must match in length")
        if np.any(np.diff(t) <= 0.0):
            raise ClimateFormatError("times must be strictly increasing")
        if np.any(cols[1] < 0.0) or np.any(cols[1] > 1.0):
            raise ClimateFormatError("phi_ext outside [0, 1]")
        if np.any(cols[2] < 0.0):
            raise ClimateFormatError("rain flux must be non-negative")
        if np.any(cols[3] < 0.0):
            raise ClimateFormatError("shortwave flux must be non-negative")
        self.times_s = t
        self.theta, self.phi, self.rain, self.swr = cols
        for arr in (self.times_s, *cols):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times_s)

    def sample(self, t_s: float) -> ClimateSample:
        """Piecewise-linear sample at time ``t_s`` seconds; ends are held."""
        return ClimateSample(
            theta=float(np.interp(t_s, self.times_s, self.theta)),
            phi=float(np.interp(t_s, self.times_s, self.phi)),
            rain=float(np.interp(t_s, self.times_s, self.rain)),
            swr=float(np.interp(t_s, self.times_s, self.swr)),
        )


def load_climate(path: str | Path) -> ClimateSeries:
    """Read a UTF-8 climate CSV; hours become seconds, errors name it."""
    path = Path(path)
    data = read_table(path, _HEADER, ClimateFormatError)
    try:
        return ClimateSeries(data[:, 0] * 3600.0, *data.T[1:])
    except ClimateFormatError as exc:
        raise ClimateFormatError(f"{path}: {exc}") from None


def write_climate_csv(series: ClimateSeries, path: str | Path) -> None:
    """Write a climate CSV with full float precision (times back to hours)."""
    write_table(path, ",".join(_HEADER),
                (series.times_s / 3600.0, series.theta, series.phi,
                 series.rain, series.swr))


def synthetic_winter_series(hours: int = 744) -> ClimateSeries:
    """Deterministic one-month winter for the reference scenario.

    Hourly rows. The mean temperature dips to about -14 degC mid-month
    with a +/-4 K daily cycle, so the series crosses 0 degC many times
    in the mild weeks bracketing a hard cold snap. Rain arrives in
    multi-hour pulses every few days, the first one before the first
    hard frost so the wall surface is wet when freezing starts. Daytime
    shortwave radiation is attenuated on rainy days.
    """
    if hours < 2:
        raise ClimateFormatError("need at least 2 hourly rows")
    h = np.arange(hours + 1, dtype=float)

    # slow seasonal dip plus a daily cycle peaking mid-afternoon, degC;
    # the first nights stay above -3 degC, mid-month nights reach -18
    trend = 2.0 - 16.0 * np.sin(np.pi * h / (hours + 1.0)) ** 2
    daily = 4.0 * np.sin(2.0 * np.pi * (h - 9.0) / 24.0)
    theta = trend + daily

    # humid winter air, mildly tied to the daily cycle
    phi = np.clip(0.82 + 0.10 * np.sin(2.0 * np.pi * (h - 3.0) / 24.0)
                  - 0.04 * np.sin(np.pi * h / (hours + 1.0)), 0.55, 0.98)

    # rain pulses: a 120 h weather period, raining while its sine tops 0.93,
    # about 14 h of rain every 5 days with the first pulse near hour 10,
    # before the first hard frost
    weather = np.sin(2.0 * np.pi * (h + 13.0) / 120.0)
    raining = weather > 0.93
    rain = np.where(raining, 1.2e-4 * (weather - 0.93) / 0.07, 0.0)

    # clear-sky half-sine between 08:00 and 16:00, damped while raining
    hod = np.mod(h, 24.0)
    sun = np.where((hod >= 8.0) & (hod <= 16.0),
                   np.sin(np.pi * (hod - 8.0) / 8.0), 0.0)
    swr = 200.0 * sun * np.where(raining, 0.25, 1.0)

    return ClimateSeries(h * 3600.0, theta, phi, rain, swr)
