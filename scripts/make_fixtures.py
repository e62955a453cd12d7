"""Regenerate the data files bundled with the package.

Writes the two pore size distributions and the synthetic winter climate
into src/frostsim/data/. The distributions are lognormal in pore radius,
normalized so the cumulative curve hits the total porosity exactly at
the smallest tabulated radius and zero at the largest:

    spec01: median 3e-7 m, sigma(ln r) = 1.0, porosity 0.35
    spec02: median 3e-8 m, sigma(ln r) = 1.2, porosity 0.13

spec02 is the finer, less porous variant used by the sensitivity
comparison. Run from the repository root:

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.stats import norm

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "frostsim" / "data"
sys.path.insert(0, str(ROOT / "src"))

from frostsim._table import write_table
from frostsim.climate_io import synthetic_winter_series, write_climate_csv


def lognormal_psd(median_m: float, sigma: float, porosity: float,
                  r_min: float = 1e-9, r_max: float = 1e-4,
                  points: int = 61) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative pore volume psi(r) of a lognormal size density.

    psi(r) is the volume fraction of pores with radius above r, so it
    decreases from the total porosity to zero across the tabulated range.
    """
    radii = np.geomspace(r_min, r_max, points)
    survival = norm.sf(np.log(radii / median_m) / sigma)
    psi = porosity * (survival - survival[-1]) / (survival[0] - survival[-1])
    return radii, psi


def write_fixtures(out: Path) -> None:
    """Write the two pore size tables and the winter climate into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, median, sigma, porosity in (
            ("psd_spec01.csv", 3e-7, 1.0, 0.35),
            ("psd_spec02.csv", 3e-8, 1.2, 0.13)):
        write_table(out / name, "radius_m,cum_porosity",
                    lognormal_psd(median, sigma, porosity))
        print(f"wrote {out / name}")
    write_climate_csv(synthetic_winter_series(744),
                      out / "climate_winter_744h.csv")
    print(f"wrote {out / 'climate_winter_744h.csv'}")


def main() -> None:
    write_fixtures(DATA)


if __name__ == "__main__":
    main()
