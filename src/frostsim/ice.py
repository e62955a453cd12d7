"""Ice crystallization pressure and frozen water content.

Pores freeze once their radius exceeds a temperature dependent critical
radius composed of the curvature radius of the ice-liquid interface and an
unfrozen adsorbed film on the pore wall. Crystals in frozen pores press on
the wall; averaging that pressure over the pore size distribution gives the
equivalent pore pressure that loads the solid skeleton. ``pore_pressure``
integrates that average exactly over the piecewise log-linear table;
``average_pore_pressure`` is the midpoint rule that tests check it
against.

Temperatures are degrees Celsius and must be strictly below zero where a
function only makes sense for frozen pores; the unchecked kernels with a
leading underscore take temperatures already known to be below zero.
Radii are meters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._table import read_table
from .errors import DomainError, InvalidParametersError, InvalidPsdError

# adsorbed film thickness prefactor, m K^(1/3)
_FILM_COEF = 1.97e-9


@dataclass(frozen=True)
class IceParams:
    gamma_li: float = 0.0409    # J m^-2, ice-liquid interface energy
    delta_s_m: float = 1.2e6    # J m^-3 K^-1, melting entropy density
    n: float = 0.35             # -, total porosity
    p_l: float = 0.0            # Pa, liquid pressure gauge

    def __post_init__(self):
        if self.gamma_li <= 0.0 or self.delta_s_m <= 0.0:
            raise InvalidParametersError("gamma_li and delta_s_m must be positive")
        if not 0.0 < self.n < 1.0:
            raise InvalidParametersError("porosity must lie in (0, 1)")


class PoreSizeDistribution:
    """Cumulative pore volume table psi(r).

    psi(r) is the volume fraction of pores with radius larger than r, so
    the table starts at the total porosity and decreases to zero toward
    the largest measured radius. Interpolation is linear in log(r) and
    clamps to the end values outside the table.
    """

    def __init__(self, radii: np.ndarray, cum_porosity: np.ndarray):
        radii = np.asarray(radii, dtype=float)
        psi = np.asarray(cum_porosity, dtype=float)
        if radii.ndim != 1 or radii.shape != psi.shape or len(radii) < 2:
            raise InvalidPsdError("need matching 1-D tables with at least 2 rows")
        if np.any(radii <= 0.0):
            raise InvalidPsdError("radii must be positive")
        if np.any(np.diff(radii) <= 0.0):
            raise InvalidPsdError("radii must be strictly increasing")
        if np.any(np.diff(psi) > 0.0):
            raise InvalidPsdError("cumulative porosity must be non-increasing")
        if psi[-1] < 0.0:
            raise InvalidPsdError("cumulative porosity must be non-negative")
        if not 0.0 < psi[0] < 1.0:
            raise InvalidPsdError("total porosity must lie in (0, 1)")
        self.radii = radii
        self.cum_porosity = psi
        self._log_r = np.log(radii)
        # the rate -dpsi/dlog(r) of each interval, and 0 below and above
        self._rate = np.concatenate(
            ([0.0], -np.diff(psi) / np.diff(self._log_r), [0.0]))
        for arr in (self.radii, self.cum_porosity, self._log_r, self._rate):
            arr.setflags(write=False)

    @property
    def total_porosity(self) -> float:
        return float(self.cum_porosity[0])


def load_psd_csv(path: str | Path) -> PoreSizeDistribution:
    """Read a UTF-8 ``radius_m,cum_porosity`` CSV; errors name the file."""
    path = Path(path)
    data = read_table(path, ["radius_m", "cum_porosity"], InvalidPsdError)
    try:
        return PoreSizeDistribution(*data.T)
    except InvalidPsdError as exc:
        raise InvalidPsdError(f"{path}: {exc}") from None


def _check_freezing(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta >= 0.0):
        raise DomainError("expected temperature below 0 degC")
    return theta


def _on_frozen(theta, fill, evaluate):
    """``evaluate`` of the temperatures below 0 degC, ``fill`` at the
    others; a float for a scalar theta. ``evaluate`` maps a 1-D array of
    temperatures to values along its first axis, of the shape of fill."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape + np.shape(fill), fill)
    frozen = theta < 0.0
    if np.any(frozen):
        out[frozen] = evaluate(theta[frozen])
    return float(out) if out.ndim == 0 else out


def _adsorbed_layer(theta):
    """Unfrozen film thickness on the pore wall, m, for theta < 0 degC."""
    return _FILM_COEF * (1.0 / np.abs(theta)) ** (1.0 / 3.0)


def interface_radius(theta, params: IceParams):
    """Curvature radius of the ice-liquid interface, m, for theta < 0 degC."""
    return _interface_radius(_check_freezing(theta), params)


def _interface_radius(theta, params):
    return 2.0 * params.gamma_li / (params.delta_s_m * np.abs(theta))


def critical_radius(theta, params: IceParams):
    """Smallest frozen pore radius; +inf at or above 0 degC."""
    return _on_frozen(theta, np.inf, lambda t: _interface_radius(t, params)
                      + _adsorbed_layer(t))


def _chi(r, r_ir, r_ar, gamma_li):
    """Crystal pressure on the wall of a single frozen pore, Pa."""
    return gamma_li * (2.0 / r_ir - 1.0 / (r - r_ar))


def wall_pressure(r, theta, params: IceParams):
    """Pressure exerted on the wall of a frozen pore of radius r, Pa.

    Defined for r >= critical radius; grows from gamma_li / r_ir at the
    critical radius to 2 gamma_li / r_ir for very large pores.
    """
    theta = _check_freezing(theta)
    r = np.asarray(r, dtype=float)
    r_ir = _interface_radius(theta, params)
    r_ar = _adsorbed_layer(theta)
    if np.any(r < r_ir + r_ar - 1e-12 * r_ir):
        raise DomainError("pore radius below the critical radius")
    return _chi(r, r_ir, r_ar, params.gamma_li)


def average_pore_pressure(theta, psd: PoreSizeDistribution, params: IceParams,
                          bins_per_interval: int = 8):
    """Equivalent pore pressure by a midpoint rule, Pa; the quadrature
    oracle of ``pore_pressure``.

    p_p = p_l + (1/n) sum chi(r_mid) dpsi over frozen pores, integrated
    with a midpoint rule in log r on ``bins_per_interval * (rows - 1)``
    bins of equal log width from max(r_cr, r_min) to r_max, where r_min
    and r_max are the first and last table radii and r_cr the critical
    radius; the integral is zero once r_cr reaches r_max. Returns p_l
    (gauge zero by default) at or above 0 degC. Accepts scalars or 1-D
    arrays.
    """
    def evaluate(tf):
        r_ir = _interface_radius(tf, params)
        r_ar = _adsorbed_layer(tf)
        r_cr = r_ir + r_ar

        log_lo = np.log(np.maximum(r_cr, psd.radii[0]))
        log_hi = np.log(psd.radii[-1])
        # sub-bin edges from r_cr (or the table start) to the table end
        nseg = bins_per_interval * (len(psd.radii) - 1)
        s = np.linspace(0.0, 1.0, nseg + 1)
        edges = log_lo[:, None] + (log_hi - log_lo)[:, None] * s[None, :]
        psi_e = np.interp(edges, psd._log_r, psd.cum_porosity)
        dpsi = psi_e[:, :-1] - psi_e[:, 1:]          # >= 0, psi decreasing
        r_mid = np.exp(0.5 * (edges[:, :-1] + edges[:, 1:]))
        chi = _chi(r_mid, r_ir[:, None], r_ar[:, None], params.gamma_li)
        integral = np.where(log_hi > log_lo[:, None],
                            chi * dpsi, 0.0).sum(axis=1)
        return params.p_l + integral / params.n
    return _on_frozen(theta, params.p_l, evaluate)


def pore_pressure(theta, psd: PoreSizeDistribution, params: IceParams):
    """Equivalent pore pressure from crystals averaged over the PSD, Pa.

    The same average as ``average_pore_pressure``, integrated exactly.
    psi falls linearly in u = ln r on each table interval, at the rate
    s = -dpsi/du, and chi = gamma_li (2 / r_ir - 1 / (r - r_ar)) has the
    antiderivative gamma_li (2 u / r_ir - ln(1 - r_ar / r) / r_ar) in u.
    Each interval adds s times that antiderivative's increase over its
    frozen part, from max(r_cr, r_lo) to r_hi; the log increment is
    written as one log1p so that it keeps its digits when r_ar / r is
    small. Returns p_l at or above 0 degC and, as the integral is then
    empty, once r_cr reaches the largest table radius. Accepts scalars
    or 1-D arrays.
    """
    def evaluate(tf):
        r_ir = _interface_radius(tf, params)[:, None]
        r_ar = _adsorbed_layer(tf)[:, None]
        r_cr = r_ir + r_ar
        r_lo = np.maximum(r_cr, psd.radii[:-1])
        r_hi = psd.radii[1:]
        # intervals below r_cr have no frozen part: both increments are 0
        du = np.maximum(psd._log_r[1:] - np.maximum(np.log(r_cr),
                                                    psd._log_r[:-1]), 0.0)
        dlog = np.log1p(r_ar * np.maximum(r_hi - r_lo, 0.0)
                        / (r_hi * (r_lo - r_ar)))
        # a row sum, not a matrix product, so that an element's value does
        # not depend on how many others freeze with it
        integral = params.gamma_li * ((2.0 * du / r_ir - dlog / r_ar)
                                      * psd._rate[1:-1]).sum(axis=1)
        return params.p_l + integral / params.n
    return _on_frozen(theta, params.p_l, evaluate)


def frozen_fraction(theta, psd: PoreSizeDistribution,
                    params: IceParams) -> np.ndarray:
    """Share psi(r_cr) / n of the pore water that is frozen at theta.

    Zero at or above 0 degC; always returns an array of at least 1-D.
    """
    return np.atleast_1d(_frozen_share(theta, psd, params)[0])


def _frozen_share(theta, psd, params):
    """psi(r_cr) / n and its exact slope in theta, both 0 at or above
    0 degC: psi falls at its interval's rate in u = ln r_cr, and u rises
    at (r_ir + r_ar / 3) / (|theta| r_cr), as r_ir goes as 1 / |theta|
    and r_ar as |theta|^(-1/3); the rate is 0 outside the table."""
    def evaluate(t):
        r_ir = _interface_radius(t, params)
        r_ar = _adsorbed_layer(t)
        r_cr = r_ir + r_ar
        u = np.log(r_cr)
        rate = psd._rate[np.searchsorted(psd._log_r, u, side="right")]
        return np.stack(
            (np.interp(u, psd._log_r, psd.cum_porosity) / params.n,
             -rate * (r_ir + r_ar / 3.0) / (np.abs(t) * r_cr) / params.n),
            axis=-1)
    return np.moveaxis(_on_frozen(theta, (0.0, 0.0), evaluate), -1, 0)


def ice_content(theta, w, psd: PoreSizeDistribution, params: IceParams):
    """Frozen water content w_i and its slope dw_i/dtheta.

    The pore water content w, kg m^-3, is assumed distributed over the
    pore volume, so the frozen fraction is psi(r_cr) / n and w_i is w
    times it; the slope is w times the fraction's exact slope. Both
    outputs are zero at or above 0 degC.
    """
    frac, slope = _frozen_share(theta, psd, params)
    out = w * frac, w * slope
    return tuple(map(float, out)) if np.ndim(out[0]) == 0 else out


@dataclass(frozen=True)
class IceModel:
    """Bundle of a pore size distribution and ice parameters.

    Provides the interface the heat capacity and the transport assembly
    expect: ``ice_content(theta, w)``, ``frozen_fraction(theta)`` and
    ``pore_pressure(theta)``, the last one the exact integral.
    """

    psd: PoreSizeDistribution
    params: IceParams

    def __post_init__(self):
        if abs(self.psd.total_porosity - self.params.n) > 1e-6:
            raise InvalidParametersError(
                f"PSD total porosity {self.psd.total_porosity:g} does not "
                f"match configured porosity {self.params.n:g}")

    def ice_content(self, theta, w):
        return ice_content(theta, w, self.psd, self.params)

    def frozen_fraction(self, theta):
        return frozen_fraction(theta, self.psd, self.params)

    def pore_pressure(self, theta):
        return pore_pressure(theta, self.psd, self.params)
