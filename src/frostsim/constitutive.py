"""Moisture storage and transport functions for porous mortar.

Sorption, vapor and liquid transport, thermal conductivity and effective
heat capacity in the form used by the coupled heat and moisture balance.
All functions accept scalars or numpy arrays of matching shape; temperatures
are in degrees Celsius, water contents in kg m^-3, relative humidity is the
pore air fraction in [0, 1].

Out-of-range inputs raise DomainError rather than extrapolating. Each
checked function calls an unchecked kernel of the same name with a
leading underscore, which the transport coefficients call on centroid
states already bounded; the heat capacity is a kernel only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParametersError

# admissible temperature window of the vapor pressure fits, degC
THETA_MIN = -40.0
THETA_MAX = 60.0

_B_PHI_CAP = 1e6

T0 = 273.15                     # K, the melting point of ice
R_V = 461.5                     # J kg^-1 K^-1, gas constant of water vapor

# K; above it the enthalpy chord's round-off, 3e-15 to 3e-14 K / |dtheta|
# of the heat capacity on both bundled tables with full pores, is < 1e-7
_CHORD_FLOOR = 1e-6


@dataclass(frozen=True)
class TransportParams:
    """Storage and transport parameters of one material.

    The sorption shape factor b_phi is derived from the free saturation
    w_f and the reference content w_80 at 80 % humidity.
    """

    w_f: float = 160.0          # kg m^-3, free saturation
    w_80: float = 23.0          # kg m^-3, content at phi = 0.8
    lambda_0: float = 0.45      # W m^-1 K^-1, dry thermal conductivity
    b_tcs: float = 9.0          # -, moisture supplement of conductivity
    rho_s: float = 1670.0       # kg m^-3, dry bulk density
    mu: float = 9.63            # -, vapor diffusion resistance
    a_abs: float = 0.82         # kg m^-2 s^-0.5, water absorption coefficient
    c_s: float = 1000.0         # J kg^-1 K^-1, dry solid
    c_l: float = 4187.0         # J kg^-1 K^-1, liquid water
    c_i: float = 2100.0         # J kg^-1 K^-1, ice
    h_i: float = 3.34e5         # J kg^-1, melting enthalpy
    capillary_exponent: str = "literal"   # "literal" or "kunzel"
    b_phi: float = field(init=False)

    def __post_init__(self):
        if not (self.w_f > 0.0 and 0.0 < self.w_80 < self.w_f):
            raise InvalidParametersError("need 0 < w_80 < w_f")
        for name in ("lambda_0", "rho_s", "mu", "a_abs", "c_s", "c_l", "c_i"):
            if getattr(self, name) <= 0.0:
                raise InvalidParametersError(f"{name} must be positive")
        if self.h_i < 0.0:
            raise InvalidParametersError("h_i must be non-negative")
        if self.capillary_exponent not in ("literal", "kunzel"):
            raise InvalidParametersError(
                "capillary_exponent must be 'literal' or 'kunzel'")
        object.__setattr__(self, "b_phi", derive_b_phi(self.w_f, self.w_80))


def derive_b_phi(w_f: float, w_80: float) -> float:
    """Sorption shape factor from the 80 % humidity reference content.

    Inverts w(0.8) = w_f (b - 1) 0.8 / (b - 0.8) = w_80 in closed form.
    The factor must exceed 1 for a physical isotherm.
    """
    if not (w_f > 0.0 and 0.0 < w_80 < w_f):
        raise InvalidParametersError("need 0 < w_80 < w_f")
    b = 0.8 * (w_f - w_80) / (0.8 * w_f - w_80)
    if not (1.0 < b <= _B_PHI_CAP):
        raise InvalidParametersError(
            f"derived b_phi {b:g} is outside (1, {_B_PHI_CAP:g}]; "
            "w_80 is too close to 0.8 w_f")
    return b


def _check_phi(phi):
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0.0) or np.any(phi > 1.0):
        raise DomainError("relative humidity outside [0, 1]")
    return phi


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < THETA_MIN) or np.any(theta > THETA_MAX):
        raise DomainError(
            f"temperature outside [{THETA_MIN:g}, {THETA_MAX:g}] degC")
    return theta


def water_content(phi, params: TransportParams):
    """Equilibrium water content w(phi), kg m^-3."""
    return _water_content(_check_phi(phi), params)


def _water_content(phi, params):
    b = params.b_phi
    return params.w_f * (b - 1.0) * phi / (b - phi)


def moisture_capacity(phi, params: TransportParams):
    """Slope dw/dphi of the sorption isotherm, kg m^-3."""
    return _moisture_capacity(_check_phi(phi), params)


def _moisture_capacity(phi, params):
    b = params.b_phi
    return params.w_f * (b - 1.0) * b / (b - phi) ** 2


def saturation_pressure(theta):
    """Saturation vapor pressure over water (theta >= 0) or ice (theta < 0), Pa.

    p_sat = 611 exp(a theta / (theta_0 + theta)) with branch constants
    (22.44, 272.44) below 0 degC and (17.08, 234.18) above. Both branches
    meet at 611 Pa at 0 degC.
    """
    return _saturation(_check_theta(theta))[0]


def saturation_pressure_derivative(theta):
    """Slope dp_sat/dtheta, Pa K^-1."""
    return _saturation(_check_theta(theta))[1]


def _saturation(theta):
    """p_sat and dp_sat/dtheta from one evaluation of the fit."""
    a = np.where(theta < 0.0, 22.44, 17.08)
    theta_0 = np.where(theta < 0.0, 272.44, 234.18)
    p_sat = 611.0 * np.exp(a * theta / (theta_0 + theta))
    return p_sat, p_sat * a * theta_0 / (theta_0 + theta) ** 2


def vapor_permeability(theta, params: TransportParams):
    """Vapor permeability delta_v of the porous material, kg m^-1 s^-1 Pa^-1.

    Air permeability delta = 2.306e-5 p_atm / (R_v T p) (T / 273.15)^1.81
    evaluated at ambient pressure p = p_atm, divided by the resistance
    factor mu.
    """
    return _vapor_permeability(_check_theta(theta), params)


def _vapor_permeability(theta, params):
    T = theta + T0
    delta = 2.306e-5 / (R_V * T) * (T / T0) ** 1.81
    return delta / params.mu


def liquid_conductivity(phi, params: TransportParams):
    """Liquid transport coefficient D_l(w), m^2 s^-1.

    D_l = 3.8 (a_abs / w_f)^2 10^e with e = 3 w / (w_f - 1) by default;
    the 'kunzel' variant uses e = 3 (w / w_f - 1).
    """
    return _liquid_conductivity(water_content(phi, params), params)


def _liquid_conductivity(w, params):
    base = 3.8 * (params.a_abs / params.w_f) ** 2
    if params.capillary_exponent == "literal":
        e = 3.0 * w / (params.w_f - 1.0)
    else:
        e = 3.0 * (w / params.w_f - 1.0)
    return base * 10.0 ** e


def moisture_diffusivity(phi, params: TransportParams):
    """Humidity-driven liquid flux coefficient D_phi = D_l dw/dphi, kg m^-1 s^-1."""
    return liquid_conductivity(phi, params) * moisture_capacity(phi, params)


def thermal_conductivity(w, params: TransportParams):
    """Moisture dependent thermal conductivity, W m^-1 K^-1."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0) or np.any(w > params.w_f * (1.0 + 1e-9)):
        raise DomainError("water content outside [0, w_f]")
    return _thermal_conductivity(w, params)


def _thermal_conductivity(w, params):
    return params.lambda_0 * (1.0 + params.b_tcs * w / params.rho_s)


def latent_heat_vapor(theta):
    """Evaporation enthalpy h_v(T), J kg^-1, with T in kelvin throughout.

    h_v = 2.5008e6 (273.15 / T)^(0.167 + 3.67e-4 T); equals 2.5008e6
    exactly at 0 degC and decreases with temperature.
    """
    return _latent_heat_vapor(_check_theta(theta))


def _latent_heat_vapor(theta):
    T = theta + T0
    return 2.5008e6 * (T0 / T) ** (0.167 + 3.67e-4 * T)


def _effective_heat_capacity(theta, w, params, ice, theta_ref, frozen_ref):
    """Volumetric heat capacity dH/dtheta, J m^-3 K^-1, at water content
    w, rho_s c_s + (w - w_i) c_l + w_i c_i - h_i s with ``ice`` the ice
    model's (w_i, dw_i/dtheta), zeros without ice, and s the latent
    slope, and its exact derivative in theta.

    s is the enthalpy chord from the step-start temperature theta_ref to
    theta, not the tangent: the latent heat absorbed over a step then
    matches the ice curve even across the freezing front, and the
    capacity does not flip between spike and baseline from one iterate
    to the next; within ``_CHORD_FLOOR`` of theta_ref it is the tangent,
    and there, or where the chord is clamped at 0, the derivative holds
    s fixed. ``frozen_ref`` is the frozen fraction at theta_ref.
    """
    w_i, tangent = ice
    w_i_ref = w * np.reshape(frozen_ref, np.shape(theta_ref))
    dtheta = theta - theta_ref
    wide = np.abs(dtheta) > _CHORD_FLOOR
    span = np.where(wide, dtheta, 1.0)
    chord = (w_i - w_i_ref) / span
    slope = np.where(wide, np.minimum(chord, 0.0), tangent)
    # the chord's derivative is (tangent - chord) / dtheta
    derivative = ((params.c_i - params.c_l) * tangent
                  - params.h_i * np.where(wide & (chord < 0.0),
                                          (tangent - slope) / span, 0.0))
    return (params.rho_s * params.c_s
            + (w - w_i) * params.c_l
            + w_i * params.c_i
            - params.h_i * slope), derivative
