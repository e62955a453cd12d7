import math

import numpy as np
import pytest

from frostsim import constitutive as con
from frostsim.errors import DomainError, InvalidParametersError

# closed-form sorption values for w_f=160, w_80=23, computed with exact
# rational arithmetic: b = 548/525, w(1/2) = 3680/571, w'(0.8) = 15755/128
B_PHI = 1.0438095238095237
W_HALF = 6.444833625218914
CAP_08 = 123.0859375


class TestSorption:
    def test_b_phi_closed_form(self, mortar):
        assert mortar.b_phi == pytest.approx(B_PHI, rel=1e-14)
        assert con.derive_b_phi(160.0, 23.0) == pytest.approx(B_PHI, rel=1e-14)

    def test_reference_point_recovered(self, mortar):
        # the derived shape factor must reproduce the anchor measurement
        assert con.water_content(0.8, mortar) == pytest.approx(23.0, abs=1e-6)

    def test_limits(self, mortar):
        assert con.water_content(0.0, mortar) == 0.0
        assert con.water_content(1.0, mortar) == pytest.approx(160.0,
                                                               rel=1e-14)

    def test_interior_value(self, mortar):
        assert con.water_content(0.5, mortar) == pytest.approx(W_HALF,
                                                               rel=1e-13)

    def test_back_substitution_other_params(self):
        params = con.TransportParams(w_f=100.0, w_80=50.0)
        assert con.water_content(0.8, params) == pytest.approx(50.0,
                                                               abs=1e-9)

    def test_b_phi_cap(self):
        # w_80 -> 0.8 w_f drives the shape factor to infinity
        with pytest.raises(InvalidParametersError):
            con.derive_b_phi(160.0, 0.8 * 160.0 - 1e-12)

    def test_b_phi_must_exceed_one(self):
        with pytest.raises(InvalidParametersError):
            con.derive_b_phi(160.0, 160.1)

    def test_monotone_and_bijective(self, mortar):
        phi = np.linspace(0.0, 1.0, 101)
        w = con.water_content(phi, mortar)
        assert np.all(np.diff(w) > 0.0)

    def test_domain_errors(self, mortar):
        with pytest.raises(DomainError):
            con.water_content(-0.01, mortar)
        with pytest.raises(DomainError):
            con.water_content(1.01, mortar)


class TestMoistureCapacity:
    def test_frozen_value(self, mortar):
        assert con.moisture_capacity(0.8, mortar) == pytest.approx(
            CAP_08, rel=1e-13)

    def test_phi_zero(self, mortar):
        expect = 160.0 * (B_PHI - 1.0) / B_PHI
        assert con.moisture_capacity(0.0, mortar) == pytest.approx(
            expect, rel=1e-13)

    def test_matches_finite_difference(self, mortar):
        h = 1e-6
        for phi in (0.1, 0.5, 0.8, 0.95):
            fd = (con.water_content(phi + h, mortar)
                  - con.water_content(phi - h, mortar)) / (2.0 * h)
            assert con.moisture_capacity(phi, mortar) == pytest.approx(
                fd, rel=1e-6)

    def test_increasing(self, mortar):
        phi = np.linspace(0.0, 1.0, 100)
        cap = con.moisture_capacity(phi, mortar)
        assert np.all(cap > 0.0)
        assert np.all(np.diff(cap) > 0.0)


class TestSaturationPressure:
    def test_triple_point(self):
        assert con.saturation_pressure(0.0) == 611.0

    def test_branches_meet_at_zero(self):
        # both branch formulas evaluated at exactly 0 degC
        cold = 611.0 * math.exp(22.44 * 0.0 / (272.44 + 0.0))
        warm = 611.0 * math.exp(17.08 * 0.0 / (234.18 + 0.0))
        assert abs(cold - warm) <= 1e-9
        assert con.saturation_pressure(0.0) == pytest.approx(cold, abs=1e-9)
        # continuity: approaching 0 from either side stays slope-bounded
        assert con.saturation_pressure(-1e-9) == pytest.approx(611.0,
                                                               abs=1e-6)
        assert con.saturation_pressure(1e-9) == pytest.approx(611.0,
                                                              abs=1e-6)

    def test_warm_branch(self):
        expect = 611.0 * math.exp(17.08 * 20.0 / (234.18 + 20.0))
        got = con.saturation_pressure(20.0)
        assert got == pytest.approx(expect, rel=1e-12)
        assert 2300.0 < got < 2380.0   # steam tables give about 2339 Pa

    def test_cold_branch(self):
        expect = 611.0 * math.exp(22.44 * -10.0 / (272.44 - 10.0))
        got = con.saturation_pressure(-10.0)
        assert got == pytest.approx(expect, rel=1e-12)
        assert 255.0 < got < 265.0

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for theta in (-25.0, -10.0, -1.0, 1.0, 10.0, 35.0):
            fd = (con.saturation_pressure(theta + h)
                  - con.saturation_pressure(theta - h)) / (2.0 * h)
            assert con.saturation_pressure_derivative(theta) \
                == pytest.approx(fd, rel=1e-7)

    def test_guard(self):
        with pytest.raises(DomainError):
            con.saturation_pressure(-40.5)
        with pytest.raises(DomainError):
            con.saturation_pressure(60.5)


class TestVaporPermeability:
    def test_reference_point(self):
        params = con.TransportParams(mu=1.0)
        assert con.vapor_permeability(0.0, params) == pytest.approx(
            1.8293061428314464e-10, rel=1e-12)

    def test_resistance_factor_divides(self, mortar):
        free = con.vapor_permeability(0.0, con.TransportParams(mu=1.0))
        assert con.vapor_permeability(0.0, mortar) == pytest.approx(
            free / 9.63, rel=1e-13)

    def test_increasing_in_theta(self, mortar):
        theta = np.linspace(-20.0, 40.0, 61)
        dv = con.vapor_permeability(theta, mortar)
        assert np.all(np.diff(dv) > 0.0)


class TestLiquidTransport:
    def test_dry_limit(self, mortar):
        expect = 3.8 * (0.82 / 160.0) ** 2
        assert con.liquid_conductivity(0.0, mortar) == pytest.approx(
            expect, rel=1e-13)

    def test_literal_exponent_at_saturation(self, mortar):
        expect = 3.8 * (0.82 / 160.0) ** 2 * 10.0 ** (3.0 * 160.0 / 159.0)
        assert con.liquid_conductivity(1.0, mortar) == pytest.approx(
            expect, rel=1e-12)

    def test_variant_exponent_at_saturation(self):
        params = con.TransportParams(capillary_exponent="kunzel")
        expect = 3.8 * (0.82 / 160.0) ** 2     # exponent zero at w = w_f
        assert con.liquid_conductivity(1.0, params) == pytest.approx(
            expect, rel=1e-13)

    def test_diffusivity_golden(self, mortar):
        # frozen regression value at the sorption anchor point
        assert con.moisture_diffusivity(0.8, mortar) == pytest.approx(
            0.03336891134365038, rel=1e-12)

    def test_diffusivity_increasing(self, mortar):
        phi = np.linspace(0.01, 1.0, 100)
        d = con.moisture_diffusivity(phi, mortar)
        assert np.all(np.diff(d) > 0.0)


class TestThermalConductivity:
    def test_dry(self, mortar):
        assert con.thermal_conductivity(0.0, mortar) == 0.45

    def test_saturated(self, mortar):
        assert con.thermal_conductivity(160.0, mortar) == pytest.approx(
            0.8380239520958085, rel=1e-13)

    def test_affine(self, mortar):
        w = 37.0
        lhs = con.thermal_conductivity(2 * w, mortar) \
            - con.thermal_conductivity(w, mortar)
        rhs = con.thermal_conductivity(w, mortar) \
            - con.thermal_conductivity(0.0, mortar)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLatentHeat:
    def test_reference_point(self):
        assert con.latent_heat_vapor(0.0) == 2.5008e6

    def test_handbook_value(self):
        got = con.latent_heat_vapor(20.0)
        assert got == pytest.approx(2452744.2908685915, rel=1e-12)
        assert 2.44e6 < got < 2.46e6   # handbook: about 2.454e6 at 20 degC

    def test_decreasing(self):
        theta = np.linspace(-20.0, 40.0, 61)
        hv = con.latent_heat_vapor(theta)
        assert np.all(np.diff(hv) < 0.0)


class TestEffectiveHeatCapacity:
    def test_dry_solid(self, mortar, heat_capacity):
        assert heat_capacity(10.0, 0.0, mortar) == pytest.approx(1.67e6,
                                                                 rel=1e-14)

    def test_wet_above_freezing(self, mortar, heat_capacity):
        expect = 1.67e6 + 23.0 * 4187.0
        assert heat_capacity(10.0, 0.8, mortar) == pytest.approx(expect,
                                                                 rel=1e-9)

    def test_latent_term_raises_capacity_below_freezing(
            self, mortar, spec01_model, heat_capacity):
        # just below the freezing front the release of latent heat
        # dominates; compare at the mirrored temperature above 0
        cold = heat_capacity(-0.5, 0.8, mortar, spec01_model)
        warm = heat_capacity(0.5, 0.8, mortar, spec01_model)
        assert cold > warm

    def test_latent_term_vanishes_when_fully_frozen(
            self, mortar, spec01_model):
        # deep below freezing nearly all pore water is ice: the latent
        # term fades and the lower ice heat capacity wins
        w = con.water_content(0.8, mortar)
        _, slope_deep = spec01_model.ice_content(-25.0, w)
        _, slope_front = spec01_model.ice_content(-0.5, w)
        assert slope_deep <= 0.0
        assert abs(slope_deep) < abs(slope_front)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_chord_meets_tangent_at_the_floor(self, mortar, spec01_model,
                                              heat_capacity, sign):
        # a frozen centroid that moved just more than the floor over the
        # step takes the chord, one that moved just less the tangent: the
        # two agree, so the capacity does not jump between Picard iterates
        theta, floor = -1.7, con._CHORD_FLOOR
        above = heat_capacity(theta, 0.8, mortar, spec01_model,
                              theta - sign * 1.01 * floor)
        below = heat_capacity(theta, 0.8, mortar, spec01_model,
                              theta - sign * 0.99 * floor)
        assert above == pytest.approx(below, rel=1e-6)

    def test_ice_model_ignored_above_freezing(self, mortar, spec01_model,
                                              heat_capacity):
        with_ice = heat_capacity(7.0, 0.6, mortar, spec01_model)
        without = heat_capacity(7.0, 0.6, mortar)
        assert with_ice == pytest.approx(without, rel=1e-12)


class TestParams:
    def test_rejects_bad_reference_contents(self):
        with pytest.raises(InvalidParametersError):
            con.TransportParams(w_f=100.0, w_80=100.0)
        with pytest.raises(InvalidParametersError):
            con.TransportParams(w_f=100.0, w_80=0.0)

    def test_rejects_nonpositive_scalars(self):
        with pytest.raises(InvalidParametersError):
            con.TransportParams(lambda_0=0.0)
        with pytest.raises(InvalidParametersError):
            con.TransportParams(rho_s=-1.0)

    def test_rejects_unknown_exponent_variant(self):
        with pytest.raises(InvalidParametersError):
            con.TransportParams(capillary_exponent="quadratic")
