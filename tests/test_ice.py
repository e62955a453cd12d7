import math

import numpy as np
import pytest
from scipy.integrate import quad

from frostsim import constitutive as con
from frostsim import ice
from frostsim.errors import DomainError, InvalidParametersError, InvalidPsdError

GAMMA = 0.0409
DSM = 1.2e6


def quad_pore_pressure(theta, psd, params):
    """Independent quadrature: adaptive integration of chi against the
    piecewise log-linear cumulative porosity, segment by segment."""
    if theta >= 0.0:
        return params.p_l
    r_ir = 2.0 * params.gamma_li / (params.delta_s_m * abs(theta))
    r_ar = 1.97e-9 * (1.0 / abs(theta)) ** (1.0 / 3.0)
    r_cr = r_ir + r_ar

    def chi_of_log(u):
        return params.gamma_li * (2.0 / r_ir - 1.0 / (math.exp(u) - r_ar))

    log_r = np.log(psd.radii)
    psi = psd.cum_porosity
    total = 0.0
    start = math.log(max(r_cr, psd.radii[0]))
    for j in range(len(log_r) - 1):
        lo = max(log_r[j], start)
        hi = log_r[j + 1]
        if hi <= lo:
            continue
        slope = (psi[j] - psi[j + 1]) / (log_r[j + 1] - log_r[j])
        part, _ = quad(chi_of_log, lo, hi, limit=200)
        total += slope * part
    return params.p_l + total / params.n


class TestGeometricRadii:
    def test_adsorbed_layer_reference_points(self):
        assert ice._adsorbed_layer(-1.0) == pytest.approx(1.97e-9, rel=1e-14)
        # cube root of 1/8 is exactly 1/2
        assert ice._adsorbed_layer(-8.0) == pytest.approx(0.985e-9,
                                                          rel=1e-12)

    def test_adsorbed_layer_monotone(self):
        theta = -np.geomspace(0.001, 30.0, 40)
        r = ice._adsorbed_layer(theta)
        assert np.all(np.isfinite(r))
        # |theta| grows along the array, the film shrinks
        assert np.all(np.diff(r) < 0.0)

    def test_interface_radius_reference_points(self, ice_params):
        assert ice.interface_radius(-1.0, ice_params) == pytest.approx(
            2.0 * GAMMA / DSM, rel=1e-14)
        assert ice.interface_radius(-10.0, ice_params) == pytest.approx(
            2.0 * GAMMA / DSM / 10.0, rel=1e-14)

    def test_interface_radius_scaling_identity(self, ice_params):
        theta = -np.array([0.3, 1.0, 4.0, 17.0])
        prod = ice.interface_radius(theta, ice_params) * np.abs(theta)
        np.testing.assert_allclose(prod, prod[0], rtol=1e-13)

    def test_critical_radius_reference_points(self, ice_params):
        r1 = 2.0 * GAMMA / DSM + 1.97e-9
        assert ice.critical_radius(-1.0, ice_params) == pytest.approx(
            r1, rel=1e-12)
        assert r1 == pytest.approx(7.014e-8, rel=1e-3)
        r10 = 2.0 * GAMMA / DSM / 10.0 + 1.97e-9 * 0.1 ** (1.0 / 3.0)
        assert ice.critical_radius(-10.0, ice_params) == pytest.approx(
            r10, rel=1e-12)
        assert r10 == pytest.approx(7.73e-9, rel=1e-3)

    def test_critical_radius_decreasing_in_cold(self, ice_params):
        assert ice.critical_radius(-0.5, ice_params) \
            > ice.critical_radius(-5.0, ice_params)

    def test_critical_radius_thaw_sentinel(self, ice_params):
        assert ice.critical_radius(5.0, ice_params) == math.inf
        out = ice.critical_radius(np.array([-1.0, 0.0, 3.0]), ice_params)
        assert np.isfinite(out[0])
        assert np.isinf(out[1]) and np.isinf(out[2])


class TestWallPressure:
    def test_identity_at_critical_radius(self, ice_params):
        # r_cr - r_ar = r_ir exactly, so chi(r_cr) = gamma / r_ir
        for theta in (-0.3, -1.0, -5.0, -12.0, -25.0):
            r_ir = ice.interface_radius(theta, ice_params)
            r_cr = ice.critical_radius(theta, ice_params)
            chi = ice.wall_pressure(r_cr, theta, ice_params)
            assert chi == pytest.approx(GAMMA / r_ir, rel=1e-12)

    def test_large_pore_limit(self, ice_params):
        r_ir = ice.interface_radius(-5.0, ice_params)
        chi = ice.wall_pressure(1.0, -5.0, ice_params)
        assert chi == pytest.approx(2.0 * GAMMA / r_ir, rel=1e-6)

    def test_reference_value(self, ice_params):
        r_ir = 2.0 * GAMMA / (DSM * 10.0)
        r_ar = 1.97e-9 * 0.1 ** (1.0 / 3.0)
        expect = GAMMA * (2.0 / r_ir - 1.0 / (1e-7 - r_ar))
        got = ice.wall_pressure(1e-7, -10.0, ice_params)
        assert got == pytest.approx(expect, rel=1e-12)
        assert 1.15e7 < got < 1.17e7

    def test_bounds(self, ice_params):
        theta = -7.0
        r_ir = ice.interface_radius(theta, ice_params)
        r_cr = ice.critical_radius(theta, ice_params)
        r = np.geomspace(r_cr, 1e-3, 50)
        chi = ice.wall_pressure(r, theta, ice_params)
        assert np.all(chi >= GAMMA / r_ir * (1.0 - 1e-12))
        assert np.all(chi <= 2.0 * GAMMA / r_ir)

    def test_subcritical_pore_rejected(self, ice_params):
        r_cr = ice.critical_radius(-3.0, ice_params)
        with pytest.raises(DomainError):
            ice.wall_pressure(0.5 * r_cr, -3.0, ice_params)


class TestAveragePorePressure:
    def test_thaw_gauge(self, three_knot_psd, ice_params):
        assert ice.average_pore_pressure(5.0, three_knot_psd,
                                         ice_params) == 0.0
        shifted = ice.IceParams(p_l=500.0)
        assert ice.average_pore_pressure(5.0, three_knot_psd,
                                         shifted) == 500.0

    def test_degenerate_psd_collapses_to_wall_pressure(self, ice_params):
        # all porosity concentrated in a narrow band around 1e-6 m
        psd = ice.PoreSizeDistribution([1e-6, 1.0000001e-6], [0.35, 0.0])
        p = ice.average_pore_pressure(-20.0, psd, ice_params)
        assert p == pytest.approx(
            ice.wall_pressure(1e-6, -20.0, ice_params), rel=1e-6)

    @pytest.mark.parametrize("theta", [-0.5, -2.0, -5.0, -20.0])
    def test_against_adaptive_quadrature(self, three_knot_psd, ice_params,
                                         theta):
        got = ice.average_pore_pressure(theta, three_knot_psd, ice_params)
        want = quad_pore_pressure(theta, three_knot_psd, ice_params)
        assert got == pytest.approx(want, rel=2e-3)

    def test_spec01_against_adaptive_quadrature(self, spec01_model):
        psd, params = spec01_model.psd, spec01_model.params
        for theta in (-1.0, -8.0):
            got = ice.average_pore_pressure(theta, psd, params)
            want = quad_pore_pressure(theta, psd, params)
            assert got == pytest.approx(want, rel=2e-3)

    def test_refinement_converged(self, spec01_model):
        psd, params = spec01_model.psd, spec01_model.params
        for theta in (-5.0, -20.0):
            coarse_p = ice.average_pore_pressure(theta, psd, params)
            fine_p = ice.average_pore_pressure(theta, psd, params,
                                               bins_per_interval=80)
            assert abs(fine_p - coarse_p) / fine_p < 0.005

    def test_monotone_in_cold(self, spec01_model):
        theta = -np.geomspace(0.1, 30.0, 60)
        p = ice.average_pore_pressure(theta, spec01_model.psd,
                                      spec01_model.params)
        assert np.all(np.diff(p) >= -1e-9 * np.abs(p[1:]))
        assert np.all(p >= 0.0)

    def test_above_liquid_pressure(self, three_knot_psd):
        params = ice.IceParams(p_l=1000.0)
        theta = np.array([-3.0, -1.0, 2.0])
        p = ice.average_pore_pressure(theta, three_knot_psd, params)
        assert np.all(p >= 1000.0)

    def test_scalar_in_scalar_out(self, three_knot_psd, ice_params):
        p = ice.average_pore_pressure(-4.0, three_knot_psd, ice_params)
        assert isinstance(p, float)


@pytest.fixture(scope="module", params=["three_knot", "spec01", "spec02"])
def psd_case(request, three_knot_psd):
    """A pore size table with its parameters and temperatures whose
    critical radius lies below, inside and at or above the table."""
    from frostsim.driver import _load_psd
    if request.param == "three_knot":
        # r_cr: 1.37e-6 and 3.42e-6 above r_max = 1e-6, 2.3e-9 and 4.1e-9
        # below r_min = 1e-8
        return (three_knot_psd, ice.IceParams(),
                [-0.02, -0.05, -0.3, -1.0, -2.0, -5.0, -8.0, -20.0, -39.0])
    n = 0.35 if request.param == "spec01" else 0.13
    # r_cr 6.8e-4 at -1e-4 degC, beyond r_max = 1e-4
    return (_load_psd({"psd_file": request.param}), ice.IceParams(n=n),
            [-1e-4, -0.02, -0.3, -1.0, -2.0, -5.0, -8.0, -20.0, -39.0])


class TestExactPorePressure:
    """IceModel.pore_pressure integrates the crystal pressure exactly over
    the piecewise log-linear table."""

    def test_against_adaptive_quadrature(self, psd_case):
        psd, params, temps = psd_case
        model = ice.IceModel(psd, params)
        for theta in temps:
            assert model.pore_pressure(theta) == pytest.approx(
                quad_pore_pressure(theta, psd, params), rel=1e-8, abs=1e-12)

    def test_against_fine_midpoint_rule(self, psd_case):
        psd, params, temps = psd_case
        got = ice.IceModel(psd, params).pore_pressure(np.array(temps))
        # the 80-bin midpoint rule is within 1.1e-5 of the integral on the
        # three-knot table and within 1.5e-7 on the bundled ones
        want = ice.average_pore_pressure(np.array(temps), psd, params,
                                         bins_per_interval=80)
        np.testing.assert_allclose(got, want, rtol=3e-5, atol=1e-9)

    def test_empty_integral_gives_liquid_pressure(self, three_knot_psd):
        params = ice.IceParams(p_l=250.0)
        model = ice.IceModel(three_knot_psd, params)
        assert ice.critical_radius(-0.05, params) > three_knot_psd.radii[-1]
        for theta in (-0.05, 0.0, 3.0):
            assert model.pore_pressure(theta) == 250.0
        assert model.pore_pressure(-0.3) > 250.0

    def test_critical_radius_below_table(self, three_knot_psd, ice_params):
        # every tabulated pore is frozen, so the whole table integrates to
        # sum_j s_j int chi du, which the oracle gives with r_cr in place
        theta = -20.0
        assert ice.critical_radius(theta, ice_params) < three_knot_psd.radii[0]
        got = ice.IceModel(three_knot_psd, ice_params).pore_pressure(theta)
        assert got == pytest.approx(
            quad_pore_pressure(theta, three_knot_psd, ice_params), rel=1e-12)

    def test_scalar_and_array_inputs(self, spec01_model):
        theta = np.array([-6.0, 1.0, -0.4, 0.0])
        p = spec01_model.pore_pressure(theta)
        assert isinstance(p, np.ndarray) and p.shape == (4,)
        scalar = spec01_model.pore_pressure(-6.0)
        assert isinstance(scalar, float)
        assert scalar == p[0]
        assert spec01_model.pore_pressure(np.float64(-0.4)) == p[2]
        assert p[1] == p[3] == 0.0


class TestIceContent:
    def test_thaw(self, three_knot_psd, ice_params, mortar):
        w_i, slope = ice.ice_content(2.0, con.water_content(0.8, mortar),
                                     three_knot_psd, ice_params)
        assert w_i == 0.0
        assert slope == 0.0

    def test_fully_freezable(self, ice_params, mortar):
        # every tabulated pore is above the critical radius at -20 degC
        psd = ice.PoreSizeDistribution([1e-8, 1e-6], [0.35, 0.0])
        w_i, _ = ice.ice_content(-20.0, con.water_content(0.8, mortar),
                                 psd, ice_params)
        assert w_i == pytest.approx(con.water_content(0.8, mortar),
                                    rel=1e-12)

    def test_interpolation_oracle(self, three_knot_psd, ice_params, mortar):
        # hand-done log-linear lookup of psi at the critical radius
        theta = -2.0
        r_cr = 2.0 * GAMMA / (DSM * 2.0) + 1.97e-9 * 0.5 ** (1.0 / 3.0)
        frac = math.log(r_cr / 1e-8) / math.log(1e-7 / 1e-8)
        psi = 0.35 + (0.1 - 0.35) * frac
        expect = con.water_content(0.7, mortar) * psi / 0.35
        w_i, _ = ice.ice_content(theta, con.water_content(0.7, mortar),
                                 three_knot_psd, ice_params)
        assert w_i == pytest.approx(expect, rel=1e-12)

    def test_bounded_and_monotone(self, spec01_model, mortar):
        theta = np.linspace(-30.0, -0.01, 80)
        w = con.water_content(0.9, mortar)
        w_i, slope = spec01_model.ice_content(theta, w)
        assert np.all(w_i >= 0.0)
        assert np.all(w_i <= w + 1e-12)
        assert np.all(np.diff(w_i) <= 1e-12)   # colder holds more ice
        assert np.all(slope <= 0.0)

    def test_slope_matches_finite_difference(self, spec01_model, mortar):
        # a 1e-6 K centred difference, with theta - h and theta + h inside
        # the same table interval; dropping the film's r_ar / 3 from the
        # slope moves it by 0.4 to 2.4 % here
        theta, h = np.array([-0.3, -1.7, -4.0]), 1e-6
        radii, params = spec01_model.psd.radii, spec01_model.params
        assert np.array_equal(
            np.searchsorted(radii, ice.critical_radius(theta - h, params)),
            np.searchsorted(radii, ice.critical_radius(theta + h, params)))
        w = con.water_content(0.8, mortar)
        w_hi, _ = spec01_model.ice_content(theta + h, w)
        w_lo, _ = spec01_model.ice_content(theta - h, w)
        _, slope = spec01_model.ice_content(theta, w)
        np.testing.assert_allclose(slope, (w_hi - w_lo) / (2.0 * h), rtol=1e-7)

    def test_slope_zero_outside_table_and_thaw(self, three_knot_psd,
                                               ice_params):
        # r_cr lies above the table's last radius just below 0 degC and
        # below its first radius at -20 degC
        theta = np.array([-0.01, -20.0, -0.0, 0.0, 3.0])
        r_cr = ice.critical_radius(theta[:2], ice_params)
        assert r_cr[0] > three_knot_psd.radii[-1]
        assert r_cr[1] < three_knot_psd.radii[0]
        _, slope = ice.ice_content(theta, 50.0, three_knot_psd, ice_params)
        assert np.all(slope == 0.0)


class TestPsdTable:
    def test_validation(self):
        P = ice.PoreSizeDistribution
        with pytest.raises(InvalidPsdError):
            P([1e-8], [0.35])                          # one row
        with pytest.raises(InvalidPsdError):
            P([1e-8, 1e-8], [0.35, 0.0])               # radii not increasing
        with pytest.raises(InvalidPsdError):
            P([-1e-8, 1e-7], [0.35, 0.0])              # negative radius
        with pytest.raises(InvalidPsdError):
            P([1e-8, 1e-7], [0.2, 0.3])                # psi increasing
        with pytest.raises(InvalidPsdError):
            P([1e-8, 1e-7], [0.35, -0.1])              # negative tail
        with pytest.raises(InvalidPsdError):
            P([1e-8, 1e-7], [1.2, 0.0])                # porosity >= 1

    def test_frozen_fraction_clamps_outside_table(self, three_knot_psd,
                                                  ice_params):
        # r_cr lies below the table's first radius at -20 degC, so every
        # pore is frozen, and above its last just below 0 degC, so none
        frac = ice.frozen_fraction(np.array([-20.0, -0.01]), three_knot_psd,
                                   ice_params)
        np.testing.assert_array_equal(frac, [0.35 / ice_params.n, 0.0])

    def test_csv_round_trip(self, tmp_path, three_knot_psd):
        path = tmp_path / "psd.csv"
        lines = ["radius_m,cum_porosity"]
        lines += [f"{r!r},{p!r}" for r, p in zip(
            three_knot_psd.radii.tolist(),
            three_knot_psd.cum_porosity.tolist())]
        path.write_text("\n".join(lines) + "\n")
        again = ice.load_psd_csv(path)
        np.testing.assert_array_equal(again.radii, three_knot_psd.radii)
        np.testing.assert_array_equal(again.cum_porosity,
                                      three_knot_psd.cum_porosity)

    def test_csv_errors_carry_row_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radius_m,cum_porosity\n1e-8,0.35\noops\n")
        with pytest.raises(InvalidPsdError, match="row 3"):
            ice.load_psd_csv(path)
        path.write_text("radius,psi\n1e-8,0.35\n")
        with pytest.raises(InvalidPsdError, match="header"):
            ice.load_psd_csv(path)

    def test_bundled_tables(self):
        from frostsim.driver import _data_file
        spec01 = ice.load_psd_csv(_data_file("psd_spec01.csv"))
        spec02 = ice.load_psd_csv(_data_file("psd_spec02.csv"))
        assert spec01.total_porosity == pytest.approx(0.35, abs=1e-12)
        assert spec02.total_porosity == pytest.approx(0.13, abs=1e-12)
        assert spec01.cum_porosity[-1] == pytest.approx(0.0, abs=1e-12)
        assert spec02.cum_porosity[-1] == pytest.approx(0.0, abs=1e-12)


class TestIceModel:
    def test_porosity_mismatch_rejected(self, three_knot_psd):
        with pytest.raises(InvalidParametersError):
            ice.IceModel(three_knot_psd, ice.IceParams(n=0.13))

    def test_param_validation(self):
        with pytest.raises(InvalidParametersError):
            ice.IceParams(gamma_li=0.0)
        with pytest.raises(InvalidParametersError):
            ice.IceParams(delta_s_m=-1.0)
        with pytest.raises(InvalidParametersError):
            ice.IceParams(n=1.0)
