import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from frostsim import constitutive as con
from frostsim import transport_solver as ts
from frostsim._linalg import (BandedCholesky, BandFactors, BandLU, SplitLU,
                              apply_dirichlet)
from frostsim.errors import (
    DomainError,
    InvalidParametersError,
    StepFailureError,
)
from frostsim.mesh import BoundaryTag, generate_lshape, generate_rectangle

# exact element matrices of the unit triangle (area 1/2) for unit
# coefficients: stiffness from the constant gradients, consistent storage
# from integrating the shape function products
S_UNIT = np.array([[1.0, -0.5, -0.5],
                   [-0.5, 0.5, 0.0],
                   [-0.5, 0.0, 0.5]])
M_UNIT = np.array([[2.0, 1.0, 1.0],
                   [1.0, 2.0, 1.0],
                   [1.0, 1.0, 2.0]]) / 24.0


def boundary_nodes(mesh):
    return np.unique(mesh.boundary_edge_nodes())


class TestAssembly:
    def test_stiffness_block_hand_assembled(self, unit_triangle):
        prob = ts.TransportProblem(unit_triangle,
                                   ts.ConstantCoefficients(k_tt=2.0))
        sys = prob.assemble(np.zeros(3), np.zeros(3), 0.0)
        np.testing.assert_allclose(sys.block("K", "tt").toarray(),
                                   2.0 * S_UNIT, atol=1e-15)

    def test_capacity_block_hand_assembled(self, unit_triangle):
        prob = ts.TransportProblem(unit_triangle, ts.ConstantCoefficients())
        sys = prob.assemble(np.zeros(3), np.zeros(3), 0.0)
        np.testing.assert_allclose(sys.block("C", "tt").toarray(), M_UNIT,
                                   atol=1e-16)
        np.testing.assert_allclose(sys.block("C", "pp").toarray(), M_UNIT,
                                   atol=1e-16)

    def test_lumped_capacity_is_row_sum_diagonal(self, unit_triangle):
        prob = ts.TransportProblem(unit_triangle, ts.ConstantCoefficients(),
                                   lumped_capacity=True)
        sys = prob.assemble(np.zeros(3), np.zeros(3), 0.0)
        np.testing.assert_allclose(sys.block("C", "tt").toarray(),
                                   np.eye(3) / 6.0, atol=1e-16)

    def test_off_diagonal_blocks_zero_when_uncoupled(self, unit_triangle):
        prob = ts.TransportProblem(unit_triangle, ts.ConstantCoefficients())
        sys = prob.assemble(np.zeros(3), np.zeros(3), 0.0)
        np.testing.assert_array_equal(sys.block("K", "tp").toarray(), 0.0)
        np.testing.assert_array_equal(sys.block("K", "pt").toarray(), 0.0)
        assert sys.block("C", "tp").nnz == 0

    def test_moisture_model_block_coefficients(self, unit_triangle, mortar,
                                               heat_capacity):
        # at a uniform state every block equals its centroid coefficient
        # times the unit-coefficient element matrix
        theta, phi = 10.0, 0.8
        prob = ts.TransportProblem(unit_triangle,
                                   ts.KunzelCoefficients(mortar))
        sys = prob.assemble(np.full(3, theta), np.full(3, phi), 0.0)

        p_sat = con.saturation_pressure(theta)
        dp_sat = con.saturation_pressure_derivative(theta)
        delta_v = con.vapor_permeability(theta, mortar)
        h_v = con.latent_heat_vapor(theta)
        w = con.water_content(phi, mortar)
        expect = {
            "tt": con.thermal_conductivity(w, mortar)
                  + h_v * delta_v * phi * dp_sat,
            "tp": h_v * delta_v * p_sat,
            "pt": delta_v * phi * dp_sat,
            "pp": con.moisture_diffusivity(phi, mortar) + delta_v * p_sat,
        }
        for name, coef in expect.items():
            np.testing.assert_allclose(sys.block("K", name).toarray(),
                                       coef * S_UNIT, rtol=1e-12,
                                       err_msg=name)
        np.testing.assert_allclose(
            sys.block("C", "tt").toarray(),
            heat_capacity(theta, phi, mortar) * M_UNIT,
            rtol=1e-12)
        np.testing.assert_allclose(
            sys.block("C", "pp").toarray(),
            con.moisture_capacity(phi, mortar) * M_UNIT, rtol=1e-12)

    def test_blocks_symmetric_on_unstructured_mesh(self, lshape_coarse,
                                                   mortar):
        x, y = lshape_coarse.nodes[:, 0], lshape_coarse.nodes[:, 1]
        theta = 5.0 + 8.0 * x - 3.0 * y
        phi = 0.5 + 0.2 * x * y
        prob = ts.TransportProblem(lshape_coarse,
                                   ts.KunzelCoefficients(mortar))
        sys = prob.assemble(theta, phi, 0.0)
        for name in ("tt", "tp", "pt", "pp"):
            block = sys.block("K", name)
            gap = abs(block - block.T).max()
            assert gap <= 1e-12 * abs(block).max()

    def test_robin_is_edge_lumped(self, unit_triangle):
        alpha, amb = 5.0, 3.0
        prob = ts.TransportProblem(
            unit_triangle,
            ts.ConstantCoefficients(k_tt=0.0, k_pp=0.0),
            robin={BoundaryTag.EXT: ts.RobinBC(alpha, 0.0, amb, 0.0)})
        sys = prob.assemble(np.zeros(3), np.zeros(3), 0.0)
        # per adjacent boundary edge each node collects alpha L / 2
        s = 0.5 * math.sqrt(2.0)
        weights = np.array([1.0, 0.5 + s, 0.5 + s])
        np.testing.assert_allclose(sys.block("K", "tt").toarray(),
                                   np.diag(alpha * weights), atol=1e-14)
        np.testing.assert_allclose(sys.F[:3], alpha * amb * weights,
                                   rtol=1e-14)
        # beta_v = 0: nothing lands in the moisture block
        np.testing.assert_array_equal(sys.block("K", "pp").toarray(), 0.0)

    def test_time_dependent_ambient(self, unit_triangle):
        prob = ts.TransportProblem(
            unit_triangle, ts.ConstantCoefficients(),
            robin={BoundaryTag.EXT: ts.RobinBC(
                2.0, 0.0, lambda t: -5.0 + t / 3600.0, 0.0)})
        f1 = prob.assemble(np.zeros(3), np.zeros(3), 0.0).F
        f2 = prob.assemble(np.zeros(3), np.zeros(3), 3600.0).F
        np.testing.assert_allclose(f2[:3] / f1[:3], 4.0 / 5.0, rtol=1e-13)

    def test_volumetric_source_load(self, unit_triangle):
        prob = ts.TransportProblem(unit_triangle, ts.ConstantCoefficients(),
                                   source_heat=lambda x, y, t: 6.0 * t)
        sys = prob.assemble(np.zeros(3), np.zeros(3), 2.0)
        # area / 3 of the centroid value to each vertex
        np.testing.assert_allclose(sys.F[:3], 2.0, rtol=1e-14)
        np.testing.assert_allclose(sys.F[3:], 0.0)

    def test_rain_suppressed_on_saturated_nodes(self, unit_triangle):
        q = 7.0
        prob = ts.TransportProblem(
            unit_triangle, ts.ConstantCoefficients(),
            flux={BoundaryTag.EXT: ts.BoundaryFlux(
                q_moist=q)})
        s = 0.5 * math.sqrt(2.0)
        weights = np.array([1.0, 0.5 + s, 0.5 + s])

        wet = prob.assemble(np.zeros(3), np.zeros(3), 0.0,
                            suppressed_nodes=np.array([True, False, False]))
        np.testing.assert_allclose(wet.F[3:],
                                   q * weights * [0.0, 1.0, 1.0],
                                   rtol=1e-14)
        dry = prob.assemble(np.zeros(3), np.zeros(3), 0.0,
                            suppressed_nodes=np.zeros(3, dtype=bool))
        np.testing.assert_allclose(dry.F[3:], q * weights, rtol=1e-14)

    def test_centroid_state_outside_model_range(self, unit_triangle, mortar):
        prob = ts.TransportProblem(unit_triangle,
                                   ts.KunzelCoefficients(mortar))
        with pytest.raises(DomainError, match="element 0"):
            prob.assemble(np.full(3, -50.0), np.full(3, 0.5), 0.0)
        with pytest.raises(DomainError, match="phi"):
            prob.assemble(np.full(3, 10.0), np.full(3, 1.5), 0.0)


class TestUncheckedEvaluation:
    """KunzelCoefficients evaluates through the unchecked kernels; the
    transport problem has bounded the centroid states already."""

    FIELDS = ("k_tt", "k_tp", "k_pt", "k_pp", "c_tt", "c_pp")

    @pytest.fixture()
    def states(self):
        rng = np.random.default_rng(11)
        theta = np.concatenate([rng.uniform(-12.0, -0.01, 40),
                                rng.uniform(0.0, 25.0, 40),
                                [-40.0, -1e-3, 0.0, 1e-3, 60.0]])
        phi = np.concatenate([rng.uniform(0.0, 1.0, 80),
                              [0.0, 0.3, 1.0, 0.9, 0.5]])
        # step-start temperatures within and beyond the 1e-3 K chord cut
        theta_ref = theta + np.where(np.arange(len(theta)) % 3 == 0, 0.0,
                                     rng.normal(0.0, 0.8, len(theta)))
        return theta, phi, np.clip(theta_ref, -40.0, 60.0)

    def checked(self, theta, phi, params, ice_model, heat_capacity,
                theta_ref=None):
        """The same coefficients from the public, checked functions and,
        for c_tt, the heat capacity kernel on their values."""
        p_sat = con.saturation_pressure(theta)
        dp_sat = con.saturation_pressure_derivative(theta)
        delta_v = con.vapor_permeability(theta, params)
        h_v = con.latent_heat_vapor(theta)
        w = con.water_content(phi, params)
        return {
            "k_tt": con.thermal_conductivity(w, params)
                    + h_v * delta_v * phi * dp_sat,
            "k_tp": h_v * delta_v * p_sat,
            "k_pt": delta_v * phi * dp_sat,
            "k_pp": con.moisture_diffusivity(phi, params) + delta_v * p_sat,
            "c_tt": heat_capacity(theta, phi, params, ice_model, theta_ref),
            "c_pp": con.moisture_capacity(phi, params),
        }

    @pytest.mark.parametrize("with_ice", [False, True])
    @pytest.mark.parametrize("chord", [False, True])
    def test_bitwise_equal_to_checked_functions(self, states, mortar,
                                                spec01_model, heat_capacity,
                                                with_ice, chord):
        theta, phi, theta_ref = states
        model = spec01_model if with_ice else None
        coef = ts.KunzelCoefficients(mortar, ice_model=model)
        if chord:
            got = coef.evaluate_step(theta, phi,
                                     coef.step_reference(theta_ref))
        else:
            got = coef.evaluate(theta, phi)
        want = self.checked(theta, phi, mortar, model, heat_capacity,
                            theta_ref if chord else None)
        for name in self.FIELDS:
            assert getattr(got, name).tobytes() == want[name].tobytes(), name

    def test_no_input_checks_per_evaluation(self, states, mortar,
                                            spec01_model, monkeypatch):
        from frostsim import ice
        calls = {"_check_theta": 0, "_check_phi": 0, "_check_freezing": 0}

        def counting(module, name):
            original = getattr(module, name)

            def check(value):
                calls[name] += 1
                return original(value)
            monkeypatch.setattr(module, name, check)

        counting(con, "_check_theta")
        counting(con, "_check_phi")
        counting(ice, "_check_freezing")
        theta, phi, theta_ref = states
        for model in (None, spec01_model):
            coef = ts.KunzelCoefficients(mortar, ice_model=model)
            reference = coef.step_reference(theta_ref)
            for evaluate in (lambda: coef.evaluate(theta, phi),
                             lambda: coef.evaluate_step(theta, phi, reference)):
                before = dict(calls)
                evaluate()
                assert calls["_check_theta"] == before["_check_theta"]
                assert calls["_check_freezing"] == before["_check_freezing"]
                # the ice model is handed the water content, not phi
                assert calls["_check_phi"] == before["_check_phi"]
        # the counters see the public functions' checks
        con.saturation_pressure(theta)
        con.water_content(phi, mortar)
        ice.interface_radius(-1.0, spec01_model.params)
        assert min(calls.values()) > 0


class TestCoefficientContract:
    """Every coefficient model offers the ranges, step_reference,
    evaluate_step and dc_tt that TransportProblem relies on."""

    FIELDS = ("k_tt", "k_tp", "k_pt", "k_pp", "c_tt", "c_pp", "dc_tt")

    def same(self, got, want):
        for name in self.FIELDS:
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), name

    @pytest.mark.parametrize("with_ice", [False, True])
    def test_evaluate_is_a_step_from_its_own_state(self, mortar,
                                                   spec01_model, with_ice):
        # above 0 degC, in the freezing band and deep below it; a step
        # reference within the chord floor takes the same tangent
        theta = np.concatenate([np.linspace(0.0, 25.0, 11),
                                np.linspace(-1.0, -1e-3, 11),
                                [-12.0, -40.0]])
        phi = np.linspace(0.2, 1.0, len(theta))
        coef = ts.KunzelCoefficients(
            mortar, ice_model=spec01_model if with_ice else None)
        got = coef.evaluate(theta, phi)
        self.same(got, coef.evaluate_step(theta, phi,
                                          coef.step_reference(theta)))
        for share in (0.5, -0.99):
            near = coef.step_reference(theta + share * con._CHORD_FLOOR)
            self.same(got, coef.evaluate_step(theta, phi, near))
        assert np.any(got.dc_tt) == with_ice

    def test_constant_coefficients_meet_the_contract(self, lshape_coarse):
        coef = ts.ConstantCoefficients(k_tt=2.0, c_tt=3.0)
        assert coef.theta_range == coef.phi_range == (-math.inf, math.inf)
        theta, phi = np.linspace(-50.0, 80.0, 7), np.linspace(-0.5, 2.0, 7)
        assert coef.step_reference(theta) is None
        got = coef.evaluate_step(theta, phi, coef.step_reference(theta))
        self.same(got, coef.evaluate(theta, phi))
        assert got.dc_tt.tobytes() == np.zeros(7).tobytes()
        # so the update matrix asked for a Newton term is the Picard one
        prob = ts.TransportProblem(lshape_coarse, coef)
        n = lshape_coarse.num_nodes
        r = np.random.default_rng(3).normal(size=2 * n)
        exchange, load, rain = prob._boundary(0.0)
        ops = [prob._step_operator(r, 10.0, exchange, load, rain,
                                   prob._mass_history(r), np.zeros(n, bool),
                                   None, newton)
               for newton in (False, True)]
        assert (ops[0][0] != ops[1][0]).nnz == 0
        assert ops[0][2].tobytes() == ops[1][2].tobytes()


class TestBoundary:
    """The boundary terms of each tag, lumped to nodal weights at set-up,
    against a scatter of every tagged edge. At h = 0.15 the L-shape's
    outside faces have edges 0.15 and 2/15 long, as 0.4 is not a
    multiple of h."""

    @pytest.fixture
    def mesh(self):
        mesh = generate_lshape(1.0, 0.4, 0.15)
        lengths = mesh.boundary_edge_lengths()
        assert np.ptp(lengths[mesh.edges_with_tag(BoundaryTag.EXT)]) > 0.01
        return mesh

    def make_problem(self, mesh, mortar):
        robin = {
            BoundaryTag.EXT: ts.RobinBC(8.0, 5.6e-8,
                                        lambda t: -4.0 + t / 3600.0, 0.9),
            BoundaryTag.INT: ts.RobinBC(7.7, 2.5e-8, 20.0,
                                        lambda t: 0.55),
        }
        flux = {BoundaryTag.EXT: ts.BoundaryFlux(
            q_heat=35.0, q_moist=lambda t: 1e-4 * (1.0 + t / 3600.0))}
        return ts.TransportProblem(
            mesh, ts.KunzelCoefficients(mortar), robin=robin, flux=flux,
            source_heat=lambda x, y, t: 3.0 + x * y,
            source_moist=lambda x, y, t: 1e-6)

    def scattered(self, prob, t):
        """Exchange diagonal, load and rain, edge by edge."""
        mesh = prob.mesh
        n = mesh.num_nodes
        pairs = mesh.boundary_edge_nodes()
        lengths = mesh.boundary_edge_lengths()
        exchange, load, rain = np.zeros(2 * n), np.zeros(2 * n), np.zeros(n)

        def at(value):
            return value(t) if callable(value) else value

        for tag, bc in prob.robin.items():
            idx = mesh.edges_with_tag(tag)
            nodes, w = pairs[idx].ravel(), np.repeat(0.5 * lengths[idx], 2)
            np.add.at(exchange, nodes, bc.alpha_h * w)
            np.add.at(exchange, nodes + n, bc.beta_v * w)
            np.add.at(load, nodes, bc.alpha_h * at(bc.theta_amb) * w)
            np.add.at(load, nodes + n, bc.beta_v * at(bc.phi_amb) * w)
        for tag, fl in prob.flux.items():
            idx = mesh.edges_with_tag(tag)
            nodes, w = pairs[idx].ravel(), np.repeat(0.5 * lengths[idx], 2)
            np.add.at(load, nodes, at(fl.q_heat) * w)
            np.add.at(rain, nodes, at(fl.q_moist) * w)
        x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
        for src, offset in ((prob.source_heat, 0), (prob.source_moist, n)):
            share = src(x, y, t) * mesh.areas / 3.0
            np.add.at(load, mesh.elements.ravel() + offset,
                      np.repeat(share, 3))
        return exchange, load, rain

    def test_matches_per_edge_scatter(self, mesh, mortar):
        prob = self.make_problem(mesh, mortar)
        for t in (0.0, 7200.0):
            got = prob._boundary(t)
            for name, g, want in zip(("exchange", "load", "rain"), got,
                                     self.scattered(prob, t)):
                assert np.count_nonzero(want) > 0
                np.testing.assert_allclose(g, want, rtol=1e-14, atol=0.0,
                                           err_msg=name)

    def test_weights_sum_to_tag_length(self, mesh, mortar):
        prob = self.make_problem(mesh, mortar)
        lengths = mesh.boundary_edge_lengths()
        assert set(prob._weights) == set(BoundaryTag)
        for tag, (nodes, w) in prob._weights.items():
            np.testing.assert_array_equal(nodes, mesh.nodes_with_tag(tag))
            assert np.all(w > 0.0)
            assert w.sum() == pytest.approx(
                lengths[mesh.edges_with_tag(tag)].sum(), rel=1e-14)

    def test_conditions_added_after_set_up(self, mortar):
        # every tag is weighed at set-up, so conditions on tags a problem
        # was built without act as if given from the start
        mesh = generate_lshape(1.0, 0.3, 0.1)
        coef = ts.KunzelCoefficients(mortar)
        ext = ts.RobinBC(8.0, 5.6e-8, -4.0, 0.9)
        inner = ts.RobinBC(7.7, 2.5e-8, 20.0, 0.55)
        wet = ts.BoundaryFlux(q_heat=10.0, q_moist=1e-4)
        late = ts.TransportProblem(mesh, coef, robin={BoundaryTag.EXT: ext})
        late.robin[BoundaryTag.INT] = inner
        late.flux[BoundaryTag.A] = wet
        early = ts.TransportProblem(
            mesh, coef, robin={BoundaryTag.EXT: ext, BoundaryTag.INT: inner},
            flux={BoundaryTag.A: wet})
        state = ts.TransportState.uniform(mesh, 5.0, 0.6)
        state.rdot = early.consistent_rates(state)
        assert (late.consistent_rates(state).tobytes()
                == state.rdot.tobytes())
        got, want = late.step(state, 3600.0), early.step(state, 3600.0)
        assert got.r.tobytes() == want.r.tobytes()

    def test_rain_masked_only_on_suppressed_node(self, mesh, mortar):
        n = mesh.num_nodes
        prob = self.make_problem(mesh, mortar)
        _, load, rain = prob._boundary(7200.0)
        np.testing.assert_array_equal(np.flatnonzero(rain),
                                      mesh.nodes_with_tag(BoundaryTag.EXT))
        node = mesh.nodes_with_tag(BoundaryTag.EXT)[3]
        suppressed = np.zeros(n, dtype=bool)
        suppressed[node] = True
        F = prob._with_rain(load, rain, suppressed)
        np.testing.assert_array_equal(F[:n], load[:n])
        expect = load[n:] + rain
        expect[node] = load[n + node]
        np.testing.assert_array_equal(F[n:], expect)
        np.testing.assert_array_equal(
            prob._with_rain(load, rain, np.zeros(n, dtype=bool))[n:],
            load[n:] + rain)


class TestStepOperator:
    """The Picard operator filled into the fixed CSR pattern against the
    independently assembled K, C and F."""

    def make_problem(self, mesh, mortar, **options):
        robin = {
            BoundaryTag.EXT: ts.RobinBC(8.0, 5.6e-8, -4.0, 0.9),
            BoundaryTag.INT: ts.RobinBC(7.7, 2.5e-8, 20.0, 0.55),
        }
        flux = {BoundaryTag.EXT: ts.BoundaryFlux(
            q_heat=35.0, q_moist=2e-4)}
        return ts.TransportProblem(mesh, ts.KunzelCoefficients(mortar),
                                   robin=robin, flux=flux, **options)

    def test_fixed_pattern_matches_assembly(self, lshape_coarse, mortar):
        self.check_operator(lshape_coarse, mortar, lumped=False,
                            dirichlet=False)

    @pytest.mark.parametrize("lumped, dirichlet", [(True, False),
                                                   (False, True)])
    def test_fixed_pattern_matches_lumped_and_dirichlet(
            self, lshape_coarse, mortar, lumped, dirichlet):
        self.check_operator(lshape_coarse, mortar, lumped, dirichlet)

    def check_operator(self, mesh, mortar, lumped, dirichlet):
        n = mesh.num_nodes
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        theta = 6.0 + 5.0 * x - 4.0 * y
        phi = 0.45 + 0.3 * x * y
        history = np.concatenate([theta - 0.5 * y, phi + 0.05 * x])
        suppressed = np.zeros(n, dtype=bool)
        suppressed[mesh.nodes_with_tag(BoundaryTag.EXT)[0]] = True
        options = {"lumped_capacity": lumped}
        if dirichlet:
            options.update(
                dirichlet_theta=[(mesh.nodes_with_tag(BoundaryTag.A), 3.0)],
                dirichlet_phi=[(mesh.nodes_with_tag(BoundaryTag.B), 0.6)])
        prob = self.make_problem(mesh, mortar, **options)
        t, gdt = 7200.0, 1800.0

        exchange, load, rain = prob._boundary(t)
        r = np.concatenate([theta, phi])
        A, b, res = prob._step_operator(
            r, gdt, gdt * exchange, load, rain, prob._mass_history(history),
            suppressed,
            prob.coefficients.step_reference(mesh.element_mean(theta)))
        assert res.tobytes() == (A @ r - b).tobytes()
        sys = prob.assemble(theta, phi, t, suppressed_nodes=suppressed)
        expect_A = (sys.C + gdt * sys.K).toarray()
        assert A.has_canonical_format
        np.testing.assert_allclose(A.toarray(), expect_A,
                                   rtol=0.0, atol=1e-12 * abs(expect_A).max())
        expect_b = gdt * sys.F + sys.C @ history
        for block in (slice(0, n), slice(n, 2 * n)):
            np.testing.assert_allclose(
                b[block], expect_b[block], rtol=0.0,
                atol=1e-12 * abs(expect_b[block]).max())
        # rain reaches every wetted face node except the suppressed one
        wet = prob.assemble(theta, phi, t, suppressed_nodes=np.zeros(n, bool))
        assert np.count_nonzero(wet.F[n:] != sys.F[n:]) == 1
        if lumped:
            assert sys.C.count_nonzero() == 2 * n
        if dirichlet:
            # the systems the Picard iterates solve on the free dofs
            assert 0 < len(prob._fixed) < 2 * n
            vals = prob._dirichlet_at(t)
            got = apply_dirichlet(A, b, prob._free, prob._fixed, vals)
            want = apply_dirichlet(sp.csr_matrix(expect_A), expect_b,
                                   prob._free, prob._fixed, vals)
            np.testing.assert_allclose(got[0].toarray(), want[0].toarray(),
                                       rtol=0.0,
                                       atol=1e-12 * abs(expect_A).max())
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12,
                                       atol=1e-12 * abs(expect_b).max())

    def test_step_result_meets_tolerance(self, lshape_coarse, mortar):
        # cold snap: the step needs several Picard iterates, so the
        # returned state depends on reused factors doing their job
        prob = TestStepping().make_problem(lshape_coarse, mortar)
        n = lshape_coarse.num_nodes
        state = ts.TransportState.uniform(lshape_coarse, 14.0, 0.5)
        state.rdot = prob.consistent_rates(state)
        dt, gamma, tol = 3600.0, 0.5, 1e-6
        out = prob.step(state, dt, gamma=gamma, tol=tol, relax=0.7)
        assert out.picard_iterations > 2

        sys = prob.assemble(out.theta, out.phi, out.t)
        history = state.r + dt * (1.0 - gamma) * state.rdot
        A = sys.C + gamma * dt * sys.K
        b = gamma * dt * sys.F + sys.C @ history
        mismatch = A @ out.r - b
        for block in (slice(0, n), slice(n, 2 * n)):
            rel = np.linalg.norm(mismatch[block]) / np.linalg.norm(b[block])
            assert rel < tol


class TestNewtonTerm:
    """The derivative of the latent-heat storage in the update matrix."""

    GDT = 1800.0

    def problem(self, mesh, mortar, spec01_model):
        robin = {BoundaryTag.EXT: ts.RobinBC(8.0, 5.6e-8, -4.0, 0.9)}
        return ts.TransportProblem(
            mesh, ts.KunzelCoefficients(mortar, ice_model=spec01_model),
            robin=robin)

    def state(self, mesh, low, high):
        """theta in [low, high], phi, a history and the step reference
        0.1 to 0.3 K warmer than theta."""
        n = mesh.num_nodes
        rng = np.random.default_rng(5)
        theta = rng.uniform(low, high, n)
        phi = rng.uniform(0.6, 0.9, n)
        start = theta + rng.uniform(0.1, 0.3, n)
        history = np.concatenate([start, phi])
        return theta, phi, history, mesh.element_mean(start)

    def operator(self, prob, theta, phi, history, reference, newton):
        exchange, load, rain = prob._boundary(0.0)
        return prob._step_operator(
            np.concatenate([theta, phi]), self.GDT, self.GDT * exchange,
            load, rain,
            prob._mass_history(history), np.zeros(len(theta), bool),
            reference, newton)

    def test_columns_are_the_storage_derivative(self, lshape_coarse, mortar,
                                                spec01_model):
        # centroids in the freezing band and 0.1 to 0.3 K below their step
        # start, so every chord is negative and wide of the floor
        mesh = lshape_coarse
        n = mesh.num_nodes
        prob = self.problem(mesh, mortar, spec01_model)
        theta, phi, history, theta_ref = self.state(mesh, -0.3, -0.02)
        reference = prob.coefficients.step_reference(theta_ref)
        phi_c = mesh.element_mean(phi)

        def capacity(t):
            return prob.coefficients.evaluate_step(
                mesh.element_mean(t), phi_c, reference)

        def scatter(c, t):
            """sum_e c_e M_e t_e"""
            m = prob._mass_history(np.concatenate([t, phi]))[0]
            return np.bincount(mesh.elements.ravel(),
                               (c[:, None] * m).ravel(), minlength=n)

        def storage(t):
            c = capacity(t).c_tt
            return scatter(c, t) - scatter(c, history[:n])

        cf = capacity(theta)
        assert np.all(cf.dc_tt != 0.0)
        J = self.operator(prob, theta, phi, history, reference, True)[0]
        A = self.operator(prob, theta, phi, history, reference, False)[0]
        d = np.random.default_rng(8).normal(size=n)
        got = ((J - A) @ np.concatenate([d, np.zeros(n)]))[:n]
        eps = 1e-6
        want = ((storage(theta + eps * d) - storage(theta - eps * d))
                / (2.0 * eps) - scatter(cf.c_tt, d))
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("low, high, newton", [(2.0, 8.0, True),
                                                   (-0.3, -0.02, False)])
    def test_picard_operator_without_the_term(self, lshape_coarse, mortar,
                                              spec01_model, low, high,
                                              newton):
        # above 0 degC every dc_e is 0; below it the term is not asked for
        mesh = lshape_coarse
        prob = self.problem(mesh, mortar, spec01_model)
        theta, phi, history, theta_ref = self.state(mesh, low, high)
        reference = prob.coefficients.step_reference(theta_ref)
        M, b, res = self.operator(prob, theta, phi, history, reference,
                                  newton)
        cf = prob.coefficients.evaluate_step(
            mesh.element_mean(theta), mesh.element_mean(phi), reference)
        assert np.any(cf.dc_tt) != newton
        A = prob._fill(cf, 1.0, self.GDT, self.GDT * prob._boundary(0.0)[0])
        for got, want in ((M.data, A.data), (M.indices, A.indices),
                          (M.indptr, A.indptr)):
            assert got.tobytes() == want.tobytes()
        r = np.concatenate([theta, phi])
        assert res.tobytes() == (A @ r - b).tobytes()


class TestDirichlet:
    def test_symmetric_elimination(self):
        A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                    [1.0, 3.0, 1.0],
                                    [0.0, 1.0, 2.0]]))
        b = np.array([1.0, 2.0, 3.0])
        A2, b2 = apply_dirichlet(A, b, np.array([1, 2]), np.array([0]),
                                 np.array([5.0]))
        # the free block of a symmetric matrix stays symmetric
        np.testing.assert_array_equal(A2.toarray(), [[3.0, 1.0], [1.0, 2.0]])
        # the eliminated column moved to the right-hand side
        np.testing.assert_array_equal(b2, [2.0 - 5.0, 3.0])
        x = np.concatenate([[5.0], np.linalg.solve(A2.toarray(), b2)])
        np.testing.assert_allclose(A.toarray()[1:] @ x, b[1:], rtol=1e-14)

    def test_step_pins_prescribed_values(self):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        bnd = boundary_nodes(mesh)
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(),
            dirichlet_theta=[(bnd, lambda t: 5.0 + t)],
            dirichlet_phi=[(bnd, 0.25)])
        state = ts.TransportState.uniform(mesh, 0.0, 0.25)
        state.rdot = prob.consistent_rates(state)
        out = prob.step(state, 0.5, tol=1e-10, relax=1.0)
        np.testing.assert_allclose(out.theta[bnd], 5.5, atol=1e-9)
        np.testing.assert_allclose(out.phi[bnd], 0.25, atol=1e-12)

    def test_relaxed_step_holds_prescribed_values_exactly(self):
        # the prescribed dofs leave the Picard system, so an under-relaxed
        # iteration cannot leave them short of their values
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        bnd = boundary_nodes(mesh)
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(),
            dirichlet_theta=[(bnd, lambda t: 5.0 + t * t)],
            dirichlet_phi=[(bnd, 0.25)])
        state = ts.TransportState.uniform(mesh, 5.0, 0.25)
        state.rdot = prob.consistent_rates(state)
        out = prob.step(state, 0.5, relax=0.7)
        assert out.picard_iterations > 1
        np.testing.assert_array_equal(out.theta[bnd], 5.25)
        np.testing.assert_array_equal(out.phi[bnd], 0.25)

    def test_node_in_two_groups_is_prescribed_once(self):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        bnd = boundary_nodes(mesh)
        out = []
        for groups in ([(bnd, 2.0)], [(bnd, 2.0), (bnd[:3], 2.0)]):
            prob = ts.TransportProblem(
                mesh, ts.ConstantCoefficients(), dirichlet_theta=groups,
                source_heat=lambda x, y, t: 1.0)
            state = ts.TransportState.uniform(mesh, 2.0, 0.5)
            state.rdot = prob.consistent_rates(state)
            out.append(prob.step(state, 0.5, tol=1e-12, relax=1.0).theta)
        np.testing.assert_allclose(out[1], out[0], rtol=0.0, atol=1e-12)

    def test_explicit_step_rates_keep_boundary_slope(self):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        bnd = boundary_nodes(mesh)
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(),
            dirichlet_theta=[(bnd, lambda t: 5.0 + t)])
        state = ts.TransportState.uniform(mesh, 5.0, 0.5)
        state.rdot = prob.consistent_rates(state)
        out = prob.step(state, 0.5, gamma=0.0, relax=1.0, tol=1e-12)
        np.testing.assert_allclose(out.rdot[bnd], 1.0, rtol=1e-5)

    def test_month_end_rates_divide_by_the_step_taken(self):
        # at t = 2.6784e6 s, the end of the 744 h month, t + 1e-6 lies
        # 9.9977e-7 s past t; a power-of-two slope keeps the prescribed
        # values and their differences exact
        mesh = generate_rectangle(1.0, 1.0, 3, 3)
        bnd = boundary_nodes(mesh)
        t0, dt, slope = 2.6784e6 - 3600.0, 3600.0, 2.0 ** -10
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(),
            dirichlet_theta=[(bnd, lambda t: slope * (t - t0))])
        state = ts.TransportState.uniform(mesh, 0.0, 0.5, t=t0)
        out = prob.step(state, dt, gamma=0.0, tol=1e-12)
        assert out.t == 2.6784e6
        np.testing.assert_allclose(out.rdot[bnd], slope, rtol=1e-12)

    def test_consistent_rates_solve_and_boundary_slope(self):
        mesh = generate_rectangle(1.0, 1.0, 3, 3)
        bnd = boundary_nodes(mesh)
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(),
            dirichlet_theta=[(bnd, lambda t: 2.0 + 3.0 * t)],
            source_heat=lambda x, y, t: 1.0)
        state = ts.TransportState.uniform(mesh, 2.0, 0.5)
        rdot = prob.consistent_rates(state)
        np.testing.assert_allclose(rdot[bnd], 3.0, rtol=1e-5)
        # away from the pinned rows, C rdot = F - K r
        sys = prob.assemble(state.theta, state.phi, 0.0)
        resid = sys.C @ rdot - (sys.F - sys.K @ state.r)
        free = np.setdiff1d(np.arange(2 * mesh.num_nodes), bnd)
        np.testing.assert_allclose(resid[free], 0.0, atol=1e-10)


def factors(A, split=None):
    """Band layouts of A's structure in A's own numbering, which split a
    fresh factor at ``split`` if it is given and leaves both blocks
    non-empty."""
    m = A.shape[0]
    k = m if split is None else split
    return BandFactors(A, (np.arange(k), np.arange(m - k), np.arange(m)))


def factor(A, split=None):
    """A band LU factor of A, split at ``split`` if given, in A's own
    numbering."""
    return factors(A, split).factor(A)


def picard(builder):
    """nonlinear_iterate's builder from r -> (A, b): the update matrix is
    A, with or without the Newton term, and the residual A r - b."""
    def build(r, newton):
        A, b = builder(r)
        return A, b, A @ r - b
    return build


class TestPicardIteration:
    def eye(self, n=1):
        return sp.identity(n, format="csr")

    def test_linear_system_single_solve(self):
        b = np.array([2.0, -1.0])
        result = ts.nonlinear_iterate(picard(lambda r: (self.eye(2), b)),
                                      np.zeros(2), factors(self.eye(2)),
                                      relax=1.0)
        assert result.iterations == 1
        np.testing.assert_array_equal(result.r, b)

    def test_previous_update_matrix_released_before_the_next_build(self):
        # a nonlinear diagonal system: the builder finds every matrix it
        # returned before dead when it is called again, so no update
        # matrix is held while the next is built
        b = np.ones(3)
        made = []

        def builder(r, newton):
            assert all(ref() is None for ref in made)
            A = sp.diags(2.0 + r ** 2, format="csr")
            made.append(weakref.ref(A))
            return A, b, A @ r - b

        result = ts.nonlinear_iterate(builder, np.zeros(3),
                                      factors(self.eye(3)), tol=1e-10)
        assert result.iterations == len(made) - 1 > 2
        np.testing.assert_allclose((2.0 + result.r ** 2) * result.r, b,
                                   rtol=1e-9)

    def test_converged_guess_takes_no_solve(self):
        b = np.array([2.0, -1.0])
        result = ts.nonlinear_iterate(picard(lambda r: (self.eye(2), b)),
                                      b.copy(), factors(self.eye(2)),
                                      relax=1.0)
        assert result.iterations == 0
        assert result.residuals == [0.0]

    def test_parameter_validation(self):
        builder = picard(lambda r: (self.eye(), np.ones(1)))
        layouts = factors(self.eye())
        with pytest.raises(InvalidParametersError):
            ts.nonlinear_iterate(builder, np.zeros(1), layouts, relax=0.0)
        with pytest.raises(InvalidParametersError):
            ts.nonlinear_iterate(builder, np.zeros(1), layouts, relax=1.5)
        with pytest.raises(InvalidParametersError):
            ts.nonlinear_iterate(builder, np.zeros(1), layouts, max_iter=0)
        # the caller's layouts are required: no call builds its own
        with pytest.raises(TypeError, match="factors"):
            ts.nonlinear_iterate(builder, np.zeros(1))

    def test_max_iter_exhaustion(self):
        # fixed point of r/2 + 1 is approached geometrically, so a tight
        # tolerance cannot be met in three solves
        builder = picard(lambda r: (self.eye(), 0.5 * r + 1.0))
        with pytest.raises(StepFailureError) as info:
            ts.nonlinear_iterate(builder, np.zeros(1), factors(self.eye()),
                                 tol=1e-12,
                                 max_iter=3, relax=1.0)
        assert info.value.iterations == 3
        assert info.value.residual_norm > 0.0
        assert len(info.value.residuals) == 4
        assert info.value.residuals[-1] == info.value.residual_norm

    def test_rejected_iterate_is_a_step_failure(self):
        # the builder rejects iterates above 1.5: the third update's is,
        # and the step fails with the residual history so far, to be
        # halved; a rejected first guess stays a DomainError
        def bounded(r):
            if r[0] > 1.5:
                raise DomainError(f"r = {r[0]:g} outside [0, 1.5]")
            return self.eye(), 0.5 * r + 1.0

        layouts = factors(self.eye())
        converged = ts.nonlinear_iterate(picard(
            lambda r: (self.eye(), 0.5 * r + 1.0)), np.zeros(1), layouts,
            tol=1e-12, relax=1.0).residuals
        with pytest.raises(StepFailureError,
                           match="iterate 3 outside the model's range: "
                                 "r = 1.75") as info:
            ts.nonlinear_iterate(picard(bounded), np.zeros(1), layouts,
                                 tol=1e-12, relax=1.0)
        assert isinstance(info.value.__cause__, DomainError)
        assert info.value.iterations == 3
        assert info.value.residuals == converged[:3]
        assert info.value.residual_norm == converged[2]
        with pytest.raises(DomainError, match="r = 2"):
            ts.nonlinear_iterate(picard(bounded), np.full(1, 2.0), layouts,
                                 relax=1.0)

    def test_divergence_detected(self):
        calls = {"n": 0}

        def builder(r):
            b = np.array([10.0 ** -(calls["n"] ** 2)])
            calls["n"] += 1
            return self.eye(), b

        with pytest.raises(StepFailureError, match="diverging") as info:
            ts.nonlinear_iterate(picard(builder), np.zeros(1),
                                 factors(self.eye()), relax=1.0)
        history = info.value.residuals
        assert len(history) == info.value.iterations + 1
        assert history[-1] == info.value.residual_norm > 10.0 * history[-6]

    def test_stalled_iteration_carries_residual_history(self):
        # the clamp holds every iterate at 1 while A r = b needs 2, so the
        # residual stalls at 1/2 and no iteration count meets the tolerance
        with pytest.raises(StepFailureError, match="no convergence") as info:
            ts.nonlinear_iterate(picard(lambda r: (self.eye(),
                                                   np.array([2.0]))),
                                 np.zeros(1), factors(self.eye()),
                                 max_iter=6, relax=1.0,
                                 project=lambda r: np.minimum(r, 1.0))
        assert info.value.residuals == [1.0] + [0.5] * 6
        assert info.value.iterations == 6

    def test_under_relaxation_converges_geometrically(self):
        b = np.array([4.0])
        result = ts.nonlinear_iterate(picard(lambda r: (self.eye(), b)),
                                      np.zeros(1), factors(self.eye()),
                                      relax=0.5, tol=1e-10)
        # r_k = (1 - 0.5^k) b, so the relative residual halves per solve
        assert result.r[0] == pytest.approx(4.0, rel=1e-9)
        assert result.iterations >= 10

    # y -> c + diag(LAMBDA) y + 0.02 y^2 in the scaled unknowns y = r / SCALE,
    # with its fixed point at Y_STAR: one unit-scale unknown in the first
    # block, four of scale 1e3 in the second. Plain Picard contracts at
    # 0.94 near the fixed point and needs 322 solves to reach 1e-10.
    LAMBDA = np.array([0.9, 0.9, 0.8, 0.7, 0.6])
    SCALE = np.array([1.0, 1e3, 1e3, 1e3, 1e3])
    Y_STAR = np.array([1.0, 0.3, 0.5, 0.8, 1.0])
    BLOCKS = [(0, 1), (1, 5)]

    def stagnating(self):
        c = self.Y_STAR - self.LAMBDA * self.Y_STAR - 0.02 * self.Y_STAR ** 2

        def builder(r):
            y = r / self.SCALE
            return self.eye(5), self.SCALE * (c + self.LAMBDA * y
                                              + 0.02 * y ** 2)
        return builder

    def iterate_stagnating(self, builder=None, max_iter=400, **options):
        return ts.nonlinear_iterate(picard(builder or self.stagnating()),
                                    np.zeros(5), factors(self.eye(5), 1),
                                    tol=1e-10, relax=1.0,
                                    max_iter=max_iter, blocks=self.BLOCKS,
                                    **options)

    def test_fast_iteration_keeps_plain_updates(self):
        # contraction 0.05 under omega = 0.7: the residual ratio stays near
        # 0.32 and never grows, so every update is r - omega delta
        c = np.array([1.0, -2.0, 0.5])
        seen = []

        def builder(r):
            seen.append(r.copy())
            return self.eye(3), c + 0.05 * np.sin(r)

        result = ts.nonlinear_iterate(picard(builder), np.zeros(3),
                                      factors(self.eye(3)), tol=1e-13,
                                      relax=0.7)
        assert result.iterations == len(seen) - 1 > 20
        r = np.zeros(3)
        for got in seen:
            assert got.tobytes() == r.tobytes()
            r = r - 0.7 * (r - (c + 0.05 * np.sin(r)))

    def test_second_growth_drops_the_newton_term(self):
        # the Newton matrix is A / 6, so a Newton update r - omega 6 R
        # leaves R (1 - 6 omega): -3.2 R at omega 0.7, -1.1 R at 0.35
        b = np.array([1.0])
        seen = []

        def builder(r, newton):
            seen.append(newton)
            A = self.eye()
            return (A / 6.0 if newton else A), b, A @ r - b

        def iterate(**options):
            seen.clear()
            return ts.nonlinear_iterate(builder, np.zeros(1),
                                        factors(self.eye()), tol=1e-10,
                                        relax=0.7, lu=kept, **options)

        kept = factor(self.eye() / 6.0)
        result = iterate(max_iter=100)
        res = result.residuals
        # growths at iterates 1 and 2; the second restarts omega at 0.7
        # for the update of its own, Newton matrix, and Picard at a halved
        # omega follows
        np.testing.assert_allclose(np.divide(res[1:5], res[:4]),
                                   [3.2, 1.1, 3.2, 0.65], rtol=1e-12)
        assert seen[:3] == [True] * 3 and not any(seen[3:])
        assert result.fallback
        # the kept factor is dropped and the Newton matrix factorised once;
        # GMRES on that factor solves every Picard update
        assert result.factorisations == 1 and result.lu is not kept
        assert result.r[0] == pytest.approx(1.0, abs=1e-9)

        kept = factor(self.eye() / 6.0)
        with pytest.raises(StepFailureError, match="no convergence") as info:
            iterate(max_iter=10)
        assert info.value.residuals == res[:11]
        assert seen == [True] * 3 + [False] * 8

    def test_mixed_failures_carry_residual_history(self):
        converged = self.iterate_stagnating().residuals
        with pytest.raises(StepFailureError, match="no convergence") as info:
            self.iterate_stagnating(max_iter=20)
        assert info.value.residuals == converged[:21]
        assert info.value.residual_norm == converged[20]

        # from the 15th build on, while the iteration crawls, b is pushed
        # away tenfold per build
        calls = []
        builder = self.stagnating()

        def pushed(r):
            calls.append(1)
            A, b = builder(r)
            if len(calls) >= 15:
                b = b + self.SCALE * 1e-6 * 10.0 ** (len(calls) - 15)
            return A, b

        with pytest.raises(StepFailureError, match="diverging") as info:
            self.iterate_stagnating(pushed)
        history = info.value.residuals
        assert history[:14] == converged[:14]
        assert len(history) == info.value.iterations + 1
        assert history[-1] == info.value.residual_norm > 10.0 * history[-6]


class TestFactorReuse:
    """One LU factor serves the steps of one gamma dt; convergence is
    still judged on the true system, so a lagged factor costs accuracy
    nowhere."""

    @staticmethod
    def problem(mesh):
        robin = {BoundaryTag.EXT: ts.RobinBC(2.0, 0.5, -3.0, 0.2)}
        coefficients = ts.ConstantCoefficients(k_tt=1.5, k_tp=0.2, k_pt=0.1,
                                               k_pp=0.8, c_pp=2.0)
        return ts.TransportProblem(mesh, coefficients, robin=robin)

    @staticmethod
    def initial(mesh):
        x, y = mesh.nodes.T
        return ts.TransportState(0.0, 5.0 * x - y, 0.5 + 0.1 * y * x,
                                 np.zeros(2 * mesh.num_nodes))

    def test_steps_of_one_dt_share_a_factor(self, lshape_coarse):
        prob = self.problem(lshape_coarse)
        states = [self.initial(lshape_coarse)]
        for _ in range(5):
            states.append(prob.step(states[-1], 0.5, relax=1.0))
        assert [s.factorisations for s in states[1:]] == [1, 0, 0, 0, 0]
        for before, after in zip(states, states[1:]):
            fresh = self.problem(lshape_coarse).step(before, 0.5, relax=1.0)
            np.testing.assert_array_equal(after.theta, fresh.theta)
            np.testing.assert_array_equal(after.phi, fresh.phi)

    def test_new_dt_factorises_again(self, lshape_coarse):
        prob = self.problem(lshape_coarse)
        state = self.initial(lshape_coarse)
        made = []
        for dt in (0.5, 0.25, 0.25, 0.5):
            state = prob.step(state, dt, relax=1.0)
            made.append(state.factorisations)
        assert made == [1, 1, 0, 1]

    @pytest.mark.parametrize("shift, replaced", [(1.0, False), (30.0, True)])
    def test_wrong_factor_still_reaches_tol(self, shift, replaced):
        # GMRES corrects what a mildly wrong factor misses; a badly wrong
        # one is replaced. Either way the system is solved to tol.
        n = 40
        A = sp.diags([-np.ones(n - 1), np.linspace(2.5, 4.0, n),
                      -np.ones(n - 1)], [-1, 0, 1], format="csr")
        b = np.sin(np.arange(n, dtype=float))
        wrong = factor(A + shift * sp.diags(np.cos(np.arange(n)) ** 2))
        result = ts.nonlinear_iterate(picard(lambda r: (A, b)), np.zeros(n),
                                      factors(A), relax=1.0, tol=1e-10,
                                      lu=wrong)
        assert result.residuals[-1] < 1e-10
        np.testing.assert_allclose(A @ result.r, b, atol=1e-9)
        assert result.factorisations == replaced
        assert (result.lu is wrong) != replaced

    def test_gmres_on_a_perturbed_factor(self):
        # the kept factor is of a perturbed matrix, so its answer alone
        # misses _ETA and GMRES needs more than one iteration
        n = 60
        rng = np.random.default_rng(2)
        A = sp.diags([-np.ones(n - 1), np.linspace(2.5, 4.0, n),
                      -np.ones(n - 1)], [-1, 0, 1], format="csr")
        lu = factor((A + sp.diags(rng.uniform(0.0, 4.0, n))).tocsr())
        rhs = np.sin(np.arange(n, dtype=float))
        weights = np.where(np.arange(n) < n // 2, 1.0, 50.0)
        x = ts._gmres(A, lu, rhs, weights)
        assert x is not None
        res = np.linalg.norm(weights * (rhs - A @ x))
        assert res <= ts._ETA * np.linalg.norm(weights * rhs)

        # reference: the least-squares minimiser over the first Krylov
        # space that meets _ETA, from an orthonormal basis of
        # LU^-1 W^-1 K_m(W A LU^-1 W^-1, r0)
        x0 = lu.solve(rhs)
        r0 = weights * (rhs - A @ x0)
        tol = ts._ETA * np.linalg.norm(weights * rhs)
        assert np.linalg.norm(r0) > tol
        krylov = [r0]
        for m in range(1, ts._KRYLOV_MAX + 1):
            q = np.linalg.qr(np.stack(krylov, axis=1))[0]
            Z = np.stack([lu.solve(c / weights) for c in q.T], axis=1)
            y = np.linalg.lstsq(weights[:, None] * (A @ Z), r0,
                                rcond=None)[0]
            ref = x0 + Z @ y
            if np.linalg.norm(weights * (rhs - A @ ref)) <= tol:
                break
            krylov.append(weights * (A @ lu.solve(krylov[-1] / weights)))
        assert m == 3
        np.testing.assert_allclose(x, ref, rtol=1e-12,
                                   atol=1e-12 * abs(ref).max())

    def test_failed_step_keeps_no_factor(self, lshape_coarse):
        # the step after a failed one factorises afresh, and gives bitwise
        # what a fresh problem's step gives
        prob = self.problem(lshape_coarse)
        state = prob.step(self.initial(lshape_coarse), 0.5, relax=1.0)
        with pytest.raises(StepFailureError):
            prob.step(state, 0.5, relax=1.0, tol=1e-30, max_iter=2)
        after = prob.step(state, 0.5, relax=1.0)
        assert after.factorisations == 1
        fresh = self.problem(lshape_coarse).step(state, 0.5, relax=1.0)
        assert after.r.tobytes() == fresh.r.tobytes()


class TestSplitFactor:
    """A fresh factor of a two-block system drops the lower-left block;
    the whole A is factorised only when that factor misses _ETA."""

    N = 30

    def test_moisture_block_in_symmetric_storage(self):
        # at h = 0.015 a fresh factor holds the [phi, phi] block in the 30
        # rows of dpbtrf's lower storage, not the 88 of a pivoting band LU,
        # which the [theta, theta] block keeps
        mesh = generate_lshape(1.0, 0.4, 0.015)
        prob = ts.TransportProblem(mesh, ts.ConstantCoefficients())
        state = ts.TransportState(0.0, mesh.nodes[:, 0].copy(),
                                  np.full(mesh.num_nodes, 0.5),
                                  np.zeros(2 * mesh.num_nodes))
        assert prob.step(state, 3600.0).factorisations == 1
        lu = prob._kept[1]
        assert isinstance(lu, SplitLU)
        assert isinstance(lu._lower, BandedCholesky)
        assert lu._lower._band.shape == (30, 3024)
        assert lu._upper._band.shape == (88, 3024)

    def system(self, coupling):
        """[[T, B], [coupling B^T, T]] with T tridiagonal and B random."""
        n = self.N
        rng = np.random.default_rng(3)
        T = sp.diags([-np.ones(n - 1), np.linspace(2.5, 4.0, n),
                      -np.ones(n - 1)], [-1, 0, 1])
        B = sp.random(n, n, density=0.2, random_state=rng)
        A = sp.bmat([[T, B], [coupling * B.T, T]], format="csr")
        return A, rng.normal(size=2 * n)

    def iterate(self, A, b, split):
        """Picard on A r = b with layouts split at ``split`` and the
        residual scaled per block on either side of it."""
        blocks = None if split is None else [(0, split), (split, len(b))]
        return ts.nonlinear_iterate(picard(lambda r: (A, b)),
                                    np.zeros(len(b)), factors(A, split),
                                    relax=1.0, tol=1e-10, blocks=blocks)

    def test_zero_lower_left_block_converges_in_one_solve(self,
                                                          monkeypatch):
        solves = []
        solve = ts.solve_sparse

        def counting(lu, rhs):
            solves.append(lu)
            return solve(lu, rhs)

        monkeypatch.setattr(ts, "solve_sparse", counting)
        A, b = self.system(0.0)
        result = self.iterate(A, b, self.N)
        assert result.iterations == 1
        assert len(solves) == 1
        assert isinstance(result.lu, SplitLU)
        assert result.factorisations == 1
        np.testing.assert_allclose(A @ result.r, b, rtol=0.0, atol=1e-12)

    def test_strong_coupling_falls_back_to_the_whole_factor(self):
        A, b = self.system(1.0)
        # the split factor's answer and its GMRES correction miss _ETA
        weights = np.ones(2 * self.N)
        assert ts._gmres(A, factor(A, self.N), b, weights) is None
        result = self.iterate(A, b, self.N)
        assert isinstance(result.lu, BandLU)
        assert result.factorisations == 2
        assert result.residuals[-1] < 1e-10
        np.testing.assert_allclose(A @ result.r, b, atol=1e-9)

    def test_weak_coupling_keeps_the_split_factor(self):
        A, b = self.system(0.1)
        result = self.iterate(A, b, self.N)
        assert isinstance(result.lu, SplitLU)
        assert result.factorisations == 1
        np.testing.assert_allclose(A @ result.r, b, atol=1e-9)

    @pytest.mark.parametrize("split", [None, 0, 60])
    def test_one_non_empty_block_uses_the_whole_factor(self, split):
        A, b = self.system(0.1)
        result = self.iterate(A, b, split)
        assert isinstance(result.lu, BandLU)
        assert result.factorisations == 1
        assert result.iterations == 1
        np.testing.assert_allclose(A @ result.r, b, atol=1e-12)


# manufactured solution: theta_t = div grad theta + s on the unit square,
# theta = 0 on the boundary, s chosen so theta = sin(pi x) sin(pi y) exp(-t)
MMS_T_END = 0.4


def mms_exact(mesh, t):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return np.sin(np.pi * x) * np.sin(np.pi * y) * math.exp(-t)


def mms_source(x, y, t):
    return ((2.0 * np.pi ** 2 - 1.0) * np.sin(np.pi * x)
            * np.sin(np.pi * y) * np.exp(-t))


def mms_run(mesh, dt, t_end, gamma):
    bnd = boundary_nodes(mesh)
    prob = ts.TransportProblem(
        mesh, ts.ConstantCoefficients(),
        dirichlet_theta=[(bnd, 0.0)],
        dirichlet_phi=[(bnd, 0.0)],
        source_heat=mms_source)
    n = mesh.num_nodes
    state = ts.TransportState(0.0, mms_exact(mesh, 0.0), np.zeros(n),
                              np.zeros(2 * n))
    state.rdot = prob.consistent_rates(state)
    for _ in range(round(t_end / dt)):
        state = prob.step(state, dt, gamma=gamma, tol=1e-12, relax=1.0)
    assert state.t == pytest.approx(t_end)
    return state, prob


def mms_errors(mesh, gamma, reference, ks):
    out = []
    for k in ks:
        theta = mms_run(mesh, MMS_T_END / k, MMS_T_END, gamma)[0].theta
        out.append(np.linalg.norm(theta - reference) / math.sqrt(len(theta)))
    return np.array(out)


@pytest.fixture(scope="module")
def mesh12():
    return generate_rectangle(1.0, 1.0, 12, 12)


@pytest.fixture(scope="module")
def mms_reference(mesh12):
    return mms_run(mesh12, MMS_T_END / 512, MMS_T_END, 0.5)[0].theta


class TestManufacturedSolution:
    def test_temporal_order_two_trapezoidal(self, mesh12, mms_reference):
        errs = mms_errors(mesh12, 0.5, mms_reference, (8, 16, 32, 64))
        assert np.all(np.diff(errs) < 0.0)
        # error components cancel in the transition region, so judge the
        # asymptotic order on the finest pair
        order = math.log2(errs[-2] / errs[-1])
        assert 1.9 < order < 2.3
        assert errs[-1] < 2e-7

    def test_temporal_order_one_implicit_euler(self, mesh12, mms_reference):
        errs = mms_errors(mesh12, 1.0, mms_reference, (8, 16, 32, 64))
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(orders > 0.9)
        assert np.all(orders < 1.15)
        # the trapezoidal run at the same step count is far more accurate
        assert errs[-1] > 100.0 * 2e-7

    def test_spatial_order_two(self):
        t_end = 0.1
        errs = []
        for cells in (8, 16, 32):
            mesh = generate_rectangle(1.0, 1.0, cells, cells)
            state, prob = mms_run(mesh, t_end / 32, t_end, 0.5)
            e = state.theta - mms_exact(mesh, t_end)
            M = prob.assemble(state.theta, state.phi,
                              state.t).block("C", "tt")
            errs.append(math.sqrt(e @ (M @ e)))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(orders > 1.8)


class TestConservation:
    def test_zero_flux_moisture_mass_constant(self):
        mesh = generate_rectangle(1.0, 1.0, 8, 8)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        prob = ts.TransportProblem(mesh, ts.ConstantCoefficients())
        state = ts.TransportState(
            0.0, np.full(mesh.num_nodes, 1.0),
            0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y),
            np.zeros(2 * mesh.num_nodes))
        state.rdot = prob.consistent_rates(state)
        M = prob.assemble(state.theta, state.phi, 0.0).block("C", "pp")
        ones = np.ones(mesh.num_nodes)
        mass0 = ones @ (M @ state.phi)
        for _ in range(100):
            state = prob.step(state, 0.05, tol=1e-12, relax=1.0)
        mass = ones @ (M @ state.phi)
        assert mass == pytest.approx(mass0, rel=1e-10)
        # and the field has actually moved
        assert np.std(state.phi) < 0.9 * 0.3 / math.sqrt(2.0)


class TestMaximumPrinciple:
    def test_lumped_implicit_euler_stays_in_envelope(self):
        mesh = generate_rectangle(1.0, 1.0, 10, 10)
        rng = np.random.default_rng(42)
        theta0 = rng.uniform(0.0, 1.0, mesh.num_nodes)
        prob = ts.TransportProblem(mesh, ts.ConstantCoefficients(),
                                   lumped_capacity=True)
        state = ts.TransportState(0.0, theta0.copy(),
                                  np.full(mesh.num_nodes, 0.5),
                                  np.zeros(2 * mesh.num_nodes))
        lo, hi = theta0.min(), theta0.max()
        for _ in range(10):
            state = prob.step(state, 0.5, gamma=1.0, tol=1e-12, relax=1.0)
            assert state.theta.min() >= lo - 1e-12
            assert state.theta.max() <= hi + 1e-12


class TestStepping:
    def make_problem(self, mesh, mortar, theta_ext=-10.0, phi_ext=0.9):
        robin = {
            BoundaryTag.EXT: ts.RobinBC(8.0, 5.6e-8, theta_ext, phi_ext),
            BoundaryTag.INT: ts.RobinBC(8.0, 5.6e-8, 24.0, 0.6),
        }
        return ts.TransportProblem(mesh, ts.KunzelCoefficients(mortar),
                                   robin=robin)

    def test_equilibrium_is_a_fixed_point(self, lshape_coarse, mortar):
        prob = self.make_problem(lshape_coarse, mortar, theta_ext=14.0,
                                 phi_ext=0.5)
        prob.robin[BoundaryTag.INT] = ts.RobinBC(8.0, 5.6e-8, 14.0, 0.5)
        state = ts.TransportState.uniform(lshape_coarse, 14.0, 0.5)
        out = prob.step(state, 3600.0)
        assert out.picard_iterations == 0
        np.testing.assert_array_equal(out.theta, state.theta)
        np.testing.assert_array_equal(out.phi, state.phi)

    def test_cold_snap_step_converges(self, lshape_coarse, mortar):
        prob = self.make_problem(lshape_coarse, mortar)
        state = ts.TransportState.uniform(lshape_coarse, 14.0, 0.5)
        state.rdot = prob.consistent_rates(state)
        out = prob.step(state, 3600.0)
        assert 0 < out.picard_iterations <= 25
        assert np.all(out.theta > -10.5) and np.all(out.theta < 24.5)
        assert np.all(out.phi >= 0.0) and np.all(out.phi <= 1.0)
        # surface cools toward the ambient, the interior lags
        surface = boundary_nodes(lshape_coarse)
        assert out.theta[surface].min() < 13.0
        assert out.theta.max() > 13.9

    def test_step_argument_validation(self, lshape_coarse, mortar):
        prob = self.make_problem(lshape_coarse, mortar)
        state = ts.TransportState.uniform(lshape_coarse, 14.0, 0.5)
        with pytest.raises(InvalidParametersError):
            prob.step(state, -1.0)
        with pytest.raises(InvalidParametersError):
            prob.step(state, 3600.0, gamma=1.5)

    def test_step_clips_phi_to_the_coefficient_range(self, unit_triangle):
        class Ranged(ts.ConstantCoefficients):
            phi_range = (0.0, 0.3)

        # the source raises phi from 0.3 by 1e-4 in the one-second step;
        # clamped at 0.3, the residual is 3e-4 of the moisture load, within
        # the tolerance of 1e-3
        phi = {}
        for coefficients in (ts.ConstantCoefficients(), Ranged()):
            prob = ts.TransportProblem(unit_triangle, coefficients,
                                       source_moist=lambda x, y, t: 1e-4)
            state = ts.TransportState.uniform(unit_triangle, 1.0, 0.3)
            state.rdot = prob.consistent_rates(state)
            phi[type(coefficients)] = prob.step(state, 1.0, tol=1e-3).phi
        np.testing.assert_allclose(phi[ts.ConstantCoefficients], 0.3001,
                                   rtol=1e-12)
        np.testing.assert_array_equal(phi[Ranged], 0.3)

    def test_failed_step_reports_residual(self, lshape_coarse, mortar):
        prob = self.make_problem(lshape_coarse, mortar)
        state = ts.TransportState.uniform(lshape_coarse, 14.0, 0.5)
        with pytest.raises(StepFailureError) as info:
            prob.step(state, 3600.0, max_iter=2, relax=0.7)
        assert info.value.residual_norm is not None
        assert info.value.residual_norm > 0.0


class FussyProblem(ts.TransportProblem):
    """Test double that rejects steps larger than dt_limit."""

    def __init__(self, *args, dt_limit, **kwargs):
        super().__init__(*args, **kwargs)
        self.dt_limit = dt_limit
        self.attempts = []

    def step(self, state, dt, **kwargs):
        self.attempts.append(dt)
        if dt > self.dt_limit:
            raise StepFailureError("synthetic refusal", residual_norm=1.0,
                                   iterations=0)
        return super().step(state, dt, **kwargs)


class TestAdaptiveAdvance:
    def make(self, mesh, dt_limit):
        return FussyProblem(mesh, ts.ConstantCoefficients(),
                            dt_limit=dt_limit)

    def initial(self, mesh):
        n = mesh.num_nodes
        return ts.TransportState(0.0, np.array([1.0, 2.0, 3.0]),
                                 np.zeros(n), np.zeros(2 * n))

    def test_halving_sequence(self, unit_triangle):
        prob = self.make(unit_triangle, 0.3)
        out = prob.advance(self.initial(unit_triangle), 1.0, relax=1.0)
        assert prob.attempts == [1.0, 0.5, 0.25, 0.25, 0.5, 0.25, 0.25]
        assert out.t == pytest.approx(1.0)
        # one solve per linear quarter step, summed over all four, and one
        # factor that all four share
        assert out.picard_iterations == 4
        assert out.factorisations == 1
        assert out.halvings == 3

        # the salvaged result equals four plain quarter steps
        plain = ts.TransportProblem(unit_triangle, ts.ConstantCoefficients())
        state = self.initial(unit_triangle)
        for _ in range(4):
            state = plain.step(state, 0.25, relax=1.0)
        np.testing.assert_array_equal(out.theta, state.theta)

    def test_gives_up_after_max_halvings(self, unit_triangle):
        prob = self.make(unit_triangle, 0.01)
        with pytest.raises(StepFailureError):
            prob.advance(self.initial(unit_triangle), 1.0, max_halvings=4)
        assert min(prob.attempts) == pytest.approx(1.0 / 16.0)

    def test_rejected_iterate_is_halved(self, unit_triangle):
        # a long trapezoidal step toward a cold-side ambient overshoots it:
        # its first iterate leaves the model's theta range, which the
        # halves do not
        class Ranged(ts.ConstantCoefficients):
            theta_range = (-math.inf, 13.0)

        def problem():
            return ts.TransportProblem(
                unit_triangle, Ranged(k_tt=0.0), lumped_capacity=True,
                robin={BoundaryTag.EXT: ts.RobinBC(1.0, 0.0, 10.0, 0.5)})

        prob = problem()
        state = ts.TransportState.uniform(unit_triangle, 0.0, 0.5)
        state.rdot = prob.consistent_rates(state)
        with pytest.raises(StepFailureError,
                           match="iterate 1 outside the model's range: "
                                 "element 0: centroid theta") as info:
            prob.step(state, 1.0, relax=1.0)
        assert isinstance(info.value.__cause__, DomainError)
        assert len(info.value.residuals) == info.value.iterations == 1
        out = prob.advance(state, 1.0, relax=1.0)
        assert out.halvings == 1 and out.t == 1.0
        assert out.theta.mean() < 13.0
        # bitwise two plain half steps
        plain = problem()
        half = plain.step(plain.step(state, 0.5, relax=1.0), 0.5, relax=1.0)
        assert out.r.tobytes() == half.r.tobytes()

    def test_zero_halvings_reraises(self, unit_triangle):
        prob = self.make(unit_triangle, 0.3)
        with pytest.raises(StepFailureError):
            prob.advance(self.initial(unit_triangle), 1.0, max_halvings=0)
        assert prob.attempts == [1.0]
