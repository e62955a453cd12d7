import math

import numpy as np
import pytest
import scipy.sparse as sp

from frostsim import _linalg
from frostsim import mechanics as mech
from frostsim import transport_solver as ts
from frostsim.errors import InvalidParametersError
from frostsim.mesh import BoundaryTag, generate_lshape, generate_rectangle


class TestBiot:
    def test_reference_values(self):
        assert mech.biot_coefficient(0.0) == 0.0
        assert mech.biot_coefficient(1.0) == 1.0
        assert mech.biot_coefficient(0.35) == pytest.approx(14.0 / 27.0,
                                                            rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            mech.biot_coefficient(-0.01)
        with pytest.raises(InvalidParametersError):
            mech.biot_coefficient(1.01)


class TestElasticStiffness:
    def test_reference_matrix(self):
        D = mech.elastic_stiffness(1e10, 0.2)
        c = 1e10 / (1.2 * 0.6)
        np.testing.assert_allclose(D, c * np.array([[0.8, 0.2, 0.0],
                                                    [0.2, 0.8, 0.0],
                                                    [0.0, 0.0, 0.3]]),
                                   rtol=1e-14)
        # shear entry is the shear modulus E / (2 (1 + nu))
        assert D[2, 2] == pytest.approx(1e10 / 2.4, rel=1e-14)

    def test_zero_poisson(self):
        D = mech.elastic_stiffness(2.0, 0.0)
        np.testing.assert_allclose(D, np.diag([2.0, 2.0, 1.0]), atol=1e-15)
        assert D[0, 1] == 0.0

    def test_positive_definite_across_admissible_range(self):
        for nu in (-0.9, -0.3, 0.0, 0.3, 0.49):
            D = mech.elastic_stiffness(1.0, nu)
            np.testing.assert_allclose(D, D.T)
            assert np.all(np.linalg.eigvalsh(D) > 0.0)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            mech.elastic_stiffness(0.0, 0.2)
        with pytest.raises(InvalidParametersError):
            mech.elastic_stiffness(1e10, 0.5)
        with pytest.raises(InvalidParametersError):
            mech.elastic_stiffness(1e10, -1.0)


class TestEquivalentStrain:
    def test_uniaxial_tension(self):
        assert mech.mazars_equivalent_strain([1e-3, 0.0, 0.0]) \
            == pytest.approx(1e-3, rel=1e-14)

    def test_biaxial_tension(self):
        assert mech.mazars_equivalent_strain([1e-3, 1e-3, 0.0]) \
            == pytest.approx(math.sqrt(2.0) * 1e-3, rel=1e-14)

    def test_compression_is_inert(self):
        assert mech.mazars_equivalent_strain([-1e-3, -2e-3, 0.0]) == 0.0

    def test_pure_shear(self):
        # engineering shear gamma splits into principals +/- gamma / 2
        assert mech.mazars_equivalent_strain([0.0, 0.0, 2e-3]) \
            == pytest.approx(1e-3, rel=1e-14)

    def test_mixed_state_drops_compressive_principal(self):
        assert mech.mazars_equivalent_strain([1e-3, -1e-3, 0.0]) \
            == pytest.approx(1e-3, rel=1e-14)

    def test_positive_homogeneity(self):
        eps = np.array([3e-4, -1e-4, 5e-4])
        one = mech.mazars_equivalent_strain(eps)
        two = mech.mazars_equivalent_strain(2.0 * eps)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_batched_shape(self):
        batch = np.zeros((4, 7, 3))
        batch[..., 0] = 1e-3
        out = mech.mazars_equivalent_strain(batch)
        assert out.shape == (4, 7)
        np.testing.assert_allclose(out, 1e-3, rtol=1e-14)


class TestDamageFunction:
    def test_endpoints_and_midpoint(self):
        assert mech.damage_function(2.5e-4, 2.5e-4, 2.5e-3) == 0.0
        assert mech.damage_function(2.5e-3, 2.5e-4, 2.5e-3) == 1.0
        mid = 0.5 * (2.5e-4 + 2.5e-3)
        assert mech.damage_function(mid, 2.5e-4, 2.5e-3) \
            == pytest.approx(0.5, rel=1e-14)

    def test_clamped_outside(self):
        assert mech.damage_function(0.0, 2.5e-4, 2.5e-3) == 0.0
        assert mech.damage_function(1.0, 2.5e-4, 2.5e-3) == 1.0

    def test_monotone(self):
        kappa = np.linspace(0.0, 5e-3, 200)
        d = mech.damage_function(kappa, 2.5e-4, 2.5e-3)
        assert np.all(np.diff(d) >= 0.0)
        assert isinstance(mech.damage_function(1e-3, 2.5e-4, 2.5e-3), float)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            mech.damage_function(0.0, 2.5e-3, 2.5e-4)
        with pytest.raises(InvalidParametersError):
            mech.damage_function(0.0, 0.0, 2.5e-3)


class TestNonlocalAverager:
    def test_constant_field_is_fixed_point(self, lshape_coarse):
        avg = mech.NonlocalAverager(lshape_coarse, 0.07)
        field = np.full(lshape_coarse.num_elements, 3.7)
        np.testing.assert_allclose(avg(field), 3.7, rtol=1e-12)

    def test_rows_sum_to_one(self, lshape_coarse):
        avg = mech.NonlocalAverager(lshape_coarse, 0.15)
        sums = np.asarray(avg.weights.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, rtol=1e-12)

    def test_short_length_is_identity(self, lshape_coarse):
        avg = mech.NonlocalAverager(lshape_coarse, 1e-9)
        rng = np.random.default_rng(7)
        field = rng.normal(size=lshape_coarse.num_elements)
        assert avg.num_pairs == 0
        np.testing.assert_array_equal(avg(field), field)

    def test_two_element_closed_form(self):
        mesh = generate_rectangle(1.0, 1.0, 1, 1)
        assert mesh.num_elements == 2
        length = 0.25
        d2 = np.sum((mesh.centroids[0] - mesh.centroids[1]) ** 2)
        assert math.sqrt(d2) < 3.0 * length
        w = math.exp(-d2 / (2.0 * length ** 2))
        a0, a1 = mesh.areas
        v = np.array([1.0, 4.0])
        expect = np.array([
            (a0 * v[0] + w * a1 * v[1]) / (a0 + w * a1),
            (w * a0 * v[0] + a1 * v[1]) / (w * a0 + a1),
        ])
        got = mech.NonlocalAverager(mesh, length)(v)
        np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_smoothing_contracts_range(self, lshape_coarse):
        rng = np.random.default_rng(3)
        field = rng.uniform(0.0, 1.0, lshape_coarse.num_elements)
        out = mech.NonlocalAverager(lshape_coarse, 0.2)(field)
        assert out.min() > field.min()
        assert out.max() < field.max()
        assert np.ptp(out) < 0.8 * np.ptp(field)

    def test_validation(self, lshape_coarse):
        with pytest.raises(InvalidParametersError):
            mech.NonlocalAverager(lshape_coarse, 0.0)


def brute_pairs(points, radius):
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return np.argwhere(np.triu(d2 <= radius ** 2, k=1))


def kdtree_weights(mesh, length):
    """The averaging weights as built from a k-d tree pair query."""
    from scipy.spatial import cKDTree

    e = mesh.num_elements
    c, a = mesh.centroids, mesh.areas
    pairs = cKDTree(c).query_pairs(3.0 * length, output_type="ndarray")
    w = np.exp(-np.sum((c[pairs[:, 0]] - c[pairs[:, 1]]) ** 2, axis=1)
               / (2.0 * length ** 2))
    W = sp.coo_matrix((np.concatenate([w * a[pairs[:, 1]],
                                       w * a[pairs[:, 0]], a]),
                       (np.concatenate([pairs[:, 0], pairs[:, 1],
                                        np.arange(e)]),
                        np.concatenate([pairs[:, 1], pairs[:, 0],
                                        np.arange(e)]))),
                      shape=(e, e)).tocsr()
    W.data /= np.repeat(np.asarray(W.sum(axis=1)).ravel(), np.diff(W.indptr))
    return W


class TestNeighbourPairs:
    @pytest.mark.parametrize("radius", [1e-3, 0.03, 0.1, 0.4, 3.0])
    def test_random_points_match_brute_force(self, radius):
        points = np.random.default_rng(11).uniform([-0.3, 2.0], [0.7, 2.5],
                                                   size=(400, 2))
        np.testing.assert_array_equal(mech.neighbour_pairs(points, radius),
                                      brute_pairs(points, radius))

    @pytest.mark.parametrize("length", [0.01, 0.03])
    def test_reference_mesh_with_raised_length(self, length):
        centroids = generate_lshape(1.0, 0.4, 0.03).centroids
        got = mech.neighbour_pairs(centroids, 3.0 * length)
        assert len(got) > 0
        np.testing.assert_array_equal(got, brute_pairs(centroids,
                                                       3.0 * length))

    @pytest.mark.parametrize("h", [0.03, 0.015])
    def test_no_pairs_on_benchmark_meshes(self, h):
        # with the default l_intl the nonlocal average is the identity on
        # the reference (h = 0.03) and the fine (h = 0.015) mesh
        centroids = generate_lshape(1.0, 0.4, h).centroids
        pairs = mech.neighbour_pairs(centroids, 3.0 * mech.MechParams().l_intl)
        assert len(pairs) == 0

    @pytest.mark.parametrize("h, length", [(0.03, None), (0.015, None),
                                           (0.03, 0.01), (0.1, 0.07)])
    def test_weights_match_kdtree_query(self, h, length):
        mesh = generate_lshape(1.0, 0.4, h)
        length = length or mech.MechParams().l_intl
        got = mech.NonlocalAverager(mesh, length).weights.tocsr()
        want = kdtree_weights(mesh, length).tocsr()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))


class TestMechParams:
    def test_derived_quantities(self):
        p = mech.MechParams()
        assert p.eps_0 == pytest.approx(2.5e-4, rel=1e-14)
        assert p.biot == pytest.approx(14.0 / 27.0, rel=1e-14)

    def test_infinite_strength_allowed(self):
        p = mech.MechParams(f_t=math.inf)
        assert not np.isfinite(p.eps_0)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            mech.MechParams(E=-1.0)
        with pytest.raises(InvalidParametersError):
            mech.MechParams(f_t=0.0)
        with pytest.raises(InvalidParametersError):
            mech.MechParams(f_t=5e7)        # eps_0 would pass eps_f
        with pytest.raises(InvalidParametersError):
            mech.MechParams(residual_stiffness=0.0)
        with pytest.raises(InvalidParametersError):
            mech.MechParams(l_intl=0.0)


class TestProblemSetup:
    def test_supports_come_from_edge_tags(self, lshape_coarse):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        a_nodes = lshape_coarse.nodes_with_tag(BoundaryTag.A)
        b_nodes = lshape_coarse.nodes_with_tag(BoundaryTag.B)
        expect = set(2 * a_nodes) | set(2 * b_nodes + 1)
        assert set(prob.constraint_dofs.tolist()) == expect
        assert np.all(prob.constraint_values == 0.0)

    def test_rejects_underconstrained_supports(self, unit_triangle):
        with pytest.raises(InvalidParametersError, match="3 constrained"):
            mech.MechanicsProblem(unit_triangle, mech.MechParams(),
                                  constraints=(np.array([0, 1]),
                                               np.zeros(2)))

    @pytest.mark.parametrize("held", ["x", "y", "pin_and_roller"])
    def test_rejects_a_free_rigid_body_mode(self, lshape_coarse, held):
        # only face A's u_x leaves the y translation free; only face B's
        # u_y the x translation; a pinned node of face A with u_y held at
        # a second node of that face, which lies on the same vertical
        # line, the rotation about the pin
        mesh = lshape_coarse
        a_nodes = mesh.nodes_with_tag(BoundaryTag.A)
        assert np.ptp(mesh.nodes[a_nodes, 0]) == 0.0
        dofs = {"x": 2 * a_nodes,
                "y": 2 * mesh.nodes_with_tag(BoundaryTag.B) + 1,
                "pin_and_roller": np.array([2 * a_nodes[0], 2 * a_nodes[0] + 1,
                                            2 * a_nodes[1] + 1])}
        assert len(dofs[held]) >= 3
        with pytest.raises(InvalidParametersError, match="2 of the 3 rigid"):
            mech.MechanicsProblem(mesh, mech.MechParams(),
                                  constraints=(dofs[held],
                                               np.zeros(len(dofs[held]))))

    @pytest.mark.parametrize("h, half_bandwidth",
                             [(0.1, 13), (0.03, 31), (0.015, 59)])
    def test_free_dofs_in_bandwidth_order(self, h, half_bandwidth):
        # the thin wall section gives the reduced stiffness a band of a few
        # dofs across the wall in the reverse Cuthill-McKee order
        mesh = generate_lshape(1.0, 0.4, h)
        prob = mech.MechanicsProblem(mesh, mech.MechParams())
        np.testing.assert_array_equal(
            np.sort(prob._free),
            np.setdiff1d(np.arange(2 * mesh.num_nodes), prob.constraint_dofs))
        A, _ = mech.apply_dirichlet(prob._pattern.matrix(
            np.ones(mesh.num_elements)), np.zeros(2 * mesh.num_nodes),
            prob._free, prob.constraint_dofs, prob.constraint_values)
        A = A.tocoo()
        assert np.abs(A.row - A.col).max() == half_bandwidth
        assert prob._layout.shape == (half_bandwidth + 1, len(prob._free))

    def test_one_bandwidth_order_per_mesh(self, monkeypatch):
        # transport and mechanics set up from the mesh's one node graph
        calls = []
        order = _linalg.bandwidth_order
        monkeypatch.setattr(_linalg, "bandwidth_order",
                            lambda *args: calls.append(1) or order(*args))
        mesh = generate_lshape(1.0, 0.4, 0.1)
        ts.TransportProblem(mesh, ts.ConstantCoefficients())
        mech.MechanicsProblem(mesh, mech.MechParams())
        ts.TransportProblem(mesh, ts.ConstantCoefficients())
        assert len(calls) == 1
        mech.MechanicsProblem(generate_lshape(1.0, 0.4, 0.1),
                              mech.MechParams())
        assert len(calls) == 2

    def test_free_dofs_follow_the_transport_order(self, lshape_coarse):
        # the transport's whole-matrix order puts each node's theta and phi
        # side by side; read as u_x and u_y and without the constrained
        # dofs, it is the mechanics order of the free dofs
        mesh = lshape_coarse
        n = mesh.num_nodes
        whole = ts.TransportProblem(
            mesh, ts.ConstantCoefficients())._factors._orders[2]
        prob = mech.MechanicsProblem(mesh, mech.MechParams())
        dofs = 2 * (whole % n) + whole // n
        np.testing.assert_array_equal(
            prob._free, dofs[~np.isin(dofs, prob.constraint_dofs)])

    def test_dof_listed_twice_is_constrained_once(self):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        bnd = mesh.nodes_with_tag(BoundaryTag.EXT)
        dofs = np.concatenate([2 * bnd, 2 * bnd + 1])
        vals = np.concatenate([1e-4 * mesh.nodes[bnd, 0],
                               -5e-5 * mesh.nodes[bnd, 1]])
        once = mech.MechanicsProblem(mesh, mech.MechParams(),
                                     constraints=(dofs, vals)).solve()
        twice = mech.MechanicsProblem(
            mesh, mech.MechParams(),
            constraints=(np.tile(dofs, 2), np.tile(vals, 2))).solve()
        np.testing.assert_allclose(twice.u, once.u, rtol=0.0, atol=1e-16)

    def test_mesh_without_support_tags_rejected(self):
        mesh = generate_rectangle(1.0, 1.0, 2, 2)   # everything tagged EXT
        with pytest.raises(InvalidParametersError):
            mech.MechanicsProblem(mesh, mech.MechParams())

    def test_element_matrices_hand_assembled(self, unit_triangle):
        prob = mech.MechanicsProblem(unit_triangle, mech.MechParams(),
                                     constraints=(np.array([0, 1, 3]),
                                                  np.zeros(3)))
        gx = np.array([-1.0, 1.0, 0.0])
        gy = np.array([-1.0, 0.0, 1.0])
        B = np.zeros((3, 6))
        B[0, 0::2] = gx
        B[1, 1::2] = gy
        B[2, 0::2] = gy
        B[2, 1::2] = gx
        np.testing.assert_allclose(prob.B[0], B, atol=1e-15)
        D = mech.elastic_stiffness(1e10, 0.2)
        np.testing.assert_allclose(prob.KE[0], 0.5 * B.T @ D @ B, rtol=1e-13)

    def test_stiffness_map_matches_hand_scatter(self, lshape_coarse):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        factor = np.random.default_rng(5).uniform(
            1e-6, 1.0, lshape_coarse.num_elements)
        size = 2 * lshape_coarse.num_nodes
        expect = np.zeros((size, size))
        for e, dofs in enumerate(prob.dofs):
            expect[np.ix_(dofs, dofs)] += factor[e] * prob.KE[e]
        K = prob._pattern.matrix(factor)
        assert K.has_canonical_format
        np.testing.assert_allclose(K.toarray(), expect, rtol=0.0,
                                   atol=1e-13 * abs(expect).max())
        # the map's weights are KE itself, not a copy of it
        assert np.shares_memory(prob._pattern._scatter.data, prob.KE)

    def test_strain_recovery_from_linear_displacement(self, lshape_coarse):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        a, b, c = 3e-4, -2e-4, 5e-4
        u = np.zeros(2 * lshape_coarse.num_nodes)
        x, y = lshape_coarse.nodes[:, 0], lshape_coarse.nodes[:, 1]
        u[0::2] = a * x + c * y
        u[1::2] = b * y
        eps = prob.strains(u)
        np.testing.assert_allclose(eps[:, 0], a, rtol=1e-12)
        np.testing.assert_allclose(eps[:, 1], b, rtol=1e-12)
        np.testing.assert_allclose(eps[:, 2], c, rtol=1e-12)


class TestEquilibrium:
    @pytest.fixture()
    def rigid(self):
        # damage disabled: the responses below stay linear
        return mech.MechParams(f_t=math.inf)

    def test_free_thermal_expansion_is_stress_free(self, lshape_coarse,
                                                   rigid):
        prob = mech.MechanicsProblem(lshape_coarse, rigid)
        d_theta = 10.0
        theta = np.full(lshape_coarse.num_nodes, 14.0 + d_theta)
        state = prob.solve(theta=theta, theta_ref=14.0)
        assert state.converged

        g = rigid.alpha * d_theta
        x, y = lshape_coarse.nodes[:, 0], lshape_coarse.nodes[:, 1]
        exact = np.zeros_like(state.u)
        exact[0::2] = g * (x - 1.0)
        exact[1::2] = g * (y - 1.0)
        np.testing.assert_allclose(state.u, exact, atol=1e-12 * g)

        # the strain is the free thermal strain: the stress, E times the
        # difference, is below 1e-3 Pa against E alpha dT ~ 1e6
        np.testing.assert_allclose(prob.strains(state.u) - [g, g, 0.0], 0.0,
                                   atol=1e-3 / rigid.E)

    def test_cooling_contraction_never_damages(self, lshape_coarse):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        theta = np.full(lshape_coarse.num_nodes, -20.0)
        state = prob.solve(theta=theta, theta_ref=14.0)
        assert state.converged
        np.testing.assert_array_equal(state.d_w, 0.0)
        np.testing.assert_array_equal(state.kappa, 0.0)

    def test_uniform_pore_pressure_closed_form(self, lshape_coarse, rigid):
        prob = mech.MechanicsProblem(lshape_coarse, rigid)
        p = 1e6
        p_p = np.full(lshape_coarse.num_elements, p)
        state = prob.solve(p_p=p_p)
        assert state.converged and state.iterations == 1

        # b p i is an eigenload: eps = b p / c * {1, 1, 0} with the
        # plane strain modulus c = E / ((1 + nu)(1 - 2 nu))
        c = rigid.E / ((1.0 + rigid.nu) * (1.0 - 2.0 * rigid.nu))
        g = rigid.biot * p / c
        eps = prob.strains(state.u)
        np.testing.assert_allclose(eps[:, :2], g, rtol=1e-9)
        np.testing.assert_allclose(eps[:, 2], 0.0, atol=1e-12 * g)
        x, y = lshape_coarse.nodes[:, 0], lshape_coarse.nodes[:, 1]
        exact = np.zeros_like(state.u)
        exact[0::2] = g * (x - 1.0)
        exact[1::2] = g * (y - 1.0)
        np.testing.assert_allclose(state.u, exact, atol=1e-10 * g)

    def test_linearity_without_damage(self, lshape_coarse, rigid):
        prob = mech.MechanicsProblem(lshape_coarse, rigid)
        p_p = np.full(lshape_coarse.num_elements, 2e6)
        theta = np.full(lshape_coarse.num_nodes, 20.0)
        u_p = prob.solve(p_p=p_p).u
        u_t = prob.solve(theta=theta, theta_ref=14.0).u
        u_both = prob.solve(theta=theta, theta_ref=14.0, p_p=p_p).u
        np.testing.assert_allclose(u_both, u_p + u_t, rtol=1e-11)
        u_2p = prob.solve(p_p=2.0 * p_p).u
        np.testing.assert_allclose(u_2p, 2.0 * u_p, rtol=1e-11)

    def test_damage_fixed_point_on_uniform_load(self, lshape_coarse):
        params = mech.MechParams()
        prob = mech.MechanicsProblem(lshape_coarse, params)
        p = 6e6
        state = prob.solve(p_p=np.full(lshape_coarse.num_elements, p))
        assert state.converged
        assert np.all(state.d_w > 0.0)
        # uniform response: f c eps = b p with f = 1 - d, so d solves
        # delta d^2 - (delta - eps_0) d + (A - eps_0) = 0,
        # A = sqrt(2) b p / c
        c = params.E / ((1.0 + params.nu) * (1.0 - 2.0 * params.nu))
        A = math.sqrt(2.0) * params.biot * p / c
        delta = params.eps_f - params.eps_0
        disc = (delta - params.eps_0) ** 2 - 4.0 * delta * (A - params.eps_0)
        root = ((delta - params.eps_0) - math.sqrt(disc)) / (2.0 * delta)
        np.testing.assert_allclose(state.d_w, root, atol=5e-4)

    def test_damage_irreversible_on_unload(self, lshape_coarse):
        params = mech.MechParams()
        prob = mech.MechanicsProblem(lshape_coarse, params)
        loaded = prob.solve(p_p=np.full(lshape_coarse.num_elements, 6e6))
        assert loaded.d_w.max() > 0.0

        unloaded = prob.solve(p_p=None, prev=loaded)
        np.testing.assert_array_equal(unloaded.kappa, loaded.kappa)
        np.testing.assert_array_equal(unloaded.d_w, loaded.d_w)
        assert np.max(np.abs(unloaded.u)) < 1e-3 * np.max(np.abs(loaded.u))

        reloaded = prob.solve(p_p=np.full(lshape_coarse.num_elements, 7e6),
                              prev=unloaded)
        assert np.all(reloaded.d_w >= unloaded.d_w - 1e-15)
        assert reloaded.d_w.max() > unloaded.d_w.max()

    def test_zero_load_is_zero_state(self, lshape_coarse):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        state = prob.solve()
        assert state.converged
        np.testing.assert_allclose(state.u, 0.0, atol=1e-16)
        np.testing.assert_array_equal(state.d_w, 0.0)

    def test_zero_state_shapes(self, lshape_coarse):
        state = mech.MechState.zero(lshape_coarse)
        assert state.u.shape == (2 * lshape_coarse.num_nodes,)
        assert state.kappa.shape == (lshape_coarse.num_elements,)
        assert state.d_w.shape == (lshape_coarse.num_elements,)
        assert state.converged


class TestFactorCache:
    """The reduced stiffness is factorised once per damage state, and a
    kept factor gives bitwise the displacements of a fresh one."""

    @pytest.fixture()
    def factorisations(self, monkeypatch):
        made = []

        class CountingCholesky(mech.BandedCholesky):
            def __init__(self, band):
                super().__init__(band)
                made.append(self)

        monkeypatch.setattr(mech, "BandedCholesky", CountingCholesky)
        return made

    @staticmethod
    def fresh(mesh, **inputs):
        return mech.MechanicsProblem(mesh, mech.MechParams()).solve(**inputs)

    def test_undamaged_solves_share_one_factor(self, lshape_coarse,
                                               factorisations):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        theta = np.full(lshape_coarse.num_nodes, 20.0)
        loads = [dict(p_p=np.full(lshape_coarse.num_elements, 1e5)),
                 dict(theta=theta, theta_ref=14.0),
                 dict(theta=theta, theta_ref=14.0,
                      p_p=np.full(lshape_coarse.num_elements, 2e5))]
        states = [prob.solve(**load) for load in loads]
        assert len(factorisations) == 1
        for load, state in zip(loads, states):
            np.testing.assert_array_equal(state.d_w, 0.0)
            np.testing.assert_array_equal(
                state.u, self.fresh(lshape_coarse, **load).u)

    def test_damage_growth_factorises_again(self, lshape_coarse,
                                            factorisations):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        prob.solve(p_p=np.full(lshape_coarse.num_elements, 1e5))
        p_p = np.full(lshape_coarse.num_elements, 6e6)
        loaded = prob.solve(p_p=p_p)
        assert loaded.d_w.max() > 0.0
        # the first round reuses the undamaged factor, every later round
        # has moved damage and needs its own
        assert len(factorisations) == loaded.iterations > 1
        # the next step starts from the damage the last round produced,
        # which no kept factor was built for
        after = prob.solve(p_p=1.1 * p_p, prev=loaded)
        assert len(factorisations) == loaded.iterations + after.iterations

        np.testing.assert_array_equal(loaded.u,
                                      self.fresh(lshape_coarse, p_p=p_p).u)
        np.testing.assert_array_equal(
            after.u, self.fresh(lshape_coarse, p_p=1.1 * p_p, prev=loaded).u)

    def test_undamaged_state_after_damage_factorises_again(
            self, lshape_coarse, factorisations):
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        loaded = prob.solve(p_p=np.full(lshape_coarse.num_elements, 6e6))
        assert loaded.d_w.max() > 0.0
        made = len(factorisations)
        p_p = np.full(lshape_coarse.num_elements, 1e5)
        state = prob.solve(p_p=p_p, prev=mech.MechState.zero(lshape_coarse))
        assert state.iterations == 1
        assert len(factorisations) == made + 1
        np.testing.assert_array_equal(state.u,
                                      self.fresh(lshape_coarse, p_p=p_p).u)

    def test_kept_factor_builds_no_stiffness(self, lshape_coarse,
                                             factorisations, monkeypatch):
        # prescribed displacements that are not zero give the kept
        # reduction a lift to carry, and a body force joins the load
        mesh = lshape_coarse
        bnd = mesh.nodes_with_tag(BoundaryTag.A)
        dofs = np.concatenate([2 * bnd, 2 * bnd + 1])
        vals = np.concatenate([np.zeros(len(bnd)), 1e-7 * mesh.nodes[bnd, 1]])
        params = mech.MechParams(body_force=(0.0, -2e4))
        prob = mech.MechanicsProblem(mesh, params, constraints=(dofs, vals))
        built = []
        matrix = prob._pattern.matrix
        monkeypatch.setattr(prob._pattern, "matrix",
                            lambda coefs: built.append(coefs)
                            or matrix(coefs))
        theta = np.linspace(12.0, 18.0, mesh.num_nodes)
        loads = [dict(p_p=np.full(mesh.num_elements, 1e5)),
                 dict(theta=theta, theta_ref=14.0),
                 dict(theta=theta, theta_ref=14.0,
                      p_p=np.linspace(0.0, 2e5, mesh.num_elements))]
        states = [prob.solve(**load) for load in loads]
        assert len(built) == len(factorisations) == 1
        for load, state in zip(loads, states):
            assert state.iterations == 1
            np.testing.assert_array_equal(state.d_w, 0.0)
            fresh = mech.MechanicsProblem(
                mesh, params, constraints=(dofs, vals)).solve(**load)
            assert state.u.tobytes() == fresh.u.tobytes()


class TestCapacitance:
    """Damaged stiffness solves, each checked against the reduced system
    of its own damage state. The cases are named for the capacitance
    correction to a kept factor that they once checked; every damage
    state now factorises its own stiffness."""

    @staticmethod
    def corner_load(mesh, radius=0.35, p=1e7, centre=(0.0, 0.0)):
        r = np.hypot(*(mesh.centroids - centre).T)
        return np.where(r < radius, p, 0.0)

    @staticmethod
    def solved_systems(prob, monkeypatch):
        """(A, b, x) of each solve of ``prob`` from here on: the reduced
        stiffness that apply_dirichlet gives for the stiffness factor the
        kept factor is for, the load and the solution."""
        systems = []
        solve = mech.solve_sparse

        def recording_solve(factor, b):
            x = solve(factor, b)
            A, _ = mech.apply_dirichlet(
                prob._pattern.matrix(prob._base),
                np.zeros(2 * prob.mesh.num_nodes),
                prob._free, prob.constraint_dofs, prob.constraint_values)
            systems.append((A, b.copy(), x))
            return x

        monkeypatch.setattr(mech, "solve_sparse", recording_solve)
        return systems

    @staticmethod
    def backward_error(A, b, x):
        """Normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||) in
        the infinity norm, which does not grow with cond(A)."""
        return np.max(np.abs(A @ x - b)) / (
            abs(A).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b)))

    def test_prescribed_displacements_and_body_force(self, lshape_coarse,
                                                      monkeypatch):
        mesh = lshape_coarse
        bnd = mesh.nodes_with_tag(BoundaryTag.A)
        dofs = np.concatenate([2 * bnd, 2 * bnd + 1])
        vals = np.concatenate([np.zeros(len(bnd)), 1e-7 * mesh.nodes[bnd, 1]])
        params = mech.MechParams(body_force=(3e3, -2e4))
        prob = mech.MechanicsProblem(mesh, params, constraints=(dofs, vals))
        systems = self.solved_systems(prob, monkeypatch)
        theta = np.linspace(12.0, 18.0, mesh.num_nodes)
        # pore pressure at the supported end of the x leg: the lift runs
        # through damaged elements on the edge
        loads = [dict(p_p=self.corner_load(mesh, centre=(1.0, 0.0)),
                      theta=theta, theta_ref=14.0),
                 dict(p_p=self.corner_load(mesh, p=1.3e7, centre=(1.0, 0.0)))]
        states, prev = [], None
        for load in loads:
            prev = prob.solve(prev=prev, **load)
            states.append(prev)
        assert np.count_nonzero(states[-1].d_w) > 0
        damaged_nodes = mesh.elements[states[-1].d_w > 0].ravel()
        assert np.intersect1d(damaged_nodes, bnd).size > 0
        # damage moves in every round until the last, so each round has a
        # damage state of its own
        assert [s.factorisations for s in states] \
            == [s.iterations for s in states]
        assert len(systems) == sum(s.iterations for s in states) > 2
        for A, b, x in systems:
            assert self.backward_error(A, b, x) < 1e-14
        u_f = states[-1].u[prob._free]
        np.testing.assert_array_equal(u_f, systems[-1][2])

    def test_one_solve_per_damage_iteration(self, lshape_coarse,
                                            monkeypatch):
        calls = []

        def counting(A, b):
            calls.append(np.shape(b))
            return solve_sparse(A, b)

        solve_sparse = mech.solve_sparse
        monkeypatch.setattr(mech, "solve_sparse", counting)
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        state = prob.solve(p_p=self.corner_load(lshape_coarse))
        assert len(calls) == state.iterations > 2
        assert set(calls) == {(len(prob._free),)}

    def test_band_at_residual_stiffness(self, lshape_coarse):
        # a band of fully damaged elements across the x leg leaves its end
        # held by the residual stiffness only; cond(K) is about 1e8, so the
        # solve is judged by its normwise backward error, which does not
        # grow with it
        mesh, params = lshape_coarse, mech.MechParams()
        x = mesh.centroids[:, 0]
        band = (x > 0.6) & (x < 0.7)
        prev = mech.MechState(np.zeros(2 * mesh.num_nodes),
                              np.where(band, params.eps_f, 0.0),
                              np.where(band, 1.0, 0.0))
        p_p = np.full(mesh.num_elements, 1e5)
        prob = mech.MechanicsProblem(mesh, params)
        states = [prob.solve(), prob.solve(p_p=p_p, prev=prev)]
        assert states[1].iterations == 1 and states[1].factorisations == 1
        fresh = mech.MechanicsProblem(mesh, params).solve(p_p=p_p, prev=prev)
        assert fresh.u.tobytes() == states[1].u.tobytes()

        factor = np.maximum(1.0 - prev.d_w, params.residual_stiffness)
        t_vec = (params.biot * p_p)[:, None] * mech._IDENTITY
        fe = np.einsum("eai,ea->ei", prob.B, t_vec) * mesh.areas[:, None]
        F = np.zeros(2 * mesh.num_nodes)
        np.add.at(F, prob.dofs.ravel(), fe.ravel())
        A, b = mech.apply_dirichlet(prob._pattern.matrix(factor), F,
                                    prob._free, prob.constraint_dofs,
                                    prob.constraint_values)
        assert self.backward_error(A, b, states[1].u[prob._free]) < 1e-14

    def test_damage_on_fixed_dofs_only_needs_no_correction(self):
        # damage on an element whose six dofs are all prescribed changes no
        # entry of the reduced stiffness: the damaged state refactorises
        # and gives bitwise the undamaged displacements
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        ext = mesh.nodes_with_tag(BoundaryTag.EXT)
        constraints = (np.concatenate([2 * ext, 2 * ext + 1]),
                       np.zeros(2 * len(ext)))
        held = np.flatnonzero(np.isin(mesh.elements, ext).all(axis=1))
        assert len(held) > 0
        params = mech.MechParams()
        kappa = 0.5 * (params.eps_0 + params.eps_f)
        d = np.zeros(mesh.num_elements)
        d[held[0]] = mech.damage_function(kappa, params.eps_0, params.eps_f)
        prev = mech.MechState(np.zeros(2 * mesh.num_nodes),
                              np.where(d > 0.0, kappa, 0.0), d)
        p_p = np.full(mesh.num_elements, 1e5)
        prob = mech.MechanicsProblem(mesh, params, constraints)
        undamaged = prob.solve(p_p=p_p)
        state = prob.solve(p_p=p_p, prev=prev)
        assert state.converged and state.factorisations == 1
        np.testing.assert_array_equal(state.d_w, d)
        assert state.u.tobytes() == undamaged.u.tobytes()


class TestLoads:
    def test_equal_to_sequential_scatter(self, lshape_coarse, monkeypatch):
        """The load of a solve's first iteration is bitwise the sums
        np.add.at makes element by element: the pore pressure with the body
        force, plus the thermal load scaled by the stiffness factor."""
        mesh = lshape_coarse
        params = mech.MechParams(body_force=(3e3, -2e4))
        prob = mech.MechanicsProblem(mesh, params)
        rng = np.random.default_rng(5)
        d_w = rng.uniform(0.0, 0.9, mesh.num_elements)
        p_p = rng.uniform(0.0, 1e6, mesh.num_elements)
        theta = rng.uniform(8.0, 20.0, mesh.num_nodes)
        loads = []
        solve_sparse = mech.solve_sparse
        monkeypatch.setattr(mech, "solve_sparse",
                            lambda A, b: loads.append(b.copy())
                            or solve_sparse(A, b))
        prev = mech.MechState(np.zeros(2 * mesh.num_nodes),
                              np.zeros(mesh.num_elements), d_w)
        prob.solve(theta=theta, theta_ref=14.0, p_p=p_p, prev=prev,
                   max_iter=1)

        factor = np.maximum(1.0 - d_w, params.residual_stiffness)
        eps_th = params.alpha * (mesh.element_mean(theta) - 14.0)
        area = mesh.areas
        fixed = np.zeros(2 * mesh.num_nodes)
        thermal = np.zeros(2 * mesh.num_nodes)
        for e, dofs in enumerate(prob.dofs):
            unit_p = mech._IDENTITY @ prob.B[e]
            unit_th = (prob.D @ mech._IDENTITY) @ prob.B[e]
            body = np.tile(params.body_force, 3) * (area[e] / 3.0)
            np.add.at(fixed, dofs,
                      params.biot * p_p[e] * area[e] * unit_p + body)
            np.add.at(thermal, dofs, factor[e] * (eps_th[e] * area[e])
                      * unit_th)
        want = (fixed + thermal)[prob._free]
        assert len(loads) == 1
        assert loads[0].tobytes() == want.tobytes()
