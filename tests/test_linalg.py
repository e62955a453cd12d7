import numpy as np
import pytest
import scipy.sparse as sp

from frostsim import _linalg
from frostsim import mechanics as mech
from frostsim import transport_solver as ts
from frostsim._linalg import (BandedCholesky, BandFactors, BandLayout, BandLU,
                              SparsePattern, apply_dirichlet, bandwidth_order,
                              positions, solve_sparse)
from frostsim.errors import SingularSystemError
from frostsim.mesh import BoundaryTag, generate_rectangle


def index_arrays(pattern):
    scatter = pattern._scatter
    held = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    return held + [scatter.indices, scatter.indptr]


def listed(rows, cols, n):
    """The CSR structure (indptr, indices) of the listed positions in an
    n by n matrix and the slot of each in it, through scipy's COO sum of
    duplicates."""
    A = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    A = A.tocsr()
    keys = np.repeat(np.arange(n), np.diff(A.indptr)) * n + A.indices
    return A.indptr, A.indices, np.searchsorted(keys, rows * n + cols)


class TestSparsePattern:
    def test_map_sums_weighted_coefficients(self):
        rng = np.random.default_rng(4)
        n, per_coef = 7, np.array([3, 1, 4, 2, 5])
        coef = np.repeat(np.arange(len(per_coef)), per_coef)
        rows = rng.integers(0, n, len(coef))
        cols = rng.integers(0, n, len(coef))
        rows[:2], cols[:2] = 3, 5                   # a repeated position
        weights = rng.normal(size=len(coef))
        pattern = SparsePattern(*listed(rows, cols, n), per_coef, weights)
        coefs = rng.normal(size=len(per_coef))
        expect = np.zeros((n, n))
        np.add.at(expect, (rows, cols), weights * coefs[coef])
        A = pattern.matrix(coefs)
        assert A.has_canonical_format
        assert A.nnz == len(np.unique(rows * n + cols))
        np.testing.assert_allclose(A.toarray(), expect, rtol=1e-15,
                                   atol=1e-15)

    def test_short_coefficients_leave_the_last_out(self):
        # a shorter vector skips the last coefficients' entries through a
        # view of the map's leading columns, not a copy; scipy copies a
        # view of less than half of an array, and the transport map's
        # leading columns hold most of its entries, as they do here
        rng = np.random.default_rng(6)
        n, per_coef = 6, np.array([5, 4, 2, 1])
        rows = rng.integers(0, n, per_coef.sum())
        cols = rng.integers(0, n, per_coef.sum())
        pattern = SparsePattern(*listed(rows, cols, n), per_coef,
                                rng.normal(size=per_coef.sum()))
        coefs = rng.normal(size=len(per_coef))
        padded = pattern.matrix(np.concatenate([coefs[:2], np.zeros(2)]))
        for _ in range(2):
            short = pattern.matrix(coefs[:2])
            assert short.data.tobytes() == padded.data.tobytes()
            assert pattern.matrix(coefs).nnz == short.nnz
        head, scatter = pattern._head, pattern._scatter
        assert head.shape[1] == 2
        for a, b in ((head.data, scatter.data),
                     (head.indices, scatter.indices)):
            assert np.shares_memory(a, b)

    def test_step_operator_map_holds_no_int64_slots(self, lshape_coarse,
                                                    mortar):
        prob = ts.TransportProblem(lshape_coarse,
                                   ts.KunzelCoefficients(mortar))
        pattern = prob._pattern
        assert not hasattr(pattern, "_slots")
        for arr in index_arrays(pattern):
            assert arr.dtype != np.int64
        # one column per coefficient of the six element fields, the
        # exchange diagonal and the three Newton rows of each element
        e, n = lshape_coarse.num_elements, lshape_coarse.num_nodes
        assert pattern._scatter.shape[1] == 9 * e + 2 * n
        assert pattern._scatter.nnz == 63 * e + 2 * n
        assert not hasattr(prob, "_S9")

    def test_step_operator_map_is_the_listed_map(self, lshape_coarse,
                                                 mortar):
        # the map listing all six blocks and the Newton rows with their own
        # positions, its structure and slots from scipy, is bitwise the one
        # laid out on the node graph
        mesh = lshape_coarse
        prob = ts.TransportProblem(mesh, ts.KunzelCoefficients(mortar))
        grads, areas = mesh.grads, mesh.areas
        S9 = (np.einsum("eik,ejk->eij", grads, grads)
              * areas[:, None, None]).reshape(-1, 9)
        M9 = (((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]
              * areas[:, None, None]).reshape(-1, 9)
        blocks = ((0, 0, M9), (0, 0, S9), (0, 1, S9), (1, 0, S9),
                  (1, 1, M9), (1, 1, S9))
        e, n = mesh.num_elements, mesh.num_nodes
        r_ = np.repeat(mesh.elements, 3, axis=1).ravel()
        c_ = np.tile(mesh.elements, (1, 3)).ravel()
        rows = np.concatenate([r_ + i * n for i, _, _ in blocks])
        cols = np.concatenate([c_ + j * n for _, j, _ in blocks])
        diag = np.arange(2 * n)
        want = SparsePattern(
            *listed(np.concatenate([rows, diag, r_]),
                    np.concatenate([cols, diag, c_]), 2 * n),
            np.concatenate([np.full(6 * e, 9), np.ones(2 * n, int),
                            np.full(3 * e, 3)]),
            np.concatenate([unit.ravel() for _, _, unit in blocks]
                           + [np.ones(2 * n), np.full(9 * e, 1.0 / 3.0)]))
        for got, expect in zip(index_arrays(prob._pattern),
                               index_arrays(want)):
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()
        assert prob._pattern._scatter.data.tobytes() \
            == want._scatter.data.tobytes()

    def test_stiffness_map_is_the_listed_map(self, lshape_coarse):
        # the mechanics map, each element's 36 entries listed row by row,
        # is bitwise the one laid out on the node graph
        prob = mech.MechanicsProblem(lshape_coarse, mech.MechParams())
        dofs = prob.dofs
        want = SparsePattern(
            *listed(np.repeat(dofs, 6, axis=1).ravel(),
                    np.tile(dofs, (1, 6)).ravel(),
                    2 * lshape_coarse.num_nodes),
            np.full(len(dofs), 36), prob.KE.ravel())
        for got, expect in zip(index_arrays(prob._pattern),
                               index_arrays(want)):
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()

    def test_matrices_cannot_rewrite_the_map(self):
        # the returned matrices share the map's index arrays, so an
        # in-place change of structure must fail, not reach later matrices
        pattern = SparsePattern(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                                np.arange(4), np.array([2, 2]), np.ones(4))
        coefs = np.array([0.0, 1.0])
        before = pattern.matrix(coefs)
        want = (before.data.copy(), before.indices.copy(),
                before.indptr.copy())
        with pytest.raises(ValueError):
            before.eliminate_zeros()
        after = pattern.matrix(coefs)
        for got, expect in zip((after.data, after.indices, after.indptr),
                               want):
            np.testing.assert_array_equal(got, expect)
        assert after.nnz == 4


class TestNodeGraph:
    def test_adjacency_and_slots(self, lshape_coarse):
        mesh = lshape_coarse
        graph = mesh.graph
        assert mesh.graph is graph
        n, conn = mesh.num_nodes, mesh.elements
        rows = np.concatenate([np.repeat(conn, 3, axis=1).ravel(),
                               np.arange(n)])
        cols = np.concatenate([np.tile(conn, (1, 3)).ravel(), np.arange(n)])
        indptr, indices, slots = listed(rows, cols, n)
        for got, want in ((graph.indptr, indptr), (graph.indices, indices),
                          (graph.slots.ravel(), slots[:-n]),
                          (graph.diagonal, slots[-n:])):
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, want)
        assert graph.slots.shape == (mesh.num_elements, 9)
        np.testing.assert_array_equal(np.sort(graph.order), np.arange(n))

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_blocks_lay_out_two_dofs_per_node(self, lshape_coarse,
                                              interleaved):
        graph = lshape_coarse.graph
        n = lshape_coarse.num_nodes
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))

        def dof(node, field):
            return 2 * node + field if interleaved else field * n + node

        indptr, indices, at = graph.blocks(interleaved)
        pairs = [(dof(rows, i), dof(graph.indices, j))
                 for i in (0, 1) for j in (0, 1)]
        want_indptr, want_indices, want_at = listed(
            np.concatenate([r for r, _ in pairs]),
            np.concatenate([c for _, c in pairs]), 2 * n)
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_array_equal(at.ravel(), want_at)


def natural(A, split=None):
    """Band layouts of A's structure in A's own numbering, split at
    ``split`` if it is given and leaves both blocks non-empty."""
    m = A.shape[0]
    k = m if split is None else split
    return BandFactors(A, (np.arange(k), np.arange(m - k), np.arange(m)))


def whole(A):
    """A band LU factor of all of A in its own numbering."""
    return natural(A).factor(A)


class TestMatrixRightHandSide:
    @pytest.fixture()
    def system(self):
        rng = np.random.default_rng(11)
        n = 40
        A = sp.random(n, n, density=0.1, random_state=rng) \
            + sp.identity(n) * n
        return A.tocsr(), rng.normal(size=(n, 5))

    def test_columns_match_single_solves(self, system):
        A, B = system
        X = solve_sparse(whole(A), B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            x = solve_sparse(whole(A), B[:, j])
            np.testing.assert_allclose(X[:, j], x, rtol=1e-14, atol=1e-14)

    def test_non_finite_column_raises(self, system):
        A, B = system
        B[3, 2] = np.nan
        with pytest.raises(SingularSystemError):
            solve_sparse(whole(A), B)


class TestSplitFactor:
    @staticmethod
    def blocks(rng, n=50, k=20):
        """A random matrix with a heavy diagonal, split at k: its lower
        block is symmetric and so positive definite, the upper block and
        the coupling blocks are not symmetric."""
        A = sp.random(n, n, density=0.1, random_state=rng).toarray()
        A[k:, k:] += A[k:, k:].T
        return sp.csr_matrix(A + n * np.eye(n)), k

    def test_solves_the_block_upper_triangular_part(self):
        rng = np.random.default_rng(4)
        A, k = self.blocks(rng)
        upper = A.toarray()
        upper[k:, :k] = 0.0
        assert np.abs(A.toarray()[k:, :k]).max() > 0.0
        assert abs(A[:k, :k] - A[:k, :k].T).max() > 0.0
        n = A.shape[0]
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            x = solve_sparse(natural(A, k).factor(A), b)
            want = np.linalg.solve(upper, b)
            np.testing.assert_allclose(x, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())

    def test_factorises_both_blocks_at_the_first_solve(self):
        # a singular block raises at the first solve, not before; a factor
        # solves repeatably, and the layouts of one matrix serve another of
        # its structure: four times its values give bitwise a quarter of
        # the solution, the Cholesky factor of the lower block twice its
        # own
        A, k = self.blocks(np.random.default_rng(5))
        factors = natural(A, k)
        b = np.ones(A.shape[0])
        for block, message in ((slice(0, k), "zero pivot"),
                               (slice(k, None), "not positive definite")):
            singular = A.copy()
            rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
            singular.data[(rows >= block.start)
                          & (rows < (block.stop or A.shape[0]))] = 0.0
            lu = factors.factor(singular)
            with pytest.raises(SingularSystemError, match=message):
                lu.solve(b)
        lu = factors.factor(A)
        x = lu.solve(b)
        assert lu.solve(b).tobytes() == x.tobytes()
        four = A.copy()
        four.data *= 4.0
        assert factors.factor(four).solve(b).tobytes() \
            == (0.25 * x).tobytes()

    def test_lower_block_in_symmetric_storage(self):
        # the lower block's band holds its lower triangle alone, the
        # upper block's the general band with the rows of the pivoting
        A, k = self.blocks(np.random.default_rng(6))
        lu = natural(A, k).factor(A)
        assert isinstance(lu._lower, BandedCholesky)
        assert isinstance(lu._upper, BandLU)
        P = A[k:, k:].tocoo()
        kl = np.max(P.row - P.col)
        assert lu._lower._band.shape == (kl + 1, A.shape[0] - k)
        P = A[:k, :k].tocoo()
        kl, ku = np.max(P.row - P.col), np.max(P.col - P.row)
        assert lu._upper._band.shape == (2 * kl + ku + 1, k)

    def test_indefinite_lower_block_raises_at_the_first_solve(self):
        # a lower block that is nonsingular but not positive definite
        A, k = self.blocks(np.random.default_rng(7))
        A = A.tolil()
        A[k + 3, k + 3] = -A[k + 3, k + 3]
        A = A.tocsr()
        assert np.linalg.matrix_rank(A[k:, k:].toarray()) == A.shape[0] - k
        lu = natural(A, k).factor(A)
        with pytest.raises(SingularSystemError,
                           match="not positive definite at pivot 4"):
            lu.solve(np.ones(A.shape[0]))

    def test_singular_block_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                                    [0.0, 1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            natural(A, 1).factor(A).solve(np.ones(3))


def grid_laplacian(nx, ny, rng):
    """Five-point Laplacian plus identity of an nx by ny grid, its vertices
    numbered at random: symmetric positive definite, with no band."""
    grid = np.arange(nx * ny).reshape(ny, nx)
    pairs = np.concatenate([np.stack([grid[:, :-1].ravel(),
                                      grid[:, 1:].ravel()], axis=1),
                            np.stack([grid[:-1].ravel(),
                                      grid[1:].ravel()], axis=1)])
    label = rng.permutation(nx * ny)
    i, j = label[pairs].T
    n = nx * ny
    off = sp.coo_matrix((-np.ones(len(i)), (i, j)), shape=(n, n))
    A = off + off.T
    return (A + sp.diags(1.0 - np.asarray(A.sum(axis=1)).ravel())).tocsr()


class TestBandwidthOrder:
    def test_long_grid_gets_the_band_of_its_width(self):
        # a 40 by 5 grid numbered at random: the levels from a corner
        # are its diagonals, so the band is as wide as the grid plus one,
        # not as long
        A = grid_laplacian(40, 5, np.random.default_rng(3))
        order = bandwidth_order(A)
        np.testing.assert_array_equal(np.sort(order), np.arange(200))
        P = A[order][:, order].tocoo()
        assert np.abs(P.row - P.col).max() <= 6
        A = A.tocoo()
        assert np.abs(A.row - A.col).max() > 100

    def test_skipped_vertices_and_separate_parts(self):
        # taking a column of the grid out cuts it in two parts; each gets
        # its own levels
        rng = np.random.default_rng(8)
        A = grid_laplacian(21, 4, rng)
        label = np.random.default_rng(8).permutation(84)
        keep = np.setdiff1d(np.arange(84), label[np.arange(10, 84, 21)])
        A = A[keep][:, keep]                    # without grid column 10
        order = bandwidth_order(A)
        np.testing.assert_array_equal(np.sort(order), np.arange(80))
        # the parts are the ten columns either side; each is one run of
        # the order, and inside it the band stays narrow
        column = np.empty(84, dtype=int)
        column[label] = np.tile(np.arange(21), 4)
        left = column[keep][order] < 10
        assert np.count_nonzero(np.diff(left)) == 1
        P = A[order][:, order].tocoo()
        assert np.abs(P.row - P.col).max() <= 5

    def test_band_of_the_order_holds_the_matrix(self):
        rng = np.random.default_rng(9)
        A = grid_laplacian(12, 4, rng)
        order = bandwidth_order(A)
        # the layout gathers the band of the reordered matrix straight from
        # the data of A
        layout = BandLayout(positions(A)[order][:, order], symmetric=True)
        band = layout.band(A)
        dense = A[order][:, order].toarray()
        kd = layout.shape[0] - 1
        assert layout.shape == (kd + 1, 48) and band.flags.f_contiguous
        for d in range(kd + 1):
            np.testing.assert_array_equal(band[d, :48 - d],
                                          np.diagonal(dense, -d))
            np.testing.assert_array_equal(band[d, 48 - d:], 0.0)
        assert not np.tril(dense, -kd - 1).any()


class TestBandedCholesky:
    @pytest.fixture()
    def system(self):
        # the grid numbered at random, laid out in a bandwidth order
        rng = np.random.default_rng(12)
        A = grid_laplacian(15, 3, rng)
        order = bandwidth_order(A)
        layout = BandLayout(positions(A)[order][:, order], symmetric=True)
        return A, layout, order, rng

    def test_solves_like_a_dense_solve(self, system):
        A, layout, order, rng = system
        factor = BandedCholesky(layout.band(A), order)
        dense = A.toarray()
        for b in (rng.normal(size=45), rng.normal(size=(45, 3))):
            x = solve_sparse(factor, b)
            assert x.shape == b.shape
            np.testing.assert_allclose(x, np.linalg.solve(dense, b),
                                       rtol=1e-12, atol=1e-14)

    def test_factorises_in_place_at_the_first_solve(self, system,
                                                    monkeypatch):
        A, layout, order, _ = system
        calls = []
        dpbtrf = _linalg.lapack.dpbtrf

        def counting(*args, **kwargs):
            calls.append(1)
            return dpbtrf(*args, **kwargs)

        monkeypatch.setattr(_linalg.lapack, "dpbtrf", counting)
        band = layout.band(A)
        factor = BandedCholesky(band, order)
        assert calls == []
        b = np.ones(45)
        np.testing.assert_array_equal(factor.solve(b), factor.solve(b))
        assert calls == [1]
        assert not np.array_equal(band, layout.band(A))

    def test_indefinite_matrix_raises(self, system):
        A, layout, order, _ = system
        A = A.copy()
        A.data[A.indices == np.repeat(np.arange(45), np.diff(A.indptr))] \
            -= 3.0
        with pytest.raises(SingularSystemError, match="not positive"):
            solve_sparse(BandedCholesky(layout.band(A), order), np.ones(45))

    def test_non_finite_solution_raises(self, system):
        A, layout, order, _ = system
        b = np.ones(45)
        b[7] = np.inf
        with pytest.raises(SingularSystemError, match="non-finite"):
            BandedCholesky(layout.band(A), order).solve(b)


class TestBandLU:
    @pytest.fixture()
    def system(self):
        # the grid's structure, which is symmetric, with random values,
        # which are not, made nonsingular by a heavy diagonal; the band of
        # a bandwidth order is narrow, the band of the labels wide
        rng = np.random.default_rng(13)
        A = grid_laplacian(15, 3, rng)
        A.data = rng.normal(size=A.nnz)
        A.setdiag(8.0 + rng.uniform(size=45))
        assert abs(A - A.T).max() > 0.0
        order = bandwidth_order(A)
        return A, order, rng

    def test_solves_like_a_dense_solve(self, system):
        A, order, rng = system
        layout = BandLayout(positions(A)[order][:, order])
        P = A[order][:, order].tocoo()
        assert layout.kl == np.max(P.row - P.col) <= 4
        assert layout.ku == np.max(P.col - P.row)
        assert layout.shape == (2 * layout.kl + layout.ku + 1, 45)
        lu = BandLU(layout.band(A), layout.kl, order)
        dense = A.toarray()
        for b in (rng.normal(size=45), rng.normal(size=(45, 3))):
            x = solve_sparse(lu, b)
            assert x.shape == b.shape
            np.testing.assert_allclose(x, np.linalg.solve(dense, b),
                                       rtol=1e-12, atol=1e-14)

    def test_zero_pivot_raises(self):
        # the third pivot of a diagonal matrix is exactly zero
        A = sp.diags([1.0, 2.0, 0.0, 4.0], format="csr")
        with pytest.raises(SingularSystemError, match="zero pivot 3 of 4"):
            solve_sparse(whole(A), np.ones(4))

    def test_non_finite_solution_raises(self, system):
        A, order, _ = system
        layout = BandLayout(positions(A)[order][:, order])
        b = np.ones(45)
        b[7] = np.inf
        with pytest.raises(SingularSystemError, match="non-finite"):
            BandLU(layout.band(A), layout.kl, order).solve(b)


def reduced(A, b, free, fixed, values):
    """A x = b restricted to the free dofs as written here, apart from the
    code under test: A_ff and b_f - A_fc x_fixed."""
    A_f = A[free]
    return A_f[:, free], b[free] - A_f[:, fixed] @ values


def assert_same(got, want):
    """Bitwise the same reduced matrix and load."""
    (A, b), (want_A, want_b) = got, want
    np.testing.assert_array_equal(A.indices, want_A.indices)
    np.testing.assert_array_equal(A.indptr, want_A.indptr)
    assert A.data.tobytes() == want_A.data.tobytes()
    assert b.tobytes() == want_b.tobytes()


class TestDirichletGather:
    """The reductions made once at set-up, each one's load of the
    prescribed values and apply_dirichlet give bitwise the reduced system
    of ``reduced`` on every matrix."""

    def test_mechanics_stiffness(self, lshape_coarse):
        mesh = lshape_coarse
        rng = np.random.default_rng(3)
        bnd = mesh.nodes_with_tag(BoundaryTag.A)
        dofs = np.concatenate([2 * bnd, 2 * bnd + 1])
        prob = mech.MechanicsProblem(
            mesh, mech.MechParams(),
            constraints=(dofs, rng.normal(scale=1e-6, size=len(dofs))))
        factor = rng.uniform(1e-6, 1.0, mesh.num_elements)
        K = prob._pattern.matrix(factor)
        F = rng.normal(size=2 * mesh.num_nodes)
        system = (K, F, prob._free, prob.constraint_dofs,
                  prob.constraint_values)
        A, b = reduced(*system)
        want = BandLayout(positions(A), symmetric=True).band(A)
        assert prob._layout.band(K).tobytes() == want.tobytes()
        prob._factorise(factor)
        assert (F[prob._free] - prob._held).tobytes() == b.tobytes()
        assert_same(apply_dirichlet(*system), (A, b))

    @pytest.mark.parametrize("values", ["prescribed", "random"])
    def test_transport_with_dirichlet_dofs(self, values):
        # criterion 04's problem: the boundary nodes of both fields fixed
        mesh = generate_rectangle(1.0, 1.0, 12, 12)
        prob = ts.TransportProblem(
            mesh, ts.ConstantCoefficients(k_tp=0.3, k_pt=0.1),
            dirichlet_theta=[(np.unique(mesh.boundary_edge_nodes()), 0.0)],
            dirichlet_phi=[(np.unique(mesh.boundary_edge_nodes()), 0.0)])
        rng = np.random.default_rng(9)
        n = mesh.num_nodes
        r = rng.uniform(0.1, 0.9, 2 * n)
        exchange, load, rain = prob._boundary(0.5)
        M, b, _ = prob._step_operator(
            r, 0.25, exchange, load, rain, prob._mass_history(r),
            np.zeros(n, dtype=bool), None)
        vals = (prob._dirichlet_at(0.5) if values == "prescribed"
                else rng.normal(size=len(prob._fixed)))
        want = reduced(M, b, prob._free, prob._fixed, vals)
        # the random values move a load onto the free rows
        assert (values == "random") == np.any(want[1] != b[prob._free])
        assert_same(prob._reduce(M, b, vals), want)
        assert_same(apply_dirichlet(M, b, prob._free, prob._fixed, vals),
                    want)
