import numpy as np
import pytest
import scipy.sparse as sp

from frostsim import _linalg
from frostsim import transport_solver as ts
from frostsim._linalg import SparseLU, SparsePattern, solve_sparse
from frostsim.errors import SingularSystemError


def index_arrays(pattern):
    scatter = pattern._scatter
    held = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    return held + [scatter.indices, scatter.indptr]


class TestSparsePattern:
    def test_map_sums_weighted_coefficients(self):
        rng = np.random.default_rng(4)
        n, per_coef = 7, np.array([3, 1, 4, 2, 5])
        coef = np.repeat(np.arange(len(per_coef)), per_coef)
        rows = rng.integers(0, n, len(coef))
        cols = rng.integers(0, n, len(coef))
        rows[:2], cols[:2] = 3, 5                   # a repeated position
        weights = rng.normal(size=len(coef))
        pattern = SparsePattern(rows, cols, per_coef, weights, n)
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
        pattern = SparsePattern(rows, cols, per_coef,
                                rng.normal(size=per_coef.sum()), n)
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

    def test_step_operator_map_sorts_distinct_positions_once(
            self, lshape_coarse, mortar):
        # the map listing all six blocks and the Newton rows with their own
        # positions, as the pattern once was built, is bitwise the one
        # built from the four distinct positions
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
        listed = SparsePattern(
            np.concatenate([rows, diag, r_]), np.concatenate([cols, diag, c_]),
            np.concatenate([np.full(6 * e, 9), np.ones(2 * n, int),
                            np.full(3 * e, 3)]),
            np.concatenate([unit.ravel() for _, _, unit in blocks]
                           + [np.ones(2 * n), np.full(9 * e, 1.0 / 3.0)]),
            2 * n)
        for got, want in zip(index_arrays(prob._pattern),
                             index_arrays(listed)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert prob._pattern._scatter.data.tobytes() \
            == listed._scatter.data.tobytes()


    def test_matrices_cannot_rewrite_the_map(self):
        # the returned matrices share the map's index arrays, so an
        # in-place change of structure must fail, not reach later matrices
        pattern = SparsePattern(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                                np.array([2, 2]), np.ones(4), 2)
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
        lu = SparseLU(A)
        X = solve_sparse(lu, B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            x = solve_sparse(A, B[:, j])
            np.testing.assert_allclose(X[:, j], x, rtol=1e-14, atol=1e-14)

    def test_non_finite_column_raises(self, system):
        A, B = system
        B[3, 2] = np.nan
        with pytest.raises(SingularSystemError):
            solve_sparse(SparseLU(A), B)


class TestSplitFactor:
    @staticmethod
    def blocks(rng, n=50, k=20):
        A = sp.random(n, n, density=0.1, random_state=rng) \
            + sp.identity(n) * n
        return A.tocsr(), k

    def test_solves_the_block_upper_triangular_part(self):
        rng = np.random.default_rng(4)
        A, k = self.blocks(rng)
        upper = A.toarray()
        upper[k:, :k] = 0.0
        assert np.abs(A.toarray()[k:, :k]).max() > 0.0
        n = A.shape[0]
        for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
            x = solve_sparse(SparseLU(A, split=k), b)
            want = np.linalg.solve(upper, b)
            np.testing.assert_allclose(x, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())

    def test_factorises_both_blocks_at_the_first_solve(self, monkeypatch):
        shapes = []
        splu = _linalg.spla.splu

        def counting(A, **options):
            shapes.append(A.shape)
            return splu(A, **options)

        monkeypatch.setattr(_linalg.spla, "splu", counting)
        A, k = self.blocks(np.random.default_rng(5))
        lu = SparseLU(A, split=k)
        assert shapes == []
        b = np.ones(A.shape[0])
        np.testing.assert_array_equal(lu.solve(b), lu.solve(b))
        assert shapes == [(k, k), (A.shape[0] - k, A.shape[0] - k)]

    def test_singular_block_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0],
                                    [0.0, 1.0, 1.0]]))
        with pytest.raises(SingularSystemError):
            SparseLU(A, split=1).solve(np.ones(3))
