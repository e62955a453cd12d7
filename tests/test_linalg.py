import numpy as np

from frostsim import transport_solver as ts
from frostsim._linalg import SparsePattern


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

    def test_step_operator_map_holds_no_int64_slots(self, lshape_coarse,
                                                    mortar):
        prob = ts.TransportProblem(lshape_coarse,
                                   ts.KunzelCoefficients(mortar))
        pattern = prob._pattern
        assert not hasattr(pattern, "_slots")
        for arr in index_arrays(pattern):
            assert arr.dtype != np.int64
        # one column per coefficient of the six element fields and the
        # exchange diagonal
        e, n = lshape_coarse.num_elements, lshape_coarse.num_nodes
        assert pattern._scatter.shape[1] == 6 * e + 2 * n
        assert pattern._scatter.nnz == 54 * e + 2 * n
        assert not hasattr(prob, "_S9")
