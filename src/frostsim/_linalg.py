"""Shared sparse helpers: fixed-pattern assembly, Dirichlet reduction to
the free dofs and a guarded direct solve."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError


class SparsePattern:
    """Fixed CSR sparsity of a square matrix assembled from entry lists.

    ``rows`` and ``cols`` list the position of every entry, duplicates
    included; ``matrix(vals)`` sums the values given in that order into
    their slots, which costs one bincount per assembly.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        pattern, self._slots = np.unique(rows * n + cols, return_inverse=True)
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern,
                                       np.arange(n + 1) * n).astype(np.int32)
        self._n = n

    def matrix(self, vals: np.ndarray) -> sp.csr_matrix:
        data = np.bincount(self._slots, vals, minlength=len(self._indices))
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(self._n, self._n))


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, free: np.ndarray,
                    fixed: np.ndarray, values: np.ndarray):
    """Restrict A x = b to the free dofs: A_ff and b_f - A_fc x_fixed.

    ``free`` is the complement of ``fixed``, which lists each dof once;
    the reduced system is symmetric when A is.
    """
    A_f = A[free]
    return A_f[:, free], b[free] - A_f[:, fixed] @ values


class SparseLU:
    """Direct solver for one sparse matrix that keeps its LU factor.

    The factorisation runs at the first solve and later solves reuse it,
    so a fresh SparseLU costs what a one-off solve does. The matrices of
    this package are structurally symmetric, so the fill-reducing order
    is minimum degree on A + A^T with pivots kept on the diagonal where
    they are within 1 % of the column's largest entry.
    """

    def __init__(self, A: sp.spmatrix):
        self._matrix = A
        self._lu = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._lu is None:
            try:
                self._lu = spla.splu(sp.csc_matrix(self._matrix),
                                     permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.01,
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise SingularSystemError(str(exc)) from None
            self._matrix = None
        x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("linear solve produced non-finite values")
        return x


def solve_sparse(A: sp.spmatrix | SparseLU, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve; raises SingularSystemError on a singular matrix.

    ``A`` is a sparse matrix, or a SparseLU whose factor is reused.
    """
    return (A if isinstance(A, SparseLU) else SparseLU(A)).solve(b)
