"""Shared sparse helpers: fixed-pattern assembly, Dirichlet reduction to
the free dofs, a bandwidth order with its band storage, and guarded
direct solves."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SingularSystemError


class SparsePattern:
    """Fixed linear map from a coefficient vector to a square CSR matrix.

    Entry k of the lists lies at ``(rows[k], cols[k])`` and adds
    ``weights[k]`` times its coefficient there; entries at one position
    sum. The entries are listed by coefficient: the first ``counts[0]``
    scale ``coefs[0]``, the next ``counts[1]`` scale ``coefs[1]``, and so
    on. With ``take``, the position lists are indexed by it instead:
    entry k lies at ``(rows[take[k]], cols[take[k]])``, so blocks of
    entries that repeat one set of positions list and sort it once. The
    map is a CSC matrix with a row per CSR slot and a column per
    coefficient; its columns hold the entries in the listed order and its
    column pointers are the running counts, so only the pattern itself
    needs a sort. ``weights`` is held as the map's data, not copied.
    ``matrix(coefs)`` is one sparse mat-vec, and each slot sums its
    entries in the listed order; a shorter ``coefs`` leaves the last
    coefficients, and their entries, out. Every matrix it returns shares
    the map's index arrays, which are read-only: an in-place change of
    structure, such as ``eliminate_zeros``, raises ValueError instead of
    rewriting the map; make it on a copy.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray,
                 counts: np.ndarray, weights: np.ndarray, n: int,
                 take: np.ndarray | None = None):
        # what np.unique(keys, return_inverse=True) gives, with fewer int64
        # copies of the position list alive at once and int32 slots
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        pattern = keys[first]
        del keys
        slots = np.empty(len(order), dtype=np.int32)
        slots[order] = np.cumsum(first, dtype=np.int32)
        slots -= 1
        del order, first
        if take is not None:
            slots = slots[take]
        self._indices = (pattern % n).astype(np.int32)
        self._indptr = np.searchsorted(pattern,
                                       np.arange(n + 1) * n).astype(np.int32)
        self._indices.setflags(write=False)
        self._indptr.setflags(write=False)
        self._scatter = sp.csc_matrix(
            (weights, slots,
             np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
            shape=(len(pattern), len(counts)))
        self._n = n
        self._head = self._scatter      # a view of its leading columns

    def matrix(self, coefs: np.ndarray) -> sp.csr_matrix:
        scatter, m = self._scatter, len(coefs)
        if m < scatter.shape[1]:
            if self._head.shape[1] != m:
                end = scatter.indptr[m]
                self._head = sp.csc_matrix(
                    (scatter.data[:end], scatter.indices[:end],
                     scatter.indptr[:m + 1]), shape=(scatter.shape[0], m))
            scatter = self._head
        return sp.csr_matrix((scatter @ coefs, self._indices,
                              self._indptr), shape=(self._n, self._n))


def apply_dirichlet(A: sp.csr_matrix, b: np.ndarray, free: np.ndarray,
                    fixed: np.ndarray, values: np.ndarray):
    """Restrict A x = b to the free dofs: A_ff and b_f - A_fc x_fixed.

    ``free`` is the complement of ``fixed``, which lists each dof once;
    the reduced system is symmetric when A is.
    """
    A_f = A[free]
    return A_f[:, free], b[free] - A_f[:, fixed] @ values


def bandwidth_order(A: sp.csr_matrix, skip: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill and McKee, 1969) of the
    vertices of A's symmetric graph that are not in ``skip``, on the
    graph they induce, which is what ``apply_dirichlet`` leaves with the
    ``skip`` dofs fixed. Each connected part starts from a vertex found as
    George and Liu (1981) find a pseudo-peripheral one; each
    breadth-first level lists its vertices by their first neighbour in
    the level before, then by degree, then by number."""
    n = A.shape[0]
    seen = np.zeros(n + 1, dtype=bool)      # vertex n pads the table
    seen[skip] = seen[n] = True
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    inside = ~seen[A.indices]
    rows, cols = rows[inside], A.indices[inside]
    degree = np.bincount(rows, minlength=n)
    width = int(degree.max(initial=1))
    # row v of the table: v's neighbours by degree, then number
    cols = cols[np.argsort(rows * np.int32(width + 1) + degree[cols],
                           kind="stable")]
    table = np.full((n + 1, width), n, dtype=np.int32)
    table.ravel()[rows * width + np.arange(len(rows))
                  - np.repeat(np.cumsum(degree) - degree, degree)] = cols

    def levels(start):
        done, first = seen.copy(), np.full(n + 1, table.size)
        done[start] = True
        found = [np.array([start])]
        while True:
            near = table[found[-1]].ravel()
            near = near[~done[near]]
            if not len(near):
                return found
            at = np.arange(len(near))
            np.minimum.at(first, near, at)
            found.append(near[first[near] == at])
            done[found[-1]] = True

    order = []
    while not seen.all():
        rest = np.flatnonzero(~seen)
        found = levels(rest[np.argmin(degree[rest])])
        while len(deeper := levels(
                found[-1][np.argmin(degree[found[-1]])])) > len(found):
            found = deeper
        order.extend(found)
        seen[np.concatenate(found)] = True
    return np.concatenate(order)[::-1]


class BandLayout:
    """Fixed map from the data of CSR matrices of one symmetric structure
    and entry order to LAPACK's lower band storage: entry (i, j), j <= i,
    goes to ``band[i - j, j]`` of a Fortran (kd + 1, n) array."""

    def __init__(self, A: sp.csr_matrix):
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        lower = rows >= A.indices
        depth = rows[lower] - A.indices[lower]
        self.shape = (int(depth.max(initial=0)) + 1, A.shape[0])
        self._take = np.flatnonzero(lower).astype(np.int32)
        self._put = (A.indices[lower] * self.shape[0] + depth).astype(np.int32)

    def band(self, A: sp.csr_matrix) -> np.ndarray:
        band = np.zeros(self.shape[0] * self.shape[1])
        band[self._put] = A.data[self._take]
        return band.reshape(self.shape, order="F")


def _splu(A: sp.spmatrix):
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.01,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from None


class SparseLU:
    """Direct solver for one sparse matrix that keeps its LU factor.

    The factorisation runs at the first solve and later solves reuse it,
    so a fresh SparseLU costs what a one-off solve does. ``solve`` takes
    one right-hand side of shape (n,), or several as the columns of an
    (n, r) array, solved in one call. The matrices of this package are
    structurally symmetric, so the fill-reducing order is minimum degree
    on A + A^T with pivots kept on the diagonal where they are within 1 %
    of the column's largest entry.

    With ``split=k`` only the diagonal blocks A[:k, :k] and A[k:, k:] are
    factorised, and A[:k, k:] is kept: a solve is block back-substitution,
    x[k:] from the lower block, then x[:k] from the upper one with
    A[:k, k:] x[k:] moved to the right. It is exact for the block
    upper-triangular part of A, which drops A[k:, :k].
    """

    def __init__(self, A: sp.spmatrix, split: int | None = None):
        self._matrix = A
        self._split = split
        self._lu = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        k = self._split
        if self._lu is None:
            if k is None:
                self._lu = _splu(self._matrix)
            else:
                A = sp.csr_matrix(self._matrix)
                self._lu = (_splu(A[:k, :k]), _splu(A[k:, k:]), A[:k, k:])
            self._matrix = None
        if k is None:
            x = self._lu.solve(b)
        else:
            upper, lower, coupling = self._lu
            x_k = lower.solve(b[k:])
            x = np.concatenate([upper.solve(b[:k] - coupling @ x_k), x_k])
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("linear solve produced non-finite values")
        return x


class BandedCholesky:
    """Band Cholesky factor (LAPACK dpbtrf, dpbtrs) of a symmetric positive
    definite matrix, given as a ``BandLayout`` band, which it factorises
    in place at the first solve and keeps, as SparseLU does; ``solve``
    takes b as SparseLU's does. A pivot that is not positive raises
    SingularSystemError, as does a solution that is not finite."""

    def __init__(self, band: np.ndarray):
        self._band, self._factored = band, False

    def solve(self, b: np.ndarray) -> np.ndarray:
        if not self._factored:
            self._band, info = lapack.dpbtrf(self._band, lower=1,
                                             overwrite_ab=1)
            if info != 0:
                raise SingularSystemError(
                    f"matrix not positive definite at pivot {info}")
            self._factored = True
        x = lapack.dpbtrs(self._band, np.reshape(b, (len(b), -1)),
                          lower=1)[0].reshape(np.shape(b))
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("linear solve produced non-finite values")
        return x


def solve_sparse(A: sp.spmatrix | SparseLU | BandedCholesky,
                 b: np.ndarray) -> np.ndarray:
    """Direct sparse solve; raises SingularSystemError on a singular matrix
    or on a solution with a value that is not finite.

    ``A`` is a sparse matrix, or a SparseLU or BandedCholesky whose factor
    is reused. ``b`` has shape (n,), or (n, k) for k right-hand sides at
    once.
    """
    return (A if isinstance(A, (SparseLU, BandedCholesky))
            else SparseLU(A)).solve(b)
