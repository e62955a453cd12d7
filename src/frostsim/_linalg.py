"""Shared sparse helpers: a mesh's node graph, fixed-pattern assembly,
Dirichlet reduction to the free dofs, a bandwidth order, and guarded
direct solves in LAPACK band storage through layouts fixed at set-up."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import SingularSystemError


class SparsePattern:
    """Fixed linear map from a coefficient vector to a square CSR matrix.

    The matrices have the CSR structure ``(indptr, indices)``. Entry k of
    the lists adds ``weights[k]`` times its coefficient to slot
    ``slots[k]`` of their data; entries at one slot sum. The entries are
    listed by coefficient: the first ``counts[0]`` scale ``coefs[0]``, the
    next ``counts[1]`` scale ``coefs[1]``, and so on. The map is a CSC
    matrix with a row per CSR slot and a column per coefficient; its
    columns hold the entries in the listed order and its column pointers
    are the running counts. ``weights`` is held as the map's data, not
    copied. ``matrix(coefs)`` is one sparse mat-vec, and each slot sums
    its entries in the listed order; a shorter ``coefs`` leaves the last
    coefficients, and their entries, out. Every matrix it returns shares
    the map's index arrays, which are read-only: an in-place change of
    structure, such as ``eliminate_zeros``, raises ValueError instead of
    rewriting the map; make it on a copy.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 slots: np.ndarray, counts: np.ndarray, weights: np.ndarray):
        self._indices = indices.astype(np.int32)
        self._indptr = indptr.astype(np.int32)
        self._indices.setflags(write=False)
        self._indptr.setflags(write=False)
        self._scatter = sp.csc_matrix(
            (weights, np.asarray(slots, dtype=np.int32),
             np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
            shape=(len(indices), len(counts)))
        self._n = len(indptr) - 1
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


def positions(A: sp.csr_matrix) -> sp.csr_matrix:
    """A's structure holding each entry's position in A.data as its value.

    A selection made from it once, such as a block, a reordering or the
    reduction of ``apply_dirichlet``, tells where each of its entries sits
    in the data of every matrix of A's structure; ``Gather`` and
    ``BandLayout`` repeat it on each matrix as one gather, which copies
    the values the selection would.
    """
    return sp.csr_matrix((np.arange(A.nnz), A.indices, A.indptr),
                         shape=A.shape)


def bandwidth_order(A: sp.csr_matrix) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill and McKee, 1969) of the
    vertices of A's symmetric graph. Each connected part starts from a
    vertex found as George and Liu (1981) find a pseudo-peripheral one;
    each breadth-first level lists its vertices by their first neighbour
    in the level before, then by degree, then by number."""
    n = A.shape[0]
    seen = np.zeros(n + 1, dtype=bool)      # vertex n pads the table
    seen[n] = True
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    degree = np.bincount(rows, minlength=n)
    width = int(degree.max(initial=1))
    # row v of the table: v's neighbours by degree, then number
    cols = A.indices[np.argsort(rows * np.int32(width + 1)
                                + degree[A.indices], kind="stable")]
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


class NodeGraph:
    """Node adjacency of a mesh of linear triangles, which every operator
    on it shares, built once.

    ``indptr`` and ``indices`` are its int32 CSR structure, the diagonal
    included and the columns of each row ascending; ``slots[e, 3 a + b]``
    is the position in it of element e's local node pair (a, b) and
    ``diagonal[i]`` that of (i, i). ``order`` is a ``bandwidth_order`` of
    the nodes. ``blocks`` lays out an operator with two dofs per node on
    it by index arithmetic alone.
    """

    def __init__(self, elements: np.ndarray, n: int):
        # the element pairs, then a diagonal key per node
        keys = np.concatenate([np.repeat(elements, 3, axis=1).ravel() * n
                               + np.tile(elements, (1, 3)).ravel(),
                               np.arange(n) * (n + 1)])
        pattern = np.unique(keys)
        slots = np.searchsorted(pattern, keys).astype(np.int32)
        self.slots = slots[:-n].reshape(-1, 9)
        self.diagonal = slots[-n:]
        self.indices = (pattern % n).astype(np.int32)
        self.indptr = np.searchsorted(pattern,
                                      np.arange(n + 1) * n).astype(np.int32)
        self.order = bandwidth_order(
            sp.csr_matrix((np.ones(len(pattern)), self.indices, self.indptr),
                          shape=(n, n)))
        for arr in (self.slots, self.diagonal, self.indices, self.indptr,
                    self.order):
            arr.setflags(write=False)

    def blocks(self, interleaved: bool):
        """CSR structure ``(indptr, indices)`` of an operator with dofs I = 0,
        1 at each node, whose node pairs of the graph are its 2 x 2 blocks,
        and ``at``, where ``at[I, J, p]`` is the position in it of dof pair
        (I, J) of the graph's entry p. Dof I of node i is I n + i, or with
        ``interleaved`` 2 i + I; either way each row's columns ascend."""
        n, nnz = len(self.indptr) - 1, len(self.indices)
        degree = np.diff(self.indptr)
        start = np.repeat(self.indptr[:-1], degree)     # of each entry's row
        inside = np.arange(nnz, dtype=np.int32) - start  # place in its row
        width = np.repeat(degree, degree)
        two = np.arange(2, dtype=np.int32)
        I, J = two[:, None, None], two[None, :, None]
        if interleaved:
            rows = 4 * self.indptr[:-1, None] + 2 * degree[:, None] * two
            at = 4 * start + 2 * I * width + 2 * inside + J
            cols = 2 * self.indices + J
        else:
            rows = 2 * nnz * two[:, None] + 2 * self.indptr[:-1]
            at = 2 * nnz * I + 2 * start + J * width + inside
            cols = self.indices + n * J
        indices = np.empty(4 * nnz, dtype=np.int32)
        indices[at] = cols
        return np.append(rows.ravel(), 4 * nnz), indices, at


class Gather:
    """Fixed map from the data of CSR matrices of one structure to a CSR
    matrix of the structure of ``where``, a selection made once from their
    ``positions``: each matrix gives the values that selection would."""

    def __init__(self, where: sp.csr_matrix):
        self._take = where.data.astype(np.int32)
        self._indices = where.indices.astype(np.int32)
        self._indptr = where.indptr.astype(np.int32)
        self.shape = where.shape

    def matrix(self, A: sp.csr_matrix) -> sp.csr_matrix:
        return sp.csr_matrix((A.data[self._take], self._indices,
                              self._indptr), shape=self.shape)


class BandLayout:
    """Fixed map from the data of CSR matrices of one structure to LAPACK
    band storage of the square matrix that ``where``, a selection made once
    from their ``positions``, lays out. ``kl`` and ``ku`` count its sub-
    and super-diagonals. With ``symmetric`` it is the lower storage of
    dpbtrf: entry (i, j), j <= i, at ``band[i - j, j]`` of a Fortran
    (kl + 1, n) array. Otherwise it is the general storage of dgbtrf:
    entry (i, j) at ``band[kl + ku + i - j, j]`` of a (2 kl + ku + 1, n)
    array, whose first kl rows take the fill of the pivoting."""

    def __init__(self, where: sp.csr_matrix, symmetric: bool = False):
        rows = np.repeat(np.arange(where.shape[0]), np.diff(where.indptr))
        cols, take = where.indices, where.data
        if symmetric:
            lower = rows >= cols
            rows, cols, take = rows[lower], cols[lower], take[lower]
        self.kl = int((rows - cols).max(initial=0))
        self.ku = 0 if symmetric else int((cols - rows).max(initial=0))
        top = 0 if symmetric else self.kl + self.ku
        self.shape = (top + self.kl + 1, where.shape[0])
        self._take = take.astype(np.int32)
        self._put = (cols * self.shape[0] + top + rows - cols).astype(np.int32)

    def band(self, A: sp.csr_matrix) -> np.ndarray:
        band = np.zeros(self.shape[0] * self.shape[1])
        band[self._put] = A.data[self._take]
        return band.reshape(self.shape, order="F")


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("linear solve produced non-finite values")
    return x


class BandedCholesky:
    """Band Cholesky factor (LAPACK dpbtrf, dpbtrs) of a symmetric positive
    definite matrix, given as a symmetric ``BandLayout`` band, which it
    factorises in place at the first solve and keeps. ``solve`` takes one
    right-hand side of shape (n,), or several as the columns of an (n, r)
    array, solved in one call. A pivot that is not positive raises
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
        return _finite(lapack.dpbtrs(self._band, np.reshape(b, (len(b), -1)),
                                     lower=1)[0].reshape(np.shape(b)))


class BandLU:
    """LU factor with partial pivoting (LAPACK dgbtrf, dgbtrs) of a matrix
    whose rows and columns ``order`` lists, given as a general
    ``BandLayout`` band of A[order][:, order] with ``kl`` sub-diagonals. It
    factorises the band in place at the first solve and keeps it, as
    BandedCholesky does; ``solve`` takes and gives vectors in A's
    numbering. A zero pivot raises SingularSystemError naming it, as does
    a solution that is not finite."""

    def __init__(self, band: np.ndarray, kl: int, order: np.ndarray):
        self._band, self._kl, self._order = band, kl, order
        self._pivots = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        kl, order = self._kl, self._order
        ku = self._band.shape[0] - 2 * kl - 1
        if self._pivots is None:
            self._band, self._pivots, info = lapack.dgbtrf(
                self._band, kl, ku, overwrite_ab=1)
            if info != 0:
                raise SingularSystemError(
                    f"matrix singular: zero pivot {info} of {len(order)}")
        x = np.empty(np.shape(b))
        x[order] = lapack.dgbtrs(self._band, kl, ku,
                                 np.reshape(b[order], (len(order), -1)),
                                 self._pivots)[0].reshape(np.shape(b))
        return _finite(x)


class SplitLU:
    """Block back-substitution on LU factors of the diagonal blocks of a
    matrix A split at k, with its block A[:k, k:] kept: x[k:] from the
    lower block, then x[:k] from the upper one with A[:k, k:] x[k:] moved
    to the right. It is exact for the block upper-triangular part of A,
    which drops A[k:, :k]."""

    def __init__(self, upper: BandLU, lower: BandLU,
                 coupling: sp.csr_matrix):
        self._upper, self._lower, self._coupling = upper, lower, coupling

    def solve(self, b: np.ndarray) -> np.ndarray:
        k = self._coupling.shape[0]
        x_k = self._lower.solve(b[k:])
        return np.concatenate([self._upper.solve(b[:k] - self._coupling @ x_k),
                               x_k])


class BandFactors:
    """Band LU factors of square matrices of the structure of A, through
    layouts built from it once.

    ``factor(M)`` splits M at ``split`` into a SplitLU: each diagonal block
    goes into band storage in its order of ``orders``, a permutation of the
    block's own rows, and A[:k, k:] is gathered. With ``whole``, or without
    ``split``, it is a BandLU of all of M in the order ``orders[2]``, whose
    layout is built at its first use. Without ``orders`` each order is the
    natural one.
    """

    def __init__(self, A: sp.csr_matrix, split: int | None = None,
                 orders: tuple[np.ndarray, ...] | None = None):
        m = A.shape[0]
        k = m if split is None else split
        self._orders = orders or (np.arange(k), np.arange(m - k),
                                  np.arange(m))
        self._split = None
        if split is not None:
            upper, lower = self._orders[0], self._orders[1] + k
            where = positions(A)
            self._split = (BandLayout(where[upper][:, upper]),
                           BandLayout(where[lower][:, lower]),
                           Gather(where[:k, k:]))
        self._whole = None

    def factor(self, M: sp.csr_matrix,
               whole: bool = False) -> SplitLU | BandLU:
        upper_order, lower_order, order = self._orders
        if self._split is not None and not whole:
            upper, lower, coupling = self._split
            return SplitLU(BandLU(upper.band(M), upper.kl, upper_order),
                           BandLU(lower.band(M), lower.kl, lower_order),
                           coupling.matrix(M))
        if self._whole is None:
            self._whole = BandLayout(positions(M)[order][:, order])
        return BandLU(self._whole.band(M), self._whole.kl, order)


def solve_sparse(factor: BandedCholesky | BandLU | SplitLU,
                 b: np.ndarray) -> np.ndarray:
    """Direct solve on a kept factor of A; raises SingularSystemError on a
    solution with a value that is not finite, or at the factor's first
    solve on a singular matrix. ``b`` has shape (n,), or (n, k) for k
    right-hand sides at once."""
    return factor.solve(b)
