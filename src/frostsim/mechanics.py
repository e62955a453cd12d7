"""Plane strain mechanics with pore pressure loading and nonlocal damage.

The solid skeleton is linear elastic degraded by an isotropic damage
variable per element. Ice crystallization enters as an equivalent pore
pressure weighted by the Biot coefficient, thermal expansion as an
eigenstrain; both act as element loads on the damaged stiffness:

    sum_e (1 - d_e) B^T D_e B A_e u = sum_e B^T [b p_p i + (1 - d_e) D_e eps_th] A_e

with i = {1, 1, 0} in Voigt order [eps_xx, eps_yy, gamma_xy]. Damage is
driven by the nonlocal average of the equivalent tensile strain of the
total strain field and never decreases. The stiffness keeps a small
residual factor at full damage so the system stays solvable.

Supports come from the mesh tags: u_x = 0 on A edges, u_y = 0 on B edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import (BandedCholesky, BandLayout, SparsePattern,
                      apply_dirichlet, positions, solve_sparse)
from .errors import InvalidParametersError
from .mesh import BoundaryTag, Mesh

# Voigt vector of an isotropic unit strain or stress in 2-D
_IDENTITY = np.array([1.0, 1.0, 0.0])


def biot_coefficient(n: float) -> float:
    """Biot coefficient b = 2n / (n + 1) from the total porosity."""
    if not 0.0 <= n <= 1.0:
        raise InvalidParametersError("porosity must lie in [0, 1]")
    return 2.0 * n / (n + 1.0)


def elastic_stiffness(E: float, nu: float) -> np.ndarray:
    """Plane strain elasticity matrix, Voigt order [xx, yy, xy]."""
    if E <= 0.0:
        raise InvalidParametersError("Young's modulus must be positive")
    if not -1.0 < nu < 0.5:
        raise InvalidParametersError("Poisson ratio must lie in (-1, 0.5)")
    c = E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return c * np.array([
        [1.0 - nu, nu, 0.0],
        [nu, 1.0 - nu, 0.0],
        [0.0, 0.0, 0.5 * (1.0 - 2.0 * nu)],
    ])


def mazars_equivalent_strain(strain: np.ndarray) -> np.ndarray:
    """Equivalent tensile strain sqrt(sum <eps_I>^2) of plane strain states.

    ``strain`` is Voigt [eps_xx, eps_yy, gamma_xy] with engineering shear,
    shape (..., 3). The out-of-plane principal strain is zero and never
    contributes. Positive part brackets drop compressive principals.
    """
    strain = np.asarray(strain, dtype=float)
    exx = strain[..., 0]
    eyy = strain[..., 1]
    exy = 0.5 * strain[..., 2]
    mean = 0.5 * (exx + eyy)
    radius = np.sqrt((0.5 * (exx - eyy)) ** 2 + exy ** 2)
    p1 = np.maximum(mean + radius, 0.0)
    p2 = np.maximum(mean - radius, 0.0)
    return np.sqrt(p1 ** 2 + p2 ** 2)


def damage_function(kappa, eps_0: float, eps_f: float):
    """Damage g(kappa): 0 up to eps_0, linear to 1 at eps_f, then 1."""
    if not 0.0 < eps_0 < eps_f:
        raise InvalidParametersError("need 0 < eps_0 < eps_f")
    kappa = np.asarray(kappa, dtype=float)
    out = np.clip((kappa - eps_0) / (eps_f - eps_0), 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def _column_rank(A: np.ndarray) -> int:
    """Rank of the few columns of A, by Gram-Schmidt orthogonalisation: a
    column adds to it when its part outside the span of the columns before
    it exceeds 1e-10 of its norm."""
    basis = []
    for column in A.T:
        rest = column.copy()
        for q in basis:
            rest -= (q @ rest) * q
        norm = np.linalg.norm(rest)
        if norm > 1e-10 * np.linalg.norm(column):
            basis.append(rest / norm)
    return len(basis)


def _compact(cells: np.ndarray) -> np.ndarray:
    """Renumber integer cell coordinates so that neighbours stay one apart
    and every larger gap becomes two; the range then grows with the
    number of points, not with the extent over the cell size."""
    values, inverse = np.unique(cells, return_inverse=True)
    gaps = np.minimum(np.diff(values), 2)
    return np.concatenate([[0], np.cumsum(gaps)])[inverse]


def neighbour_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of points at most ``radius`` apart.

    A cell list: the points are binned into squares of side ``radius``,
    and each is compared with the points of its own and the eight
    neighbouring squares, found by sorting the square keys.
    """
    cx, cy = (_compact(np.floor(points[:, axis] / radius).astype(np.int64))
              for axis in (0, 1))
    width = int(cx.max()) + 3               # a margin column on each side
    key = (cy + 1) * width + cx + 1
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    found = []
    for shift in (-width - 1, -width, -width + 1, -1, 0, 1,
                  width - 1, width, width + 1):
        lo = np.searchsorted(sorted_key, key + shift, side="left")
        count = np.searchsorted(sorted_key, key + shift, side="right") - lo
        first = np.repeat(np.arange(len(points)), count)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(count) - count,
                                                   count)
        second = order[np.repeat(lo, count) + offset]
        found.append(np.stack([first, second], axis=1)[first < second])
    pairs = np.concatenate(found)
    d2 = np.sum((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2, axis=1)
    pairs = pairs[d2 <= radius ** 2]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class NonlocalAverager:
    """Gaussian area-weighted averaging between element centroids.

    Weight of source element j at target i is exp(-d^2 / (2 l^2)) A_j,
    truncated at 3 l, normalized per target so rows sum to one. The
    element itself always contributes, so when no two centroids lie
    within 3 l (``num_pairs`` is 0) the operator is exactly the identity.
    """

    def __init__(self, mesh: Mesh, length: float):
        if length <= 0.0:
            raise InvalidParametersError("interaction length must be positive")
        self.length = length
        centroids = mesh.centroids
        areas = mesh.areas
        pairs = neighbour_pairs(centroids, 3.0 * length)
        e = mesh.num_elements
        d2 = np.sum((centroids[pairs[:, 0]] - centroids[pairs[:, 1]]) ** 2,
                    axis=1)
        w = np.exp(-d2 / (2.0 * length ** 2))
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(e)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(e)])
        vals = np.concatenate([w * areas[pairs[:, 1]],
                               w * areas[pairs[:, 0]], areas])
        W = sp.coo_matrix((vals, (rows, cols)), shape=(e, e)).tocsr()
        # dividing by the row sum, not multiplying by its inverse, makes a
        # row without neighbours exactly the identity row
        W.data /= np.repeat(np.asarray(W.sum(axis=1)).ravel(),
                            np.diff(W.indptr))
        self.weights = W
        self.num_pairs = len(pairs)

    def __call__(self, element_values: np.ndarray) -> np.ndarray:
        return self.weights @ np.asarray(element_values, dtype=float)


@dataclass(frozen=True)
class MechParams:
    E: float = 1e10             # Pa
    nu: float = 0.2             # -
    f_t: float = 2.5e6          # Pa, tensile strength; inf disables damage
    eps_f: float = 2.5e-3       # -, strain at full damage
    l_intl: float = 1e-3        # m, nonlocal interaction length
    alpha: float = 1.2e-5       # K^-1, thermal expansion
    n: float = 0.35             # -, porosity (Biot coefficient input)
    residual_stiffness: float = 1e-6
    body_force: tuple[float, float] = (0.0, 0.0)   # N m^-3

    def __post_init__(self):
        elastic_stiffness(self.E, self.nu)        # validates E, nu
        biot_coefficient(self.n)                  # validates n
        if self.f_t <= 0.0:
            raise InvalidParametersError("tensile strength must be positive")
        if np.isfinite(self.f_t) and not self.eps_0 < self.eps_f:
            raise InvalidParametersError("need f_t / E < eps_f")
        if self.l_intl <= 0.0:
            raise InvalidParametersError("interaction length must be positive")
        if not 0.0 < self.residual_stiffness < 1.0:
            raise InvalidParametersError("residual stiffness must lie in (0, 1)")

    @property
    def eps_0(self) -> float:
        """Damage threshold strain f_t / E."""
        return self.f_t / self.E

    @property
    def biot(self) -> float:
        return biot_coefficient(self.n)


@dataclass
class MechState:
    """Displacements plus the damage history of every element."""

    u: np.ndarray               # (2N,) nodal displacements, m
    kappa: np.ndarray           # (E,) largest nonlocal equivalent strain seen
    d_w: np.ndarray             # (E,) damage in [0, 1]
    converged: bool = True
    iterations: int = 0
    factorisations: int = 0     # factorisations of the reduced stiffness

    @classmethod
    def zero(cls, mesh: Mesh) -> "MechState":
        return cls(np.zeros(2 * mesh.num_nodes),
                   np.zeros(mesh.num_elements),
                   np.zeros(mesh.num_elements))


class MechanicsProblem:
    """Assembled geometry, supports and nonlocal weights for one mesh.

    ``constraints`` overrides the tag-derived supports with explicit
    (dof ids, values); dof 2i is u_x of node i, dof 2i + 1 is u_y. A dof
    listed twice keeps its first value. The constraints must hold all
    three rigid body modes.

    The free dofs are held in the bandwidth order of the mesh's nodes that
    transport uses too, each node's u_x and u_y side by side; the
    undamaged reduced stiffness is symmetric positive definite and, the
    wall being thin, has a small half-bandwidth in it. The reduction to
    the free dofs is made once, at set-up, into a layout that takes each
    damage state's band Cholesky factor straight from the stiffness data.
    The factor is kept while the element stiffness factors stay the same;
    every damage iteration makes one ``solve_sparse`` call.
    """

    def __init__(self, mesh: Mesh, params: MechParams,
                 constraints: tuple[np.ndarray, np.ndarray] | None = None):
        self.mesh = mesh
        self.params = params
        self.D = elastic_stiffness(params.E, params.nu)
        self.averager = NonlocalAverager(mesh, params.l_intl)

        grads = mesh.grads                    # (E, 3, 2)
        e = mesh.num_elements
        B = np.zeros((e, 3, 6))
        B[:, 0, 0::2] = grads[:, :, 0]
        B[:, 1, 1::2] = grads[:, :, 1]
        B[:, 2, 0::2] = grads[:, :, 1]
        B[:, 2, 1::2] = grads[:, :, 0]
        self.B = B
        self.KE = (B.transpose(0, 2, 1) @ (self.D @ B)) \
            * mesh.areas[:, None, None]       # undamaged element stiffness

        conn = mesh.elements
        dofs = np.empty((e, 6), dtype=np.int64)
        dofs[:, 0::2] = 2 * conn
        dofs[:, 1::2] = 2 * conn + 1
        self.dofs = dofs
        # the stiffness as a fixed map from the per-element damage factor,
        # weighted by KE, whose memory it shares; entry (2 a + x, 2 b + y)
        # of an element lies in the (x, y) block of the mesh's node graph,
        # the dofs interleaved, at the graph slot of its node pair (a, b)
        graph = mesh.graph
        indptr, indices, slot_of = graph.blocks(interleaved=True)
        slots = slot_of[:, :, graph.slots.reshape(e, 3, 3)]
        self._pattern = SparsePattern(indptr, indices,
                                      slots.transpose(2, 3, 0, 4, 1).ravel(),
                                      np.full(e, 36), self.KE.ravel())

        if constraints is None:
            fixed = np.concatenate([
                2 * mesh.nodes_with_tag(BoundaryTag.A),
                2 * mesh.nodes_with_tag(BoundaryTag.B) + 1])
            constraints = (fixed, np.zeros(len(fixed)))
        self.constraint_dofs, first = np.unique(
            np.asarray(constraints[0], dtype=np.int64), return_index=True)
        self.constraint_values = np.asarray(constraints[1], dtype=float)[first]
        # the x and y translations and the rotation about the centroid
        x, y = (mesh.nodes - mesh.nodes.mean(axis=0)).T
        one, zero = np.ones_like(x), np.zeros_like(x)
        modes = np.stack([one, zero, -y, zero, one, x], axis=1).reshape(-1, 3)
        held = _column_rank(modes[self.constraint_dofs])
        if held < 3:
            raise InvalidParametersError(
                f"the constraints hold {held} of the 3 rigid body modes; "
                "mechanics needs all 3 constrained")

        # the free dofs in the graph's bandwidth order of the nodes, each
        # node's u_x and u_y side by side; the reduction in that order,
        # made once on the positions of the stiffness entries, lays out
        # each stiffness's band straight from its data
        K = self._pattern.matrix(np.ones(e))
        n = 2 * mesh.num_nodes
        free = (2 * graph.order[:, None] + np.arange(2)).ravel()
        self._free = free[~np.isin(free, self.constraint_dofs, kind="table")]
        self._layout = BandLayout(apply_dirichlet(
            positions(K), np.zeros(n), self._free, self.constraint_dofs,
            self.constraint_values)[0], symmetric=True)
        # the prescribed displacements, zero on the free dofs: a stiffness
        # times them, on the free rows, is the load they move to the right
        self._prescribed = np.zeros(n)
        self._prescribed[self.constraint_dofs] = self.constraint_values
        # set by each factorisation: the factor, the stiffness factor it
        # is for and the load of the prescribed displacements
        self._factor: BandedCholesky | None = None
        self._base = self._held = None

    # -- pieces -------------------------------------------------------------

    def strains(self, u: np.ndarray) -> np.ndarray:
        """Element Voigt strains (E, 3) from nodal displacements."""
        return np.einsum("eij,ej->ei", self.B, u[self.dofs])

    # -- kept factor --------------------------------------------------------

    def _factorise(self, factor: np.ndarray) -> None:
        """Keep the band Cholesky factor of the reduced stiffness under
        ``factor`` and the reduced load of the prescribed displacements."""
        self._factor = None         # freed before its successor is built
        K = self._pattern.matrix(factor)
        # bitwise the load apply_dirichlet gives: the products with the
        # zeros on the free dofs add nothing to the row sums
        self._held = (K @ self._prescribed)[self._free]
        self._factor = BandedCholesky(self._layout.band(K))
        self._base = factor

    # -- equilibrium --------------------------------------------------------

    def solve(self, theta=None, theta_ref: float = 0.0, p_p=None,
              prev: MechState | None = None, *, tol: float = 1e-4,
              max_iter: int = 30) -> MechState:
        """Secant iteration between elastic solves and damage updates.

        Returns the new state; ``converged`` is False when the damage
        update still moved more than ``tol`` after ``max_iter`` rounds.
        Damage and its history variable never drop below ``prev``.
        """
        mesh = self.mesh
        e = mesh.num_elements
        prev = prev if prev is not None else MechState.zero(mesh)
        p_p = np.zeros(e) if p_p is None else np.asarray(p_p, dtype=float)
        if theta is not None:
            eps_th = self.params.alpha * (mesh.element_mean(theta) - theta_ref)
        else:
            eps_th = np.zeros(e)

        # element loads per unit area of a unit pore pressure and of a
        # unit thermal strain, weighted by the element areas below; the
        # pore pressure and the body force load every iteration alike, the
        # thermal load scales with the stiffness factor
        unit_p = mesh.grads.reshape(-1, 6)
        unit_th = (self.D @ _IDENTITY)[0] * unit_p
        body = np.tile(self.params.body_force, 3) * (mesh.areas / 3.0)[:, None]
        dofs, n = self.dofs.ravel(), 2 * mesh.num_nodes
        fixed = np.bincount(
            dofs, ((self.params.biot * p_p * mesh.areas)[:, None] * unit_p
                   + body).ravel(), minlength=n)
        thermal = eps_th * mesh.areas

        kappa_floor = prev.kappa
        d = prev.d_w.copy()
        eps0 = self.params.eps_0
        u = prev.u.copy()
        kappa = kappa_floor.copy()
        converged = False
        iterations = factorisations = 0
        for iterations in range(1, max_iter + 1):
            factor = np.maximum(1.0 - d, self.params.residual_stiffness)
            F = fixed + np.bincount(
                dofs, ((factor * thermal)[:, None] * unit_th).ravel(),
                minlength=n)
            if self._factor is None or not np.array_equal(factor, self._base):
                self._factorise(factor)
                factorisations += 1
            u[self._free] = solve_sparse(self._factor,
                                         F[self._free] - self._held)
            u[self.constraint_dofs] = self.constraint_values
            eq = mazars_equivalent_strain(self.strains(u))
            kappa = np.maximum(kappa_floor, self.averager(eq))
            if np.isfinite(eps0):
                d_new = damage_function(kappa, eps0, self.params.eps_f)
            else:
                d_new = np.zeros(e)
            delta = float(np.max(np.abs(d_new - d)))
            d = d_new
            if delta < tol:
                converged = True
                break
        return MechState(u, kappa, d, converged, iterations, factorisations)
