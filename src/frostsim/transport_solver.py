"""Finite element solver for the coupled heat and moisture balance.

Unknowns are nodal temperature theta (degC) and relative humidity phi,
stacked as r = [theta_0 .. theta_{N-1}, phi_0 .. phi_{N-1}]. Linear
triangles carry both fields; material coefficients are evaluated once per
element at the centroid state, the shape-function products are integrated
exactly. The semi-discrete system

    K(r) r + C(r) dr/dt = F(t, r)

is advanced with the one-parameter theta scheme

    [gamma dt K + C] r_new = gamma dt F + C [r_old + dt (1 - gamma) rdot_old]

(gamma = 0.5 is the trapezoidal rule) and the nonlinearity is resolved by
Picard iteration on the frozen-coefficient system A(r) r = b(r), whose
update matrix adds the exact derivative of the latent-heat storage, the
stiff part of the heat balance below freezing; the mixing factor backs
off when the residual grows, and a second growth drops that Newton term
for the rest of the step. Every transport matrix is one sparse mat-vec
of its coefficient fields, through one map from coefficients to matrix
values fixed at construction. One factor serves the iterates of a step
and the steps after it that share gamma dt: each linear solve uses the
factor, with a few GMRES iterations on it where its answer alone is not
accurate enough, and the update matrix is factorised afresh only when
those fail too. A fresh factor covers only its diagonal blocks
[theta, theta] and [phi, phi] and keeps its [theta, phi] block, so it
solves the block upper-triangular part exactly: in the mortar model the
[phi, theta] block, the vapor flux that temperature drives, is some six
orders of magnitude below the [phi, phi] block. The nodes are held in one
bandwidth order, fixed at construction with the band layouts of both
blocks, so a fresh factor is a gather from the matrix values, a LAPACK
band LU factorisation of the [theta, theta] block, which carries the
non-symmetric Newton term, and a band Cholesky factorisation of the
[phi, phi] block, c_pp M + gamma dt k_pp S plus the exchange, which is
symmetric positive definite since storage and transport are positive.
Only where that factor's GMRES misses too is the whole matrix
factorised, by band LU, with each node's theta and phi side by side.

Boundary terms: Robin exchange adds alpha L/2 to the diagonal of the
matching block and alpha ambient L/2 to the load (edge-lumped); prescribed
boundary fluxes are positive into the domain; Dirichlet dofs leave the
system, which is solved on the free dofs. Volumetric sources exist as
callables for verification problems only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import constitutive
from ._linalg import (BandFactors, BandLU, Gather, SparsePattern, SplitLU,
                      dirichlet_lift, positions, solve_sparse)
from .errors import (
    DomainError,
    InvalidParametersError,
    StepFailureError,
)
from .mesh import BoundaryTag, Mesh

__all__ = [
    "TransportState", "CoefficientFields", "KunzelCoefficients",
    "ConstantCoefficients", "RobinBC", "BoundaryFlux", "AssembledSystem",
    "TransportProblem", "nonlinear_iterate", "NonlinearResult",
]

_SATURATED = 1.0 - 1e-9

# a Picard update accepts the kept factor's linear solve once its
# block-scaled residual is within _ETA of the right-hand side's, gives
# GMRES on that factor up to _KRYLOV_MAX iterations to get there, and
# otherwise factorises A afresh
_ETA = 1e-2
_KRYLOV_MAX = 4

Value = float | Callable[[float], float]


def _at(value: Value, t: float) -> float:
    return value(t) if callable(value) else value


@dataclass
class TransportState:
    """Nodal fields at one time level, plus the time derivative vector."""

    t: float
    theta: np.ndarray
    phi: np.ndarray
    rdot: np.ndarray
    picard_iterations: int = 0
    factorisations: int = 0
    halvings: int = 0

    @classmethod
    def uniform(cls, mesh: Mesh, theta: float, phi: float,
                t: float = 0.0) -> "TransportState":
        n = mesh.num_nodes
        return cls(t, np.full(n, float(theta)), np.full(n, float(phi)),
                   np.zeros(2 * n))

    @property
    def r(self) -> np.ndarray:
        return np.concatenate([self.theta, self.phi])


@dataclass(frozen=True)
class CoefficientFields:
    """Per-element PDE coefficients at one state."""

    k_tt: np.ndarray
    k_tp: np.ndarray
    k_pt: np.ndarray
    k_pp: np.ndarray
    c_tt: np.ndarray
    c_pp: np.ndarray
    dc_tt: np.ndarray                   # d c_tt / d theta


class KunzelCoefficients:
    """PDE coefficients of the moisture dependent mortar model.

    Conduction plus vapor enthalpy transport in the heat block, liquid
    plus vapor transport in the moisture block. The gradient of the vapor
    pressure phi p_sat(theta) is split into its theta and phi parts, which
    produces the off-diagonal coupling blocks. An ice model adds frozen
    water and latent heat to the storage coefficient; without one the
    frozen fraction is 0.

    Meets the contract ``TransportProblem`` states. ``evaluate`` and
    ``evaluate_step`` do not check their inputs: the transport problem
    bounds every centroid state by ``theta_range`` and ``phi_range``
    before it asks for coefficients.
    """

    # admissible centroid state; evaluations outside raise DomainError
    theta_range = (constitutive.THETA_MIN, constitutive.THETA_MAX)
    phi_range = (0.0, 1.0)

    def __init__(self, params: constitutive.TransportParams, ice_model=None):
        self.params = params
        self.ice_model = ice_model

    def evaluate(self, theta: np.ndarray, phi: np.ndarray) -> CoefficientFields:
        """Coefficients at theta as a step start: c_tt is the tangent."""
        return self._evaluate(theta, phi, *self.step_reference(theta))

    def step_reference(self, theta_ref):
        """Step-start data for ``evaluate_step``: the centroid temperatures
        and their frozen fraction, which stays fixed over the step."""
        frozen = (np.zeros(np.shape(theta_ref)) if self.ice_model is None
                  else self.ice_model.frozen_fraction(theta_ref))
        return theta_ref, frozen

    def evaluate_step(self, theta, phi, reference) -> CoefficientFields:
        """Coefficients for a step from ``reference = step_reference(theta_ref)``;
        the heat capacity uses the enthalpy chord so a front crossed within
        the step still absorbs the full latent heat."""
        return self._evaluate(theta, phi, *reference)

    def _evaluate(self, theta, phi, theta_ref, frozen_ref) -> CoefficientFields:
        # the unchecked kernels of constitutive: the centroid states come
        # from TransportProblem._centroid_state, which bounds them by
        # theta_range and phi_range
        params = self.params
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        p_sat, dp_sat = constitutive._saturation(theta)
        delta_v = constitutive._vapor_permeability(theta, params)
        h_v = constitutive._latent_heat_vapor(theta)
        w = constitutive._water_content(phi, params)
        c_pp = constitutive._moisture_capacity(phi, params)
        ice = ((np.zeros(np.broadcast_shapes(theta.shape, w.shape)),) * 2
               if self.ice_model is None
               else self.ice_model.ice_content(theta, w))
        c_tt, dc_tt = constitutive._effective_heat_capacity(
            theta, w, params, ice, theta_ref, frozen_ref)
        return CoefficientFields(
            k_tt=constitutive._thermal_conductivity(w, params)
                 + h_v * delta_v * phi * dp_sat,
            k_tp=h_v * delta_v * p_sat,
            k_pt=delta_v * phi * dp_sat,
            # D_phi = D_l dw/dphi, as in constitutive.moisture_diffusivity
            k_pp=constitutive._liquid_conductivity(w, params) * c_pp
                 + delta_v * p_sat,
            c_tt=c_tt, c_pp=c_pp, dc_tt=dc_tt)


class ConstantCoefficients:
    """Constant coefficients; the resulting system is linear.

    Used by verification problems (manufactured solutions, conservation
    checks) where the exact behavior of the scheme matters more than the
    material model. Meets the contract ``TransportProblem`` states with
    neutral values: unbounded ranges, no step reference and a zero
    capacity derivative.
    """

    theta_range = phi_range = (-math.inf, math.inf)

    def __init__(self, k_tt=1.0, k_tp=0.0, k_pt=0.0, k_pp=1.0,
                 c_tt=1.0, c_pp=1.0):
        self._values = (k_tt, k_tp, k_pt, k_pp, c_tt, c_pp)

    def evaluate(self, theta: np.ndarray, phi: np.ndarray) -> CoefficientFields:
        shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
        return CoefficientFields(*(np.full(shape, v) for v in self._values),
                                 dc_tt=np.zeros(shape))

    def step_reference(self, theta_ref):
        return None

    def evaluate_step(self, theta, phi, reference) -> CoefficientFields:
        return self.evaluate(theta, phi)


@dataclass(frozen=True)
class RobinBC:
    """Surface exchange toward an ambient state on one tag group."""

    alpha_h: float                  # W m^-2 K^-1
    beta_v: float                   # kg m^-2 s^-1 per unit humidity
    theta_amb: Value                # degC
    phi_amb: Value                  # -


@dataclass(frozen=True)
class BoundaryFlux:
    """Prescribed fluxes into the domain on one tag group.

    The moisture flux is switched off at nodes whose humidity has reached
    1 within the step, the flux-limiter treatment of rain on a saturated
    surface.
    """

    q_heat: Value = 0.0             # W m^-2, positive inward
    q_moist: Value = 0.0            # kg m^-2 s^-1, positive inward


@dataclass
class AssembledSystem:
    """K r + C rdot = F with block dof ordering [theta, phi]."""

    K: sp.csr_matrix
    C: sp.csr_matrix
    F: np.ndarray
    num_nodes: int

    def block(self, matrix: str, name: str) -> sp.csr_matrix:
        """Extract a block ('tt', 'tp', 'pt', 'pp') of K or C for inspection."""
        m = {"K": self.K, "C": self.C}[matrix]
        n = self.num_nodes
        rows = slice(0, n) if name[0] == "t" else slice(n, 2 * n)
        cols = slice(0, n) if name[1] == "t" else slice(n, 2 * n)
        return m[rows, cols]


@dataclass
class NonlinearResult:
    r: np.ndarray
    iterations: int
    residuals: list[float] = field(default_factory=list)
    lu: SplitLU | BandLU | None = None      # the last update's factor
    factorisations: int = 0
    fallback: bool = False          # the Newton term was dropped


def _gmres(A, lu: SplitLU | BandLU, rhs: np.ndarray,
           weights: np.ndarray) -> np.ndarray | None:
    """Solve A x = rhs on the band factor of another matrix.

    x = LU^-1 rhs stands if ||weights * (rhs - A x)|| is at most _ETA
    ||weights * rhs||; else GMRES, right-preconditioned with LU^-1
    diag(weights)^-1 so that it minimises that norm, corrects x for up to
    _KRYLOV_MAX iterations. Givens rotations keep the Hessenberg matrix
    triangular, so each iteration's residual is |g_{j+1}| and the
    correction is back-substituted once. Returns None if x still misses
    _ETA.
    """
    tol = _ETA * float(np.linalg.norm(weights * rhs))
    x = solve_sparse(lu, rhs)
    r0 = weights * (rhs - A @ x)
    beta = float(np.linalg.norm(r0))
    if beta <= tol:
        return x
    basis = [r0 / beta]
    directions = []
    hess = np.zeros((_KRYLOV_MAX, _KRYLOV_MAX))    # rotated: triangular
    rotations = []                                  # (cos, sin) per column
    g = np.zeros(_KRYLOV_MAX + 1)
    g[0] = beta
    for j in range(_KRYLOV_MAX):
        directions.append(solve_sparse(lu, basis[j] / weights))
        v = weights * (A @ directions[j])
        h = hess[:, j]
        for i, q in enumerate(basis):       # modified Gram-Schmidt
            h[i] = q @ v
            v -= h[i] * q
        norm_v = float(np.linalg.norm(v))
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = math.hypot(h[j], norm_v)
        if rho == 0.0:
            return None
        c, s = h[j] / rho, norm_v / rho
        rotations.append((c, s))
        h[j] = rho
        g[j], g[j + 1] = c * g[j], -s * g[j]
        if abs(g[j + 1]) <= tol:
            # back-substitution from the last row, each row's sum one dot
            # product
            y = g[:j + 1]
            for i in range(j, -1, -1):
                y[i] = (y[i] - hess[i, i + 1:j + 1] @ y[i + 1:]) / hess[i, i]
            return x + np.stack(directions, axis=1) @ y
        basis.append(v / norm_v)
    return None


def nonlinear_iterate(system_builder, r_guess: np.ndarray,
                      factors: BandFactors, *, tol: float = 1e-6,
                      max_iter: int = 50, relax: float = 1.0, blocks=None,
                      project=None,
                      lu: SplitLU | BandLU | None = None) -> NonlinearResult:
    """Safeguarded Picard iteration on A(r) r = b(r), with a Newton term.

    ``system_builder(r, newton)`` returns the update matrix M, b(r) and
    the residual R = A(r) r - b(r); M is A(r), plus with ``newton`` the
    part of R's Jacobian the builder supplies. Convergence is judged on
    the worst per-block ||R|| / ||b|| before each solve, so a linear
    system converges after one solve. ``relax`` is the starting (and
    maximum) mixing factor; it is halved whenever the residual grows,
    down to a quarter of its starting value, which damps the oscillation
    of the frozen-coefficient map across a phase change front without
    slowing smooth steps. The second growth while ``newton`` is asked
    for instead restarts the mixing factor at ``relax`` and drops the
    factor in hand; later iterates are plain Picard, and the result's
    ``fallback`` is set. Divergence (residual growing tenfold over five
    iterations), exceeding ``max_iter`` solves and an iterate after the
    first that the builder rejects with DomainError raise
    StepFailureError, which carries the residual history.

    Each update is r - omega delta with M delta = R solved on a band
    factor: ``lu``, the factor of an earlier matrix, or one of M made at
    the first update when ``lu`` is None. A factor's delta stands when
    its residual, scaled per block by 1 / ||b_block|| as in the
    convergence test, is within _ETA of the scaled right-hand side; else
    up to _KRYLOV_MAX GMRES iterations on the factor correct it. When
    that misses _ETA, or there is no factor, M is factorised afresh
    through ``factors``, the caller's band layouts of M's structure,
    which alone decide whether a fresh factor is split. A split one is a
    SplitLU, exact for M without its lower-left block, whose lower block
    must be symmetric positive definite, and passes the same test; only
    if it misses _ETA too, or without the split, is the whole M
    factorised by band LU and solved exactly. The old factor is released
    before a new one is built, and M and delta before the builder makes
    the next ones. The result carries the last factor and the count of
    factorisations made, one per factor.
    """
    if not 0.0 < relax <= 1.0:
        raise InvalidParametersError("relaxation factor must lie in (0, 1]")
    if max_iter < 1:
        raise InvalidParametersError("max_iter must be at least 1")
    r = np.array(r_guess, dtype=float)
    if project is not None:
        r = project(r)
    if blocks is None:
        blocks = [(0, len(r))]
    residuals: list[float] = []
    weights = np.empty(len(r))
    omega = relax
    made = 0
    newton, grown = True, False
    for k in range(max_iter + 1):
        try:
            M, b, mismatch = system_builder(r, newton)
        except DomainError as err:
            if not k:
                raise
            raise StepFailureError(
                f"Picard iterate {k} outside the model's range: {err}",
                residual_norm=residuals[-1], iterations=k,
                residuals=residuals) from err
        res = 0.0
        for lo, hi in blocks:
            scale = max(float(np.linalg.norm(b[lo:hi])), 1e-30)
            weights[lo:hi] = 1.0 / scale
            res = max(res, float(np.linalg.norm(mismatch[lo:hi])) / scale)
        residuals.append(res)
        if res < tol:
            return NonlinearResult(r, k, residuals, lu, made, not newton)
        if k >= 5 and res > 10.0 * residuals[k - 5]:
            raise StepFailureError(
                f"Picard iteration diverging after {k} iterations",
                residual_norm=res, iterations=k,
                residuals=residuals)
        if k == max_iter:
            raise StepFailureError(
                f"no convergence in {max_iter} iterations (residual {res:.3e})",
                residual_norm=res, iterations=k,
                residuals=residuals)
        if k >= 1 and res > residuals[k - 1]:
            if newton and grown:
                newton, omega, lu = False, relax, None
            else:
                grown, omega = grown or newton, max(0.5 * omega, 0.25 * relax)
        delta = None if lu is None else _gmres(M, lu, mismatch, weights)
        # the old factor is released before a new one takes memory
        if delta is None and factors.split:
            lu = None
            lu = factors.factor(M)
            made += 1
            delta = _gmres(M, lu, mismatch, weights)
        if delta is None:
            lu = None
            lu = factors.factor(M, whole=True)
            made += 1
            delta = solve_sparse(lu, mismatch)
        r = r - omega * delta
        # released before the builder makes their successors
        M = delta = None
        if project is not None:
            r = project(r)
    raise AssertionError("unreachable")


class TransportProblem:
    """Mesh, coefficients and boundary data for the coupled balance.

    Parameters
    ----------
    mesh : Mesh
    coefficients : object
        KunzelCoefficients, ConstantCoefficients or any model with the
        admissible centroid ranges ``theta_range`` and ``phi_range``
        (infinite for no bound; ``step`` clips its phi iterates to
        ``phi_range``), ``evaluate(theta, phi) -> CoefficientFields`` per
        element, ``step_reference(theta_ref)`` for a step from centroid
        temperatures theta_ref and ``evaluate_step(theta, phi, reference)``
        for its iterates; ``dc_tt`` is 0 where c_tt does not vary.
    robin : mapping BoundaryTag -> RobinBC, optional
    flux : mapping BoundaryTag -> BoundaryFlux, optional
    dirichlet_theta, dirichlet_phi : sequence of (node_ids, value), optional
        value is a float or callable(t) returning a float or per-node array.
        A node listed in two groups of one field keeps the first value.
    source_heat, source_moist : callable(x, y, t), optional
        Volumetric sources for verification problems; evaluated at element
        centroids.
    lumped_capacity : bool
        Replace the consistent storage matrix by its row-sum diagonal.
    """

    def __init__(self, mesh: Mesh, coefficients, *,
                 robin: dict[BoundaryTag, RobinBC] | None = None,
                 flux: dict[BoundaryTag, BoundaryFlux] | None = None,
                 dirichlet_theta: Sequence[tuple[np.ndarray, Value]] = (),
                 dirichlet_phi: Sequence[tuple[np.ndarray, Value]] = (),
                 source_heat=None, source_moist=None,
                 lumped_capacity: bool = False):
        self.mesh = mesh
        self.coefficients = coefficients
        self.robin = dict(robin or {})
        self.flux = dict(flux or {})
        self.dirichlet_theta = [(np.asarray(nodes, dtype=np.int64), val)
                                for nodes, val in dirichlet_theta]
        self.dirichlet_phi = [(np.asarray(nodes, dtype=np.int64), val)
                              for nodes, val in dirichlet_phi]
        self.source_heat = source_heat
        self.source_moist = source_moist
        self.lumped_capacity = lumped_capacity
        # gamma dt and the factor of the last step, passed on to the next
        self._kept: tuple[float, SplitLU | BandLU | None] | None = None

        n = mesh.num_nodes
        # each prescribed dof once, and the complement; without any, the
        # free "index" is a full slice so the unconstrained path never
        # gathers
        self._fixed, self._first = np.unique(np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [nodes for nodes, _ in self.dirichlet_theta]
            + [nodes + n for nodes, _ in self.dirichlet_phi]),
            return_index=True)
        self._free = (np.setdiff1d(np.arange(2 * n), self._fixed)
                      if len(self._fixed) else slice(None))
        # the free theta dofs, which the free phi dofs follow
        self._n_t = n - int(np.count_nonzero(self._fixed < n))
        conn = mesh.elements
        e = len(conn)
        # storage matrix of a unit-capacity element over its area
        self._unit_mass = (np.eye(3) / 3.0 if lumped_capacity
                           else (np.ones((3, 3)) + np.eye(3)) / 12.0)
        self._conn_flat = conn.ravel()
        # every transport matrix as one fixed map from the coefficient
        # fields listed in _fill: per field a block (row field, column
        # field) and the exact element integral (E, 9) of its unit
        # coefficient, the stiffness from the constant gradients and the
        # storage from the linear shape products; 1 on the diagonal for
        # the exchange; per element and local row a Newton column of 1/3
        # on the row's three theta-theta entries, listed last
        grads, areas = mesh.grads, mesh.areas
        S9 = (np.einsum("eik,ejk->eij", grads, grads)
              * areas[:, None, None]).reshape(-1, 9)
        M9 = (self._unit_mass[None, :, :] * areas[:, None, None]).reshape(-1, 9)
        blocks = ((0, 0, M9), (0, 0, S9), (0, 1, S9), (1, 0, S9),
                  (1, 1, M9), (1, 1, S9))
        # every entry's slot from the blocks of the mesh's node graph, the
        # dofs [theta; phi] by field; the Newton columns take the slots of
        # the first block, theta-theta
        graph = mesh.graph
        indptr, indices, slot_of = graph.blocks(interleaved=False)
        slots = [slot_of[i, j][graph.slots].ravel() for i, j, _ in blocks]
        self._pattern = SparsePattern(
            indptr, indices,
            np.concatenate(slots + [slot_of[0, 0][graph.diagonal],
                                    slot_of[1, 1][graph.diagonal], slots[0]]),
            np.concatenate([np.full(len(blocks) * e, 9), np.ones(2 * n, int),
                            np.full(3 * e, 3)]),
            np.concatenate([unit.ravel() for _, _, unit in blocks]
                           + [np.ones(2 * n), np.full(9 * e, 1.0 / 3.0)]))

        # per tag, its distinct nodes and their weights, the sums of half
        # of each tagged edge's length; the condition values are read live
        # from self.robin / self.flux so they may be swapped out or added
        pairs = mesh.boundary_edge_nodes()
        half = 0.5 * mesh.boundary_edge_lengths()
        self._weights = {}
        for tag in BoundaryTag:
            idx = mesh.edges_with_tag(tag)
            w = np.bincount(pairs[idx].ravel(), np.repeat(half[idx], 2))
            nodes = np.flatnonzero(w)
            self._weights[tag] = nodes, w[nodes]

        # the update matrices on the free dofs through gathers fixed here:
        # the reduction, made once on the positions of the entries, and
        # the band layouts of a fresh factor's two diagonal blocks, the
        # nodes in one bandwidth order in both, and of the whole matrix,
        # that order with each node's theta and phi side by side
        M = self._pattern.matrix(np.zeros(len(blocks) * e + 2 * n))
        if len(self._fixed):
            self._reduced = Gather(positions(M)[self._free][:, self._free])
            M = self._reduced.matrix(M)
        at = np.full(2 * n, -1)
        at[self._free] = np.arange(M.shape[0])
        theta, phi = at[graph.order], at[graph.order + n]
        whole = np.stack([theta, phi], axis=1).ravel()
        self._factors = BandFactors(M, (theta[theta >= 0],
                                        phi[phi >= 0] - self._n_t,
                                        whole[whole >= 0]))

    # -- assembly ----------------------------------------------------------

    def _centroid_state(self, theta: np.ndarray, phi: np.ndarray):
        theta_c = self.mesh.element_mean(theta)
        phi_c = self.mesh.element_mean(phi)
        for field_c, rng, label in ((theta_c, self.coefficients.theta_range, "theta"),
                                    (phi_c, self.coefficients.phi_range, "phi")):
            bad = np.nonzero((field_c < rng[0]) | (field_c > rng[1]))[0]
            if len(bad):
                e = int(bad[0])
                raise DomainError(
                    f"element {e}: centroid {label} {field_c[e]:g} outside "
                    f"[{rng[0]:g}, {rng[1]:g}]")
        return theta_c, phi_c

    def assemble(self, theta: np.ndarray, phi: np.ndarray, t: float,
                 suppressed_nodes: np.ndarray | None = None) -> AssembledSystem:
        """Build K, C and F at the given nodal state and time."""
        K, C, F = self._system(theta, phi, t, suppressed_nodes)
        # C keeps only its storage blocks; pruned on a copy, since the map's
        # index arrays are read-only
        C = C.copy()
        C.eliminate_zeros()
        return AssembledSystem(K, C, F, self.mesh.num_nodes)

    def _system(self, theta, phi, t, suppressed_nodes=None):
        """K, C and F as ``assemble`` gives them, K and C in the structure
        of the update matrices."""
        theta_c, phi_c = self._centroid_state(theta, phi)
        cf = self.coefficients.evaluate(theta_c, phi_c)
        exchange, load, rain = self._boundary(t)
        suppressed = False if suppressed_nodes is None else suppressed_nodes
        return (self._fill(cf, 0.0, 1.0, exchange),
                self._fill(cf, 1.0, 0.0, np.zeros(len(exchange))),
                self._with_rain(load, rain, suppressed))

    def _boundary(self, t: float):
        """Exchange diagonal per dof, the load fixed within a step and the
        rain per node at time t; the rain is masked per iterate as nodes
        saturate."""
        mesh = self.mesh
        n = mesh.num_nodes
        exchange, load, rain = np.zeros(2 * n), np.zeros(2 * n), np.zeros(n)
        for tag, bc in self.robin.items():
            nodes, w = self._weights[tag]
            exchange[nodes] += bc.alpha_h * w
            exchange[nodes + n] += bc.beta_v * w
            load[nodes] += bc.alpha_h * _at(bc.theta_amb, t) * w
            load[nodes + n] += bc.beta_v * _at(bc.phi_amb, t) * w
        for tag, fl in self.flux.items():
            nodes, w = self._weights[tag]
            load[nodes] += _at(fl.q_heat, t) * w
            rain[nodes] += _at(fl.q_moist, t) * w
        for src, part in ((self.source_heat, load[:n]),
                          (self.source_moist, load[n:])):
            if src is None:
                continue
            sc = src(mesh.centroids[:, 0], mesh.centroids[:, 1], t)
            share = np.broadcast_to(np.asarray(sc, dtype=float),
                                    (mesh.num_elements,)) * mesh.areas / 3.0
            part += np.bincount(self._conn_flat, np.repeat(share, 3),
                                minlength=n)
        return exchange, load, rain

    def _with_rain(self, load, rain, suppressed):
        """load plus the rain, masked on the suppressed nodes."""
        F = load.copy()
        F[self.mesh.num_nodes:] += np.where(suppressed, 0.0, rain)
        return F

    def _fill(self, cf: CoefficientFields, storage: float, stiffness: float,
              exchange: np.ndarray, newton=()) -> sp.csr_matrix:
        """storage C + stiffness (K - diag exchange) + diag(exchange) + the
        Newton term: the map's columns are [c_tt, k_tt, k_tp, k_pt, c_pp,
        k_pp], the exchange diagonal and the (E, 3) ``newton``, left out if
        not given. The matrix must not be edited in place."""
        return self._pattern.matrix(np.concatenate([
            storage * cf.c_tt, stiffness * cf.k_tt, stiffness * cf.k_tp,
            stiffness * cf.k_pt, storage * cf.c_pp, stiffness * cf.k_pp,
            exchange, np.ravel(newton)]))

    def _mass_history(self, history: np.ndarray):
        """Per-element products M_e h_e of the unit-capacity storage
        matrices with the theta and phi parts of a history vector."""
        conn = self.mesh.elements
        n = self.mesh.num_nodes
        areas = self.mesh.areas[:, None]
        return (areas * (history[:n][conn] @ self._unit_mass),
                areas * (history[n:][conn] @ self._unit_mass))

    def _step_operator(self, r, gdt, exchange, load, rain, mass_hist,
                       suppressed, reference, newton=False):
        """Update matrix, b = gdt F + C history and residual A r - b of one
        Picard iterate at r = [theta, phi], with A = [C + gdt K].

        ``exchange`` is gdt times the exchange diagonal. ``mass_hist`` comes
        from ``_mass_history``; multiplying it by the storage coefficients
        and scattering gives C @ history without forming C. ``reference``
        comes from the coefficient model's ``step_reference``. The update
        matrix is A, or, with ``newton`` and some dc_tt not 0, A plus the
        derivative of each element's storage c_e M_e (theta_e - h_e)
        through its centroid temperature, dc_e M_e (theta_e - h_e)
        (1, 1, 1) / 3.
        """
        n = self.mesh.num_nodes
        theta_c, phi_c = self._centroid_state(r[:n], r[n:])
        cf = self.coefficients.evaluate_step(theta_c, phi_c, reference)
        mh_t, mh_p = mass_hist
        b = gdt * self._with_rain(load, rain, suppressed)
        b[:n] += np.bincount(self._conn_flat,
                             (cf.c_tt[:, None] * mh_t).ravel(), minlength=n)
        b[n:] += np.bincount(self._conn_flat,
                             (cf.c_pp[:, None] * mh_p).ravel(), minlength=n)
        active = np.flatnonzero(cf.dc_tt) if newton else ()
        if not len(active):
            A = self._fill(cf, 1.0, gdt, exchange)
            return A, b, A @ r - b
        conn = self.mesh.elements[active]
        mass = self.mesh.areas[active, None] * (r[conn] @ self._unit_mass)
        v = cf.dc_tt[active, None] * (mass - mh_t[active])
        newton_coefs = np.zeros((len(cf.c_tt), 3))
        newton_coefs[active] = v
        J = self._fill(cf, 1.0, gdt, exchange, newton_coefs)
        # J r holds the Newton term's theta_c v on top of A r
        res = J @ r - b
        res[:n] -= np.bincount(conn.ravel(),
                               (theta_c[active, None] * v).ravel(), n)
        return J, b, res

    # -- dirichlet ---------------------------------------------------------

    def _dirichlet_at(self, t: float) -> np.ndarray:
        """Prescribed values at time t, in the order of ``self._fixed``."""
        vals = [np.broadcast_to(np.asarray(_at(value, t), dtype=float),
                                nodes.shape)
                for nodes, value in self.dirichlet_theta + self.dirichlet_phi]
        return np.concatenate([np.zeros(0)] + vals)[self._first]

    def _reduce(self, A, b, values):
        """A x = b, A of the update matrices' structure, restricted to the
        free dofs with ``values`` prescribed, through the gather fixed at
        set-up."""
        if not len(self._fixed):
            return A, b
        return self._reduced.matrix(A), b[self._free] - dirichlet_lift(
            A, self._free, self._fixed, values)

    # -- time stepping -----------------------------------------------------

    def consistent_rates(self, state: TransportState) -> np.ndarray:
        """Initial rdot solving C rdot = F - K r at the state's time.

        Dirichlet dofs get the numeric time derivative of their prescribed
        value. Use this to seed rdot before the first trapezoidal step.
        """
        return self._rates(state.r, state.t)

    def _rates(self, r, t, suppressed=None):
        """rdot at the full state r and time t, as in consistent_rates."""
        n = self.mesh.num_nodes
        K, C, F = self._system(r[:n], r[n:], t, suppressed)
        # the step that t + 1e-6 takes in floating point
        h = (t + 1e-6) - t
        rates = (self._dirichlet_at(t + h) - self._dirichlet_at(t)) / h
        C, rhs = self._reduce(C, F - K @ r, rates)
        rdot = np.empty(2 * n)
        rdot[self._fixed] = rates
        # C has no off-diagonal blocks, so the split factor solves it exactly
        rdot[self._free] = solve_sparse(self._factors.factor(C), rhs)
        return rdot

    def step(self, state: TransportState, dt: float, *, gamma: float = 0.5,
             tol: float = 1e-6, max_iter: int = 50,
             relax: float = 1.0) -> TransportState:
        """Advance one time step; raises StepFailureError on non-convergence."""
        if dt <= 0.0:
            raise InvalidParametersError("dt must be positive")
        if not 0.0 <= gamma <= 1.0:
            raise InvalidParametersError("gamma must lie in [0, 1]")
        n = self.mesh.num_nodes
        r_old = state.r
        rdot_old = state.rdot
        t_new = state.t + dt
        history = r_old + dt * (1.0 - gamma) * rdot_old
        suppressed = np.zeros(n, dtype=bool)
        gdt = gamma * dt
        exchange, load, rain = self._boundary(t_new)
        exchange = gdt * exchange
        mass_hist = self._mass_history(history)
        reference = self.coefficients.step_reference(
            self.mesh.element_mean(state.theta))
        # Picard runs on the free dofs; r_new is the full iterate with the
        # prescribed values in place, theta dofs ahead of phi in both
        fixed, free = self._fixed, self._free
        vals = self._dirichlet_at(t_new)
        # forward Euler predictor, or the step start where the predictor
        # (phi clipped) leaves the model's ranges, as a cold start can
        phi_range = self.coefficients.phi_range
        for r_new in (r_old + dt * rdot_old, r_old.copy()):
            r_new[fixed] = vals
            try:
                self._centroid_state(r_new[:n], np.clip(r_new[n:], *phi_range))
                break
            except DomainError:
                pass
        r_free = r_new[free]
        n_t = self._n_t

        def builder(x, newton):
            r_new[free] = x
            suppressed[:] |= r_new[n:] >= _SATURATED
            M, b, res = self._step_operator(r_new, gdt, exchange, load, rain,
                                            mass_hist, suppressed, reference,
                                            newton)
            M, b = self._reduce(M, b, vals)
            return M, b, res[free]

        def project(x):
            np.clip(x[n_t:], *phi_range, out=x[n_t:])
            return x

        # the kept factor is handed over, not referenced from here, so a
        # refactorisation frees it before building its successor
        result = nonlinear_iterate(builder, r_free, self._factors, tol=tol,
                                   max_iter=max_iter, relax=relax,
                                   blocks=[(0, n_t), (n_t, len(r_free))],
                                   project=project, lu=self._take_factor(gdt))
        self._kept = (gdt, result.lu)
        r_new[free] = result.r
        if gamma > 0.0:
            rdot_new = (r_new - r_old - dt * (1.0 - gamma) * rdot_old) / (gamma * dt)
        else:
            rdot_new = self._rates(r_new, t_new, suppressed)
        return TransportState(t_new, r_new[:n].copy(), r_new[n:].copy(),
                              rdot_new, picard_iterations=result.iterations,
                              factorisations=result.factorisations)

    def _take_factor(self, gdt: float) -> SplitLU | BandLU | None:
        """Release the kept factor; return it if it was built for gdt."""
        kept, self._kept = self._kept, None
        return kept[1] if kept is not None and kept[0] == gdt else None

    def advance(self, state: TransportState, dt: float, *,
                max_halvings: int = 4, **options) -> TransportState:
        """Advance by dt, halving the step on failure up to max_halvings times.

        The result's ``picard_iterations`` and ``factorisations`` sum those
        of the substeps that succeeded; its ``halvings`` counts the failed
        steps that were halved, at every depth."""
        try:
            return self.step(state, dt, **options)
        except StepFailureError:
            if max_halvings <= 0:
                raise
        mid = self.advance(state, 0.5 * dt, max_halvings=max_halvings - 1,
                           **options)
        end = self.advance(mid, 0.5 * dt, max_halvings=max_halvings - 1,
                           **options)
        end.picard_iterations += mid.picard_iterations
        end.factorisations += mid.factorisations
        end.halvings += mid.halvings + 1
        return end
