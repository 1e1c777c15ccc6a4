"""Weak Navier problems, the variational normal derivative and the
Navier-to-Neumann pencil, plus a second-order mixed-splitting oracle.

The hinged-plate (Navier) problem with boundary datum f (given as an H^1
function) reads in weak form

    int Lap(u) Lap(phi) dx = int (f Lap(phi) + grad f . grad phi) dx

over the C1 space with u = 0 on the boundary.  The right-hand side depends
only on the trace of f, and for a C1-conforming discrete u the same volume
expression evaluates the normal derivative exactly:

    <u_nu, v> = int (Lap(u) v + grad u . grad v) dx = int_bdry u_nu v dS,

because the interelement fluxes of v grad(u) cancel.  Building the
Navier-to-Neumann matrix on a boundary-trace basis therefore reproduces the
direct Steklov pencil up to round-off: both are algebraic reformulations of
one discrete problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import (FeFunction, FeSystem, FormKind, GRAD_MASS,
                       LAPLACIAN_ENERGY, MIXED_U_DELTA, assemble,
                       assemble_boundary_factor, assemble_navier_load,
                       boundary_mass, gauss01)
from .mesh import DOF_VXY, DofMap, Mesh, mark_essential
from .profile_geometry import DiffeoField
from .spectral import factor_spd

__all__ = ["NavierSolution", "NtnOperator", "solve_navier", "build_ntn",
           "ntn_eigenvalues", "q2_matrices", "mixed_splitting_solve",
           "relative_h1_error", "q2_eval"]


@dataclass
class NavierSolution:
    u_free: np.ndarray         # coefficients on the free DOFs of dofmap
    residual: float
    domain: DiffeoField | None
    dofmap: DofMap
    system: FeSystem
    load: np.ndarray
    factor: object             # factor of system, for defect solves

    @property
    def u(self) -> FeFunction:
        """The solution over the full Hermite basis, built on each call."""
        return FeFunction.from_free_vector(self.dofmap, self.system.mesh,
                                           self.u_free)


def solve_navier(mesh: Mesh, f, form: FormKind = LAPLACIAN_ENERGY,
                 domain: DiffeoField | None = None,
                 quad_order: int | None = None) -> NavierSolution:
    """Discrete solution of a(u, phi) = int (f Lap(phi) + grad f . grad phi)
    with u = 0 on the whole boundary; a is the energy form `form`.

    `f` is an FeFunction or a (f, f_x, f_y) triple of callables evaluated at
    physical points.
    """
    dofmap = mark_essential(mesh, "DirichletAll")
    system = assemble(form, mesh, dofmap, domain, quad_order)
    F = assemble_navier_load(f, mesh, dofmap, domain, quad_order)
    factor = factor_spd(system)
    u_free = factor.solve(F)
    fn = float(np.linalg.norm(F))
    res = float(np.linalg.norm(system @ u_free - F)) / fn if fn > 0 else 0.0
    return NavierSolution(u_free=u_free, residual=res, domain=domain,
                          dofmap=dofmap, system=system, load=F, factor=factor)


def _conormal_operator(mesh: Mesh, domain: DiffeoField | None,
                       quad_order: int | None = None):
    """(G, M + G) over the full Hermite basis: the GradMass form G, and the
    matrix of u -> [ int (Lap(u) psi_m + grad u . grad psi_m) ]_m, M being
    the MixedUDelta form."""
    full = DofMap.unconstrained(mesh)
    M, G = (assemble(kind, mesh, full, domain, quad_order).matrix
            for kind in (MIXED_U_DELTA, GRAD_MASS))
    return G, (M + G).tocsr()


# ---------------------------------------------------------------------------
# Navier-to-Neumann pencil on a boundary-trace basis

@dataclass
class NtnOperator:
    N: np.ndarray              # <(u_{f_j})_nu, f_i>
    J0: np.ndarray             # boundary mass on the trace basis


def boundary_trace_dofs(mesh: Mesh) -> np.ndarray:
    """Global DOFs that determine the boundary trace of a Hermite function:
    those DirichletAll pins, less the corners' mixed DOFs, which it pins only
    for C1 compatibility."""
    pinned = mark_essential(mesh, "DirichletAll").constrained
    pinned.reshape(mesh.nx + 1, mesh.ny + 1, 4)[::mesh.nx, ::mesh.ny, DOF_VXY] = False
    return np.flatnonzero(pinned)


def build_ntn(mesh: Mesh, domain: DiffeoField | None = None,
              trace_dofs=None, quad_order: int | None = None) -> NtnOperator:
    """Assemble the Navier-to-Neumann pencil (N, J0) on a trace basis.

    Basis functions are Hermite functions carrying one unit of boundary-trace
    data each, extended into the domain discretely harmonically (the interior
    minimizes the Dirichlet energy).  Functions with zero trace pair to zero
    on both sides, so the H^1_0 kernel is deflated by construction.
    J0 = T^T T with T = C_b^T E, C_b the boundary mass's quadrature factor and
    E the extended basis, so J0 is exactly symmetric.
    """
    if trace_dofs is None:
        trace_dofs = boundary_trace_dofs(mesh)
    trace_dofs = np.asarray(trace_dofs, dtype=np.int64)
    full = DofMap.unconstrained(mesh)
    G, conorm = _conormal_operator(mesh, domain, quad_order)
    K = G.tocsc()
    n_dofs = full.n_dofs
    comp = np.setdiff1d(np.arange(n_dofs), trace_dofs)

    # harmonic extension of each unit of trace data
    Kcc = K[comp][:, comp]
    Kct = K[comp][:, trace_dofs]
    factor = factor_spd(Kcc)
    E = np.zeros((n_dofs, trace_dofs.size))
    E[trace_dofs, np.arange(trace_dofs.size)] = 1.0
    E[comp] = -factor.solve(Kct.toarray())

    # Navier solves for every basis function
    dofmap = mark_essential(mesh, "DirichletAll")
    system = assemble(LAPLACIAN_ENERGY, mesh, dofmap, domain, quad_order)
    loads = (conorm.T @ E)[dofmap.free]
    factor_a = factor_spd(system)
    U_free = factor_a.solve(loads)
    U = np.zeros((n_dofs, trace_dofs.size))
    U[dofmap.free] = U_free

    N = E.T @ (conorm @ U)
    asym = np.linalg.norm(N - N.T) / max(np.linalg.norm(N), 1e-300)
    if asym > 1e-8:
        raise RuntimeError(f"NtN matrix asymmetry {asym:.2e}")
    N = 0.5 * (N + N.T)

    T = assemble_boundary_factor(boundary_mass("All"), mesh, full, domain,
                                 quad_order).T @ E
    J0 = T.T @ T
    ev = np.linalg.eigvalsh(J0)
    if ev.min() <= ev.max() * 1e-12:
        raise RuntimeError("boundary-trace basis gives a rank-deficient J0")
    return NtnOperator(N=N, J0=J0)


def ntn_eigenvalues(op: NtnOperator, k: int) -> np.ndarray:
    """Largest k eigenvalues mu of N f = mu J0 f (mu = 1/d for Steklov d)."""
    mu = sla.eigh(op.N, op.J0, eigvals_only=True)
    mu = np.sort(mu)[::-1]
    return mu[:k]


# ---------------------------------------------------------------------------
# Q2 (biquadratic) companion discretization: the splitting oracle
#
# Lagrange nodes sit on the mesh refined once in each direction (vertices,
# edge midpoints, element centres) and are numbered column-major like the
# mesh nodes: Q2 node (i, j) = i * (2 ny + 1) + j.

def _lagrange2(t, deriv: int = 0) -> np.ndarray:
    """Quadratic Lagrange basis on [0, 1] with nodes 0, 1/2, 1 (rows), or its
    derivative in t."""
    t = np.asarray(t, dtype=float)
    if deriv == 0:
        return np.stack([2.0 * (t - 0.5) * (t - 1.0), -4.0 * t * (t - 1.0),
                         2.0 * t * (t - 0.5)])
    return np.stack([4.0 * t - 3.0, 4.0 - 8.0 * t, 4.0 * t - 1.0])


def _q2_axes(mesh: Mesh):
    """Abscissae and ordinates of the Q2 node grid."""
    def refine(v):
        out = np.empty(2 * v.size - 1)
        out[0::2] = v
        out[1::2] = 0.5 * (v[:-1] + v[1:])
        return out
    return refine(mesh.xs), refine(mesh.ys)


def _q2_elem_nodes(mesh: Mesh, ex, ey) -> np.ndarray:
    """(..., 9) Q2 node indices of elements (ex, ey); local index 3a + b for
    the a-th node in x and the b-th node in y."""
    nyq = 2 * mesh.ny + 1
    a = np.arange(3)
    ix = 2 * np.asarray(ex)[..., None, None] + a[:, None]
    iy = 2 * np.asarray(ey)[..., None, None] + a[None, :]
    return (ix * nyq + iy).reshape(np.shape(ex) + (9,))


def q2_matrices(mesh: Mesh):
    """Biquadratic stiffness and mass on the Q2 nodes of the mesh."""
    t, w = gauss01(3)                 # exact for products of quadratics
    L0, L1 = _lagrange2(t), _lagrange2(t, 1)
    m1 = np.einsum("iq,jq,q->ij", L0, L0, w)
    k1 = np.einsum("iq,jq,q->ij", L1, L1, w)
    hx = np.diff(mesh.xs)[:, None, None, None]
    hy = np.diff(mesh.ys)[None, :, None, None]
    Kl = (hy / hx) * np.kron(k1, m1) + (hx / hy) * np.kron(m1, k1)
    Ml = (hx * hy) * np.kron(m1, m1)
    ex, ey = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny), indexing="ij")
    nodes = _q2_elem_nodes(mesh, ex, ey).reshape(-1, 9)
    rows = np.repeat(nodes, 9, axis=1).ravel()
    cols = np.tile(nodes, (1, 9)).ravel()
    n = (2 * mesh.nx + 1) * (2 * mesh.ny + 1)
    K = sp.coo_matrix((Kl.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((Ml.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def mixed_splitting_solve(mesh: Mesh, f_trace) -> tuple[np.ndarray, np.ndarray]:
    """Second-order (Ciarlet-Raviart) splitting for the Navier problem: v
    harmonic with trace f, then u with Lap(u) = v and zero trace.  Both
    Dirichlet problems are solved with biquadratic elements; returns the Q2
    nodal values (v, u)."""
    K, M = q2_matrices(mesh)
    xq, yq = _q2_axes(mesh)
    on_bdry = np.zeros((xq.size, yq.size), dtype=bool)
    on_bdry[[0, -1], :] = True
    on_bdry[:, [0, -1]] = True
    on_bdry = on_bdry.ravel()
    inner = np.nonzero(~on_bdry)[0]
    factor = factor_spd(K[inner][:, inner])
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    v = np.zeros(K.shape[0])
    v[on_bdry] = f_trace(X.ravel()[on_bdry], Y.ravel()[on_bdry])
    v[inner] = factor.solve(-(K[inner][:, on_bdry] @ v[on_bdry]))
    # int grad u . grad phi = - int v phi  for phi in H^1_0
    u = np.zeros_like(v)
    u[inner] = factor.solve(-(M @ v)[inner])
    return v, u


def q2_eval(mesh: Mesh, nodal: np.ndarray, x, y, deriv: str = "value"):
    """Evaluate a Q2 nodal field (or its gradient components) at points."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    ix = np.clip(np.searchsorted(mesh.xs, x, side="right") - 1, 0, mesh.nx - 1)
    iy = np.clip(np.searchsorted(mesh.ys, y, side="right") - 1, 0, mesh.ny - 1)
    hx = np.diff(mesh.xs)[ix]
    hy = np.diff(mesh.ys)[iy]
    tx = (x - mesh.xs[ix]) / hx
    ty = (y - mesh.ys[iy]) / hy
    if deriv == "value":
        X, Y = _lagrange2(tx), _lagrange2(ty)
    elif deriv == "dx":
        X, Y = _lagrange2(tx, 1) / hx, _lagrange2(ty)
    elif deriv == "dy":
        X, Y = _lagrange2(tx), _lagrange2(ty, 1) / hy
    else:
        raise ValueError("deriv must be 'value', 'dx' or 'dy'")
    shape = (X[:, None, :] * Y[None, :, :]).reshape(9, -1)
    c = nodal[_q2_elem_nodes(mesh, ix, iy)]               # (npts, 9)
    return np.einsum("pi,ip->p", c, shape)


def relative_h1_error(u, oracle_mesh: Mesh, oracle_nodal: np.ndarray) -> float:
    """Full H^1 distance between a function and a Q2 oracle field, relative to
    the oracle norm, integrated on the oracle mesh.

    `u` is an FeFunction or a (u, u_x, u_y) triple of callables.  With 4 Gauss
    points per direction the integrand is exact for a Hermite function whose
    mesh the oracle mesh refines.
    """
    uv, ugx, ugy = u.with_gradient() if isinstance(u, FeFunction) else u
    m = oracle_mesh
    t, w = gauss01(4)
    hx, hy = np.diff(m.xs), np.diff(m.ys)
    xq = (m.xs[:-1, None] + hx[:, None] * t).ravel()
    yq = (m.ys[:-1, None] + hy[:, None] * t).ravel()
    wx = (hx[:, None] * w).ravel()
    wy = (hy[:, None] * w).ravel()
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    wq = np.outer(wx, wy).ravel()
    uo = q2_eval(m, oracle_nodal, X, Y)
    uox = q2_eval(m, oracle_nodal, X, Y, "dx")
    uoy = q2_eval(m, oracle_nodal, X, Y, "dy")
    num = np.sum(wq * ((uv(X, Y) - uo) ** 2 + (ugx(X, Y) - uox) ** 2
                       + (ugy(X, Y) - uoy) ** 2))
    den = np.sum(wq * (uo ** 2 + uox ** 2 + uoy ** 2))
    return float(np.sqrt(num / den))
