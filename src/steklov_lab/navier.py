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
import scipy.sparse.linalg as spla

from .assembly import (FeFunction, FeSystem, GRAD_MASS, LAPLACIAN_ENERGY,
                       HESSIAN_ENERGY, MIXED_U_DELTA, assemble, assemble_many,
                       assemble_navier_load, boundary_mass, gauss01)
from .mesh import DOF_V, DOF_VX, DOF_VY, DofMap, Mesh, mark_essential
from .profile_geometry import DiffeoField

__all__ = ["NavierSolution", "NtnOperator", "solve_navier",
           "normal_derivative_functional", "build_ntn", "ntn_eigenvalues",
           "q2_matrices", "mixed_splitting_solve", "relative_h1_error",
           "q2_eval"]


@dataclass
class NavierSolution:
    u: FeFunction
    residual: float
    form: str
    bc: str
    domain: DiffeoField | None
    dofmap: DofMap
    system: FeSystem
    load: np.ndarray


def _energy_form(form: str):
    if form == "Laplacian":
        return LAPLACIAN_ENERGY
    if form == "Hessian":
        return HESSIAN_ENERGY
    raise ValueError("form must be 'Laplacian' or 'Hessian'")


def solve_navier(mesh: Mesh, f, form: str = "Laplacian",
                 bc: str = "DirichletAll", domain: DiffeoField | None = None,
                 quad_order: int | None = None,
                 system: FeSystem | None = None) -> NavierSolution:
    """Discrete solution of a(u, phi) = int (f Lap(phi) + grad f . grad phi).

    `f` is an FeFunction or a (f, f_x, f_y) triple of callables evaluated at
    physical points.  Pass a preassembled `system` to reuse the energy matrix.
    """
    kind = _energy_form(form)
    if system is None:
        dofmap = mark_essential(mesh, DofMap.unconstrained(mesh), bc)
        system = assemble(kind, mesh, dofmap, domain, quad_order)
    else:
        dofmap = system.dofmap
    F = assemble_navier_load(f, mesh, dofmap, domain, quad_order)
    A = system.matrix.tocsc()
    u_free = spla.splu(A).solve(F)
    fn = float(np.linalg.norm(F))
    res = float(np.linalg.norm(system.matrix @ u_free - F)) / fn if fn > 0 else 0.0
    u = FeFunction.from_free_vector(dofmap, mesh, u_free)
    return NavierSolution(u=u, residual=res, form=form, bc=bc, domain=domain,
                          dofmap=dofmap, system=system, load=F)


def _conormal_operator(mesh: Mesh, domain: DiffeoField | None,
                       quad_order: int | None = None) -> sp.csr_matrix:
    """Matrix of u -> [ int (Lap(u) psi_m + grad u . grad psi_m) ]_m over the
    full Hermite basis."""
    M, G = assemble_many((MIXED_U_DELTA, GRAD_MASS), mesh,
                         DofMap.unconstrained(mesh), domain, quad_order)
    return (M.matrix + G.matrix).tocsr()


def normal_derivative_functional(sol: NavierSolution,
                                 quad_order: int | None = None) -> np.ndarray:
    """<u_nu, psi_m> for every function psi_m of the full Hermite basis.

    Entries for basis functions supported strictly inside the domain vanish
    (the pairing only sees the boundary trace of the test function).
    """
    op = _conormal_operator(sol.u.mesh, sol.domain, quad_order)
    return np.asarray(op @ sol.u.coeffs)


# ---------------------------------------------------------------------------
# Navier-to-Neumann pencil on a boundary-trace basis

@dataclass
class NtnOperator:
    N: np.ndarray              # <(u_{f_j})_nu, f_i>
    J0: np.ndarray             # boundary mass on the trace basis
    trace_dofs: np.ndarray     # global DOF indices parametrizing the traces
    extensions: np.ndarray     # (n_dofs, n_basis) harmonically extended basis
    mesh: Mesh


def boundary_trace_dofs(mesh: Mesh) -> np.ndarray:
    """Global DOFs that determine the boundary trace of a Hermite function:
    the value at every boundary node plus the tangential slope per edge."""
    dofs = []
    horizontal = np.unique(np.concatenate([mesh.top_nodes(), mesh.bottom_nodes()]))
    vertical = np.unique(np.concatenate([mesh.left_nodes(), mesh.right_nodes()]))
    for n in mesh.boundary_nodes():
        dofs.append(4 * n + DOF_V)
    for n in horizontal:
        dofs.append(4 * n + DOF_VX)
    for n in vertical:
        dofs.append(4 * n + DOF_VY)
    return np.unique(np.array(dofs, dtype=np.int64))


def build_ntn(mesh: Mesh, domain: DiffeoField | None = None,
              trace_dofs=None, quad_order: int | None = None,
              extra_dofs=None) -> NtnOperator:
    """Assemble the Navier-to-Neumann pencil (N, J0) on a trace basis.

    Basis functions are Hermite functions carrying one unit of boundary-trace
    data each, extended into the domain discretely harmonically (the interior
    minimizes the Dirichlet energy).  Functions with zero trace pair to zero
    on both sides, so the H^1_0 kernel is deflated by construction.
    """
    if trace_dofs is None:
        trace_dofs = boundary_trace_dofs(mesh)
    trace_dofs = np.asarray(trace_dofs, dtype=np.int64)
    if extra_dofs is not None:
        trace_dofs = np.unique(np.concatenate(
            [trace_dofs, np.asarray(extra_dofs, dtype=np.int64)]))
    full = DofMap.unconstrained(mesh)
    G, M = assemble_many((GRAD_MASS, MIXED_U_DELTA), mesh, full, domain,
                         quad_order)
    K = G.matrix.tocsc()
    n_dofs = full.n_dofs
    comp = np.setdiff1d(np.arange(n_dofs), trace_dofs)

    # harmonic extension of each unit of trace data
    Kcc = K[comp][:, comp]
    Kct = K[comp][:, trace_dofs]
    lu = spla.splu(Kcc.tocsc())
    C = np.zeros((n_dofs, trace_dofs.size))
    C[trace_dofs, np.arange(trace_dofs.size)] = 1.0
    C[comp] = -lu.solve(Kct.toarray())

    # Navier solves for every basis function
    dofmap = mark_essential(mesh, full, "DirichletAll")
    system = assemble(LAPLACIAN_ENERGY, mesh, dofmap, domain, quad_order)
    conorm = (M.matrix + G.matrix).tocsr()
    loads = (conorm.T @ C)[dofmap.free]
    lu_a = spla.splu(system.matrix.tocsc())
    U_free = lu_a.solve(loads)
    U = np.zeros((n_dofs, trace_dofs.size))
    U[dofmap.free] = U_free

    N = C.T @ (conorm @ U)
    asym = np.linalg.norm(N - N.T) / max(np.linalg.norm(N), 1e-300)
    if asym > 1e-8:
        raise RuntimeError(f"NtN matrix asymmetry {asym:.2e}")
    N = 0.5 * (N + N.T)

    Mb = assemble(boundary_mass("All"), mesh, full, domain, quad_order).matrix
    J0 = C.T @ (Mb @ C)
    J0 = 0.5 * (J0 + J0.T)
    ev = np.linalg.eigvalsh(J0)
    if ev.min() <= ev.max() * 1e-12:
        raise RuntimeError("boundary-trace basis gives a rank-deficient J0")
    return NtnOperator(N=N, J0=J0, trace_dofs=trace_dofs, extensions=C, mesh=mesh)


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
    lu = spla.splu(K[inner][:, inner].tocsc())
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    v = np.zeros(K.shape[0])
    v[on_bdry] = f_trace(X.ravel()[on_bdry], Y.ravel()[on_bdry])
    v[inner] = lu.solve(-(K[inner][:, on_bdry] @ v[on_bdry]))
    # int grad u . grad phi = - int v phi  for phi in H^1_0
    u = np.zeros_like(v)
    u[inner] = lu.solve(-(M @ v)[inner])
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


def relative_h1_error(u, oracle_mesh: Mesh, oracle_nodal: np.ndarray,
                      nq: int = 4) -> float:
    """Full H^1 distance between a function and a Q2 oracle field, relative to
    the oracle norm, integrated on the oracle mesh.

    `u` is an FeFunction or a (u, u_x, u_y) triple of callables.  With nq = 4
    the integrand is exact for a Hermite function whose mesh the oracle mesh
    refines.
    """
    if isinstance(u, FeFunction):
        uv, ugx, ugy = (u.value, lambda x, y: u.eval(x, y, 1, 0),
                        lambda x, y: u.eval(x, y, 0, 1))
    else:
        uv, ugx, ugy = u
    m = oracle_mesh
    t, w = gauss01(nq)
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
