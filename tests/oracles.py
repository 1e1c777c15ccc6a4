"""Independent oracles and probes that only the tests read: a finite-element
cross-check of the cell problem's strange curvature, the Hermite
interpolant of a function given with its derivatives, the variational
normal derivative of a Navier solution, the Rayleigh quotient, and a
sampled det DPhi over a layer map's blending layer."""

import numpy as np

from steklov_lab.assembly import FeFunction, gauss01, hermite1d
from steklov_lab.cell_problem import _fourier_amplitudes
from steklov_lab.mesh import Mesh
from steklov_lab.navier import _conormal_operator


def interpolate(mesh: Mesh, f, fx, fy, fxy) -> FeFunction:
    """Hermite interpolant of f from its nodal values and derivatives."""
    x = np.repeat(mesh.xs, mesh.ny + 1)             # the nodes in node order
    y = np.tile(mesh.ys, mesh.nx + 1)
    coeffs = np.empty(4 * mesh.n_nodes)
    coeffs[0::4] = f(x, y)
    coeffs[1::4] = fx(x, y)
    coeffs[2::4] = fy(x, y)
    coeffs[3::4] = fxy(x, y)
    return FeFunction(mesh=mesh, coeffs=coeffs)


def normal_derivative_functional(sol, quad_order: int | None = None):
    """<u_nu, psi_m> for every function psi_m of the full Hermite basis.

    Entries for basis functions supported strictly inside the domain vanish
    (the pairing only sees the boundary trace of the test function).
    """
    u = sol.u
    _, op = _conormal_operator(u.mesh, sol.domain, quad_order)
    return np.asarray(op @ u.coeffs)


def det_sample(dif, n: int = 200) -> np.ndarray:
    """det DPhi on an (n, n) grid: n heights from max(layer bottom, -1) up to
    the graph in each of n columns evenly spaced over (0, w_len)."""
    spec = dif.spec
    xs = np.linspace(0.0, spec.w_len, n)
    lo = np.maximum(spec.g(xs) - dif.layer.depth, -1.0)
    ys = np.linspace(lo, spec.g(xs), n, axis=1)
    return dif.det(np.broadcast_to(xs[:, None], ys.shape), ys)


def rayleigh(A, B, q) -> float:
    """Rayleigh quotient (q^T A q) / (q^T B q) of FeSystems or sparse
    matrices; an upper bound for d_1."""
    q = np.asarray(q, dtype=float)
    den = float(q @ (B @ q))
    num = float(q @ (A @ q))
    if den <= max(abs(num), 1.0) * 1e-14:
        raise ZeroDivisionError("q^T B q = 0: Rayleigh quotient undefined")
    return num / den


def solve_cell_fem(profile, depth: float = 3.0, n_elements: int = 240) -> float:
    """FEM cross-check of gamma on the strip truncated at y = -depth.

    Periodic lateral conditions reduce each trigonometric mode to a 1D
    fourth-order problem in the vertical coordinate,

        v'''' - 2 w^2 v'' + w^4 v = 0,  v(0) = beta,  v''(0) = 0,

    discretized with cubic Hermite elements and clamped at the bottom.  The
    minimum of the mode energy over the truncated strip converges to the
    closed-form value as depth grows.
    """
    betas = _fourier_amplitudes(profile)
    if not betas:
        return 0.0
    tq, wq = gauss01(6)
    total = 0.0
    for k, beta in sorted(betas.items()):
        w = 2.0 * np.pi * k
        nodes = np.linspace(-depth, 0.0, n_elements + 1)
        ndof = 2 * (n_elements + 1)
        K = np.zeros((ndof, ndof))
        for e in range(n_elements):
            h = nodes[e + 1] - nodes[e]
            B0 = hermite1d(tq, h, 0)
            B1 = hermite1d(tq, h, 1)
            B2 = hermite1d(tq, h, 2)
            # local energy:  w^4 v^2 + 2 w^2 v'^2 + v''^2
            loc = (w ** 4 * np.einsum("iq,jq,q->ij", B0, B0, wq * h)
                   + 2 * w ** 2 * np.einsum("iq,jq,q->ij", B1, B1, wq * h)
                   + np.einsum("iq,jq,q->ij", B2, B2, wq * h))
            idx = np.array([2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3])
            # hermite1d row order is (val-l, slope-l, val-r, slope-r)
            K[np.ix_(idx, idx)] += loc
        # constraints: clamped bottom v(-L) = v'(-L) = 0, trace v(0) = beta
        fixed = {0: 0.0, 1: 0.0, ndof - 2: beta}
        free = np.array([i for i in range(ndof) if i not in fixed])
        xfix = np.zeros(ndof)
        for i, val in fixed.items():
            xfix[i] = val
        rhs = -K[np.ix_(free, list(fixed))] @ np.array(list(fixed.values()))
        sol = np.zeros(ndof)
        sol[free] = np.linalg.solve(K[np.ix_(free, free)], rhs)
        sol += xfix
        total += 0.5 * float(sol @ (K @ sol))
    return total
