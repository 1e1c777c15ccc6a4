import numpy as np
import pytest

from steklov_lab.assembly import (FeFunction, GRAD_MASS, LAPLACIAN_ENERGY,
                                  assemble, assemble_navier_load, boundary_mass,
                                  gauss01, normal_trace)
from steklov_lab.mesh import (DOF_V, DOF_VX, DOF_VXY, DOF_VY, DofMap, build_mesh,
                              mark_essential)
from steklov_lab.navier import (boundary_trace_dofs, build_ntn,
                                mixed_splitting_solve, normal_derivative_functional,
                                ntn_eigenvalues, q2_matrices, relative_h1_error,
                                solve_navier)
from steklov_lab.spectral import solve_steklov


def zeros_fn(mesh):
    return FeFunction(mesh, np.zeros(4 * mesh.n_nodes))


def dof_grid(mesh):
    """Global Hermite DOF 4 (ix (ny + 1) + iy) + type at [ix, iy, type]."""
    return np.arange(4 * mesh.n_nodes).reshape(mesh.nx + 1, mesh.ny + 1, 4)


# ---------------------------------------------------------------------------
# a separable exact solution of the hinged-plate problem
#
# u(x, y) = sin(pi x) w(y) with (d^2/dy^2 - pi^2)^2 w = 0, w(0) = w(-1) = 0;
# the boundary datum f = Lap(u) extends harmonically as sin(pi x)(w'' - pi^2 w)

def _exact_solution():
    p = np.pi
    # basis e^{py}, y e^{py}, e^{-py}, y e^{-py}; kernel of w(0)=w(-1)=0
    A = np.array([[1.0, 0.0, 1.0, 0.0],
                  [np.exp(-p), -np.exp(-p), np.exp(p), -np.exp(p)]])
    _, _, vt = np.linalg.svd(A)
    c = vt[-1]

    def w(y, order=0):
        e1, e2 = np.exp(p * y), np.exp(-p * y)
        if order == 0:
            return (c[0] + c[1] * y) * e1 + (c[2] + c[3] * y) * e2
        if order == 1:
            return ((c[1] + p * (c[0] + c[1] * y)) * e1
                    + (c[3] - p * (c[2] + c[3] * y)) * e2)
        if order == 2:
            return ((2 * p * c[1] + p * p * (c[0] + c[1] * y)) * e1
                    + (-2 * p * c[3] + p * p * (c[2] + c[3] * y)) * e2)
        raise ValueError(order)

    u = lambda x, y: np.sin(p * x) * w(y)
    ux = lambda x, y: p * np.cos(p * x) * w(y)
    uy = lambda x, y: np.sin(p * x) * w(y, 1)
    # harmonic extension of the datum: f = w'' - pi^2 w times sin(pi x)
    g = lambda y, o=0: w(y, o + 2) - p * p * w(y, o) if o <= 0 else None
    fv = lambda x, y: np.sin(p * x) * (w(y, 2) - p * p * w(y))
    fx = lambda x, y: p * np.cos(p * x) * (w(y, 2) - p * p * w(y))

    def fy(x, y):
        # derivative of w'' - pi^2 w via the ODE: w'''' = 2 pi^2 w'' - pi^4 w
        # so (w'' - pi^2 w)' = w''' - pi^2 w'; compute w''' from the basis
        e1, e2 = np.exp(p * y), np.exp(-p * y)
        w3 = ((3 * p * p * c[1] + p ** 3 * (c[0] + c[1] * y)) * e1
              + (3 * p * p * c[3] - p ** 3 * (c[2] + c[3] * y)) * e2)
        return np.sin(p * x) * (w3 - p * p * w(y, 1))

    return u, ux, uy, (fv, fx, fy)


def test_zero_datum_gives_zero_solution():
    m = build_mesh(6, 6)
    sol = solve_navier(m, zeros_fn(m))
    assert np.max(np.abs(sol.u.coeffs)) == 0.0
    assert sol.residual == 0.0
    vec = normal_derivative_functional(sol)
    assert np.max(np.abs(vec)) == 0.0


def test_galerkin_residual_against_random_tests():
    m = build_mesh(8, 8)
    _, _, _, f3 = _exact_solution()
    sol = solve_navier(m, f3)
    A = sol.system.matrix
    F = sol.load
    u = sol.u.coeffs[sol.dofmap.free]
    rng = np.random.default_rng(0)
    for _ in range(20):
        phi = rng.standard_normal(u.size)
        lhs = phi @ (A @ u)
        rhs = phi @ F
        assert abs(lhs - rhs) <= 1e-9 * np.sqrt(phi @ (A @ phi)) + 1e-12


def test_solution_is_held_on_the_free_dofs():
    # the solve keeps its free vector; u scatters it over the full basis
    m = build_mesh(8, 8)
    _, _, _, f3 = _exact_solution()
    sol = solve_navier(m, f3)
    assert sol.u_free.shape == (sol.dofmap.n_free,)
    u = sol.u
    assert np.array_equal(u.coeffs[sol.dofmap.free], sol.u_free)
    assert not np.any(u.coeffs[sol.dofmap.constrained])
    assert np.max(np.abs(sol.u_free)) > 0


def test_interior_datum_gives_zero_solution():
    # datum in the discrete H^1_0: the load vanishes identically by parts
    m = build_mesh(6, 6)
    coeffs = np.zeros(4 * m.n_nodes)
    c = coeffs.reshape(m.nx + 1, m.ny + 1, 4)
    rng = np.random.default_rng(1)
    c[1:-1, 1:-1] = rng.standard_normal((5, 5, 4))
    # zero the boundary-trace data only; normal slopes on the boundary stay
    c[:, ::m.ny, [DOF_V, DOF_VX]] = 0.0      # bottom and top
    c[::m.nx, :, [DOF_V, DOF_VY]] = 0.0      # left and right
    f = FeFunction(m, coeffs)
    sol = solve_navier(m, f)
    load_scale = np.max(np.abs(assemble_navier_load(
        FeFunction.interpolate(m, lambda x, y: np.asarray(x) * 0 + 1.0,
                               fx=lambda x, y: 0 * np.asarray(x),
                               fy=lambda x, y: 0 * np.asarray(x),
                               fxy=lambda x, y: 0 * np.asarray(x)),
        m, sol.dofmap)))
    assert np.max(np.abs(sol.load)) <= 1e-12 * load_scale
    assert np.max(np.abs(sol.u.coeffs)) <= 1e-10


def test_manufactured_solution_convergence():
    u, ux, uy, f3 = _exact_solution()
    errs = []
    for n in (8, 16):
        m = build_mesh(n, n)
        sol = solve_navier(m, f3)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 500)
        y = rng.uniform(-1, 0, 500)
        scale = np.max(np.abs(u(x, y)))
        errs.append(np.max(np.abs(sol.u.value(x, y) - u(x, y))) / scale)
    assert errs[0] < 2e-2
    assert errs[1] < errs[0] / 4


def test_normal_derivative_functional_properties():
    u, ux, uy, f3 = _exact_solution()
    m = build_mesh(16, 16)
    sol = solve_navier(m, f3)
    vec = normal_derivative_functional(sol)
    scale = np.max(np.abs(vec))
    # entries of basis functions supported strictly inside the strip vanish
    dofs = dof_grid(m)
    assert np.max(np.abs(vec[dofs[2:m.nx - 1, 2:m.ny - 1]])) <= 1e-10 * scale
    # zero-trace functions that touch the boundary pair to zero as well:
    # the normal-slope DOF of a bottom node has vanishing boundary values
    zero_trace = dofs[m.nx // 2, 0, DOF_VY]
    assert abs(vec[zero_trace]) <= 1e-10 * scale


def test_normal_derivative_consistency_with_surface_quadrature():
    # pair with boundary value-type functions and compare against the exact
    # surface integral of u_nu; the discrete pairing is consistent at O(h^2)
    u, ux, uy, f3 = _exact_solution()
    errs = []
    for n in (16, 32):
        m = build_mesh(n, n)
        sol = solve_navier(m, f3)
        vec = normal_derivative_functional(sol)
        t, w = gauss01(12)
        hx = 1.0 / n
        # tent of value-type data on one interior top node
        j = n // 2
        pairing = vec[dof_grid(m)[j, m.ny, DOF_V]]
        # exact: int u_nu phi dS over the two top elements around the node,
        # phi the Hermite value function (tangential cubic along the edge)
        from steklov_lab.assembly import hermite1d
        val = 0.0
        for ex, side in ((j - 1, "right"), (j, "left")):
            xs = m.xs[ex] + t * hx
            row = 2 if side == "right" else 0
            phi = hermite1d(t, hx, 0)[row]
            val += hx * float(np.sum(w * phi * uy(xs, np.zeros_like(xs))))
        errs.append(abs(pairing - val) / abs(val))
    assert errs[0] <= 5e-2
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# Navier-to-Neumann pencil

def test_ntn_matches_direct_steklov():
    m = build_mesh(8, 8)
    op = build_ntn(m)
    mu = ntn_eigenvalues(op, 3)
    assert np.all(mu > 0)
    dm = mark_essential(m, "DirichletAll")
    A = assemble(LAPLACIAN_ENERGY, m, dm)
    B = assemble(normal_trace("All"), m, dm)
    d = solve_steklov(A, B, k=3, method="dense").eigenvalues
    assert np.max(np.abs(1.0 / mu - d) / d) <= 1e-9


def test_ntn_basis_saturation():
    m = build_mesh(6, 6)
    # value-only traces span a strict subspace: mu_1 can only grow when the
    # tangential-slope data is added, and saturates at the full trace set
    values = dof_grid(m)[..., DOF_V]
    value_dofs = np.setdiff1d(values, values[1:-1, 1:-1])
    mu_sub = ntn_eigenvalues(build_ntn(m, trace_dofs=value_dofs), 1)[0]
    full = boundary_trace_dofs(m)
    mu_full = ntn_eigenvalues(build_ntn(m, trace_dofs=full), 1)[0]
    assert mu_sub <= mu_full * (1 + 1e-12)
    mu_again = ntn_eigenvalues(build_ntn(m), 1)[0]
    assert abs(mu_full - mu_again) <= 1e-8 * mu_full
    # zero-trace directions are deflated by construction: asking for them
    # back degenerates the boundary mass
    with pytest.raises(RuntimeError):
        build_ntn(m, trace_dofs=np.union1d(full, [dof_grid(m)[2, 2, DOF_V]]))


def test_ntn_symmetry():
    m = build_mesh(6, 5)
    op = build_ntn(m)
    assert np.linalg.norm(op.N - op.N.T) <= 1e-10 * np.linalg.norm(op.N)
    w = np.linalg.eigvalsh(op.J0)
    assert w.min() > 0


def test_ntn_boundary_mass_is_the_extended_trace_gram():
    # J0 = T^T T is symmetric bit for bit, with no averaging, and it is the
    # boundary mass E^T M_b E of the discretely harmonic extensions E
    m = build_mesh(6, 5)
    J0 = build_ntn(m).J0
    assert np.array_equal(J0, J0.T)
    full = DofMap.unconstrained(m)
    K = assemble(GRAD_MASS, m, full).matrix.toarray()
    trace = boundary_trace_dofs(m)
    comp = np.setdiff1d(np.arange(full.n_dofs), trace)
    E = np.zeros((full.n_dofs, trace.size))
    E[trace, np.arange(trace.size)] = 1.0
    E[comp] = -np.linalg.solve(K[np.ix_(comp, comp)], K[np.ix_(comp, trace)])
    Mb = assemble(boundary_mass("All"), m, full).matrix
    ref = E.T @ (Mb @ E)
    assert np.linalg.norm(J0 - ref) <= 1e-12 * np.linalg.norm(ref)


def test_trace_dof_count():
    m = build_mesh(4, 4)
    dofs = boundary_trace_dofs(m)
    # 16 boundary nodes carry a value; 10 horizontal-edge nodes carry the
    # x-slope, 10 vertical-edge nodes the y-slope (corners carry both)
    assert dofs.size == 16 + 10 + 10
    grid = dof_grid(m)
    values = grid[..., DOF_V]
    assert np.isin(np.setdiff1d(values, values[1:-1, 1:-1]), dofs).all()
    assert not np.isin(grid[::m.nx, ::m.ny, DOF_VXY], dofs).any()


# ---------------------------------------------------------------------------
# mixed-splitting oracle

def test_mixed_splitting_agrees_with_c1_solve():
    f = lambda x, y: np.sin(np.pi * x)
    f3 = (f, lambda x, y: np.pi * np.cos(np.pi * x),
          lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    errs = []
    for n in (8, 16):
        m = build_mesh(n, n)
        sol = solve_navier(m, f3)
        oracle_mesh = build_mesh(4 * n, 4 * n)
        _, u_oracle = mixed_splitting_solve(oracle_mesh, f)
        errs.append(relative_h1_error(sol.u, oracle_mesh, u_oracle))
    assert errs[0] <= 5e-2
    assert errs[1] < errs[0]


def test_mixed_splitting_matches_closed_form():
    # datum sin(pi x): u = sin(pi x) w(y + 1/2) with w(+-1/2) = 0 and
    # w'' - pi^2 w = cosh(pi z) / cosh(pi/2), so Lap(u) has the trace sin(pi x)
    p = np.pi
    c, s = np.cosh(p / 2), np.sinh(p / 2)
    w = lambda z: (z * np.sinh(p * z) / (2 * p * c)
                   - s * np.cosh(p * z) / (4 * p * c * c))
    dw = lambda z: ((np.sinh(p * z) + p * z * np.cosh(p * z)) / (2 * p * c)
                    - s * np.sinh(p * z) / (4 * c * c))
    exact = (lambda x, y: np.sin(p * x) * w(y + 0.5),
             lambda x, y: p * np.cos(p * x) * w(y + 0.5),
             lambda x, y: np.sin(p * x) * dw(y + 0.5))
    errs = []
    for n in (64, 128):
        m = build_mesh(n, n)
        _, u = mixed_splitting_solve(m, lambda x, y: np.sin(p * x))
        errs.append(relative_h1_error(exact, m, u))
    assert errs[0] <= 3e-4
    assert errs[1] <= errs[0] / 3.5       # second order in H1


def test_q1_matrices_basic_identities():
    # matrices of the biquadratic splitting oracle
    m = build_mesh(5, 4)
    K, M = q2_matrices(m)
    ones = np.ones(K.shape[0])
    assert np.max(np.abs(K @ ones)) < 1e-13          # constants in the kernel
    assert ones @ (M @ ones) == pytest.approx(1.0, rel=1e-12)  # total area
