import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov_lab.assembly import (FeFunction, GRAD_MASS, HESSIAN_ENERGY,
                                  LAPLACIAN_ENERGY, MASS, MIXED_U_DELTA,
                                  assemble, assemble_many, assemble_navier_load,
                                  boundary_mass, e_distance, gauss01,
                                  hermite1d, normal_trace, sobolev_forms)
from steklov_lab.mesh import DofMap, build_mesh, mark_essential
from steklov_lab.profile_geometry import (BoundaryProfile, DomainSpec,
                                          KappaLayer, build_diffeo,
                                          fit_kappa_layer)


def dirichlet(mesh):
    return mark_essential(mesh, DofMap.unconstrained(mesh), "DirichletAll")


def zero_diffeo(eps=0.125):
    prof = BoundaryProfile.fourier_cosine([0.0], alpha=2.0)
    return build_diffeo(DomainSpec(epsilon=eps, profile=prof),
                        KappaLayer(kappa_eps=0.1, k_hat=8.0))


def cos_diffeo(alpha=2.0, eps=0.125):
    prof = BoundaryProfile.fourier_cosine([1.0, 1.0], alpha=alpha)
    spec = DomainSpec(epsilon=eps, profile=prof)
    return build_diffeo(spec, fit_kappa_layer(spec))


# ---------------------------------------------------------------------------
# element-level oracle

def test_element_mass_trace_against_high_order_quadrature():
    m = build_mesh(1, 1)
    full = DofMap.unconstrained(m)
    M = assemble(MASS, m, full).matrix.toarray()
    # independent path: 10x10 Gauss of the squared shape functions through
    # the point evaluator
    t, w = gauss01(10)
    X, Y = np.meshgrid(t, -1.0 + t, indexing="ij")
    W = np.outer(w, w)
    trace = 0.0
    for i in range(16):
        c = np.zeros(16)
        c[i] = 1.0
        phi = FeFunction(m, c).value(X.ravel(), Y.ravel())
        trace += float(np.sum(W.ravel() * phi ** 2))
    assert np.trace(M) == pytest.approx(trace, rel=1e-13)


def test_hermite_basis_partition_of_unity():
    t = np.linspace(0, 1, 7)
    B = hermite1d(t, 0.3, 0)
    assert np.allclose(B[0] + B[2], 1.0)


# ---------------------------------------------------------------------------
# form identities on the constrained space

@pytest.mark.parametrize("n", [4, 12])
def test_laplacian_equals_hessian_reduced(n):
    m = build_mesh(n, n)
    dm = dirichlet(m)
    L = assemble(LAPLACIAN_ENERGY, m, dm).matrix.toarray()
    H = assemble(HESSIAN_ENERGY, m, dm).matrix.toarray()
    assert np.max(np.abs(L - H)) <= 1e-10 * np.max(np.abs(L))


@pytest.mark.parametrize("n", [4, 12])
def test_gradmass_equals_minus_mixed(n):
    m = build_mesh(n, n)
    dm = dirichlet(m)
    G = assemble(GRAD_MASS, m, dm).matrix.toarray()
    X = assemble(MIXED_U_DELTA, m, dm).matrix.toarray()
    assert np.max(np.abs(G + X)) <= 1e-10 * np.max(np.abs(G))


def test_discrete_poincare_chain():
    m = build_mesh(6, 6)
    dm = dirichlet(m)
    M = assemble(MASS, m, dm).matrix
    G = assemble(GRAD_MASS, m, dm).matrix
    L = assemble(LAPLACIAN_ENERGY, m, dm).matrix
    c = np.sqrt(2.0)          # diameter of the unit strip cross-section
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.standard_normal(dm.n_free)
        l2 = np.sqrt(u @ (M @ u))
        h1 = np.sqrt(u @ (G @ u))
        lap = np.sqrt(u @ (L @ u))
        assert l2 <= c ** 2 * lap
        assert h1 <= c * lap


def test_symmetry_and_positive_definiteness():
    m = build_mesh(4, 4)
    dm = dirichlet(m)
    for kind in (LAPLACIAN_ENERGY, HESSIAN_ENERGY):
        A = assemble(kind, m, dm).matrix
        asym = abs(A - A.T).max()
        assert asym <= 1e-13 * abs(A).max()
        w = np.linalg.eigvalsh(A.toarray())
        assert w.min() > 0


# ---------------------------------------------------------------------------
# pulled-back assembly

def test_trivial_pullback_equals_reference():
    m = build_mesh(6, 5, grading=0.8)
    dm = dirichlet(m)
    dif = zero_diffeo()
    for kind in (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY,
                 MIXED_U_DELTA, normal_trace("All"), normal_trace("Gamma"),
                 boundary_mass("All")):
        R = assemble(kind, m, dm).matrix
        P = assemble(kind, m, dm, domain=dif).matrix
        scale = max(abs(R).max(), 1e-300)
        assert abs(P - R).max() <= 1e-12 * scale


def test_pullback_normal_trace_gamma_b0():
    m = build_mesh(5, 4)
    dm = dirichlet(m)
    R = assemble(normal_trace("Gamma"), m, dm).matrix
    P = assemble(normal_trace("Gamma"), m, dm, domain=zero_diffeo()).matrix
    assert abs(P - R).max() <= 1e-12 * abs(R).max()


def test_quadrature_preconditions():
    m = build_mesh(3, 3)
    dm = dirichlet(m)
    with pytest.raises(ValueError):
        assemble(MASS, m, dm, quad_order=3)
    with pytest.raises(ValueError):
        assemble(MASS, m, dm, domain=cos_diffeo(), quad_order=5)


def test_resolution_warning():
    m = build_mesh(4, 3)       # only 0.5 elements per eps = 1/8 period
    dm = dirichlet(m)
    with pytest.warns(UserWarning, match="elements per oscillation period"):
        assemble(MASS, m, dm, domain=cos_diffeo())
    # at alpha = 1 the graph slope 2 pi does not shrink with eps: 8 elements
    # per period are flagged, the rule's 24 are not
    steep = cos_diffeo(alpha=1.0, eps=0.0625)
    m = build_mesh(8 * 16, 2)
    with pytest.warns(UserWarning, match="elements per oscillation period"):
        assemble(MASS, m, dirichlet(m), domain=steep)
    m = build_mesh(24 * 16, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble(MASS, m, dirichlet(m), domain=steep)


def test_pulled_back_volume_matches_area():
    # integral of 1 over the perturbed domain = 1 + int g_eps
    dif = cos_diffeo(alpha=2.0, eps=0.125)
    m = build_mesh(64, 8, grading=0.8)
    full = DofMap.unconstrained(m)
    M = assemble(MASS, m, full, domain=dif, quad_order=8).matrix
    one = FeFunction.interpolate(
        m, lambda x, y: np.ones_like(x),
        fx=lambda x, y: np.zeros_like(x), fy=lambda x, y: np.zeros_like(x),
        fxy=lambda x, y: np.zeros_like(x))
    area = one.coeffs @ (M @ one.coeffs)
    # mean of g = eps^2 * mean(1 + cos) = eps^2; the layer interface kinks the
    # weight inside elements, so equality holds to quadrature accuracy only
    assert area == pytest.approx(1.0 + 0.125 ** 2, rel=5e-8)


@pytest.mark.parametrize("pulled_back", [False, True])
def test_assemble_many_matches_assemble(pulled_back):
    # one pass for several forms gives each form's matrix bit for bit
    m = build_mesh(16, 4, grading=0.8)
    dm = dirichlet(m)
    dif = cos_diffeo(alpha=2.0, eps=0.125) if pulled_back else None
    kinds = (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY, MIXED_U_DELTA)
    for kind, many in zip(kinds, assemble_many(kinds, m, dm, dif)):
        one = assemble(kind, m, dm, dif).matrix
        assert many.kind == kind and many.domain is dif
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(many.matrix, attr), getattr(one, attr))
    with pytest.raises(ValueError):
        assemble_many((MASS, normal_trace("All")), m, dm, dif)


def _fd_derivs(f, x, y, d=1e-4):
    """f, f_x, f_y, f_xx, f_xy, f_yy by fourth-order central differences."""
    def first(step):
        m2, m1, p1, p2 = (f(*step(s)) for s in (-2, -1, 1, 2))
        return (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * d)

    def second(step):
        m2, m1, c0, p1, p2 = (f(*step(s)) for s in (-2, -1, 0, 1, 2))
        return (-p2 + 16 * p1 - 30 * c0 + 16 * m1 - m2) / (12 * d * d)

    def cross(h):
        return (f(x + h, y + h) - f(x + h, y - h)
                - f(x - h, y + h) + f(x - h, y - h)) / (4 * h * h)

    along_x = lambda s: (x + s * d, y)
    along_y = lambda s: (x, y + s * d)
    return (f(x, y), first(along_x), first(along_y), second(along_x),
            (4.0 * cross(d) - cross(2 * d)) / 3.0, second(along_y))


def test_pullback_chain_rule_against_finite_differences():
    # u = u_hat o Phi on a nontrivial layer map, 8 elements per period; the
    # forms and the load are integrated at the mapped Gauss points with the
    # weights divided by det DPhi, and every derivative of the composition is
    # taken by finite differences instead of the chain rule
    dif = cos_diffeo(alpha=2.0, eps=0.25)
    m = build_mesh(32, 6, grading=0.7)
    full = DofMap.unconstrained(m)
    u_hat = FeFunction(m, np.random.default_rng(8).standard_normal(4 * m.n_nodes))
    t, wq = gauss01(6)
    xr = (m.xs[:-1, None] + m.hx(0) * t).ravel()
    yr = (m.ys[:-1, None] + np.diff(m.ys)[:, None] * t).ravel()
    wr = np.outer(np.full(m.nx, m.hx(0))[:, None] * wq,
                  np.diff(m.ys)[:, None] * wq).ravel()
    X, Yr = (a.ravel() for a in np.meshgrid(xr, yr, indexing="ij"))
    Y = dif.physical_y(X, Yr)
    w = wr / dif.det(X, Y)
    u, ux, uy, uxx, uxy, uyy = _fd_derivs(
        lambda x, y: u_hat.value(*dif.phi(x, y)), X, Y)
    expected = {
        MASS: np.sum(w * u ** 2),
        GRAD_MASS: np.sum(w * (ux ** 2 + uy ** 2)),
        LAPLACIAN_ENERGY: np.sum(w * (uxx + uyy) ** 2),
        HESSIAN_ENERGY: np.sum(w * (uxx ** 2 + 2 * uxy ** 2 + uyy ** 2)),
    }
    c = u_hat.coeffs
    for kind, value in expected.items():
        A = assemble(kind, m, full, dif).matrix
        assert c @ (A @ c) == pytest.approx(value, rel=1e-8), kind
    # the experiments' datum, and one that also sees where the points lie in y
    k = np.pi / m.w_len
    data = ((lambda x, y: np.sin(k * x), lambda x, y: k * np.cos(k * x),
             lambda x, y: np.zeros_like(x)),
            (lambda x, y: x * y ** 2, lambda x, y: y ** 2, lambda x, y: 2 * x * y))
    for f, fx, fy in data:
        F = assemble_navier_load((f, fx, fy), m, full, dif)
        value = np.sum(w * (f(X, Y) * (uxx + uyy) + fx(X, Y) * ux + fy(X, Y) * uy))
        assert c @ F == pytest.approx(value, rel=1e-8)


# ---------------------------------------------------------------------------
# discrete functions

def test_fe_function_c1_across_edges():
    m = build_mesh(3, 4, grading=0.75)
    rng = np.random.default_rng(2)
    f = FeFunction(m, rng.standard_normal(4 * m.n_nodes))
    x0 = m.xs[2]
    yy = np.linspace(-0.97, -0.03, 23)
    for dx_order, dy_order in ((0, 0), (1, 0), (0, 1)):
        left = f.eval(np.full_like(yy, x0 - 1e-13), yy, dx_order, dy_order)
        right = f.eval(np.full_like(yy, x0 + 1e-13), yy, dx_order, dy_order)
        assert np.max(np.abs(left - right)) < 1e-9 * (1 + np.max(np.abs(left)))


def test_fe_function_reproduces_bicubics():
    m = build_mesh(3, 3)
    f = lambda x, y: x ** 3 - 2 * x * y + y ** 2 + 0.5 * x ** 2 * y ** 3
    fx = lambda x, y: 3 * x ** 2 - 2 * y + x * y ** 3
    fy = lambda x, y: -2 * x + 2 * y + 1.5 * x ** 2 * y ** 2
    fxy = lambda x, y: -2 + 3 * x * y ** 2
    u = FeFunction.interpolate(m, f, fx, fy, fxy)
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, 50)
    y = rng.uniform(-1, 0, 50)
    assert np.max(np.abs(u.value(x, y) - f(x, y))) < 1e-12
    assert np.max(np.abs(u.eval(x, y, 1, 0) - fx(x, y))) < 1e-11
    assert np.max(np.abs(u.eval(x, y, 0, 2) - (2 + 3 * x ** 2 * y))) < 1e-10


# ---------------------------------------------------------------------------
# loads

def test_navier_load_zero_datum():
    m = build_mesh(4, 4)
    dm = dirichlet(m)
    z = FeFunction(m, np.zeros(4 * m.n_nodes))
    assert np.max(np.abs(assemble_navier_load(z, m, dm))) == 0.0


def test_navier_load_constant_datum_is_laplacian_integral():
    m = build_mesh(4, 3)
    dm = dirichlet(m)
    one = FeFunction.interpolate(
        m, lambda x, y: np.ones_like(x),
        fx=lambda x, y: np.zeros_like(x), fy=lambda x, y: np.zeros_like(x),
        fxy=lambda x, y: np.zeros_like(x))
    load = assemble_navier_load(one, m, dm)
    # oracle: 10-point Gauss of Lap(phi_i) through the point evaluator
    t, w = gauss01(10)
    free = dm.free
    for idx in range(0, dm.n_free, 7):
        c = np.zeros(dm.n_dofs)
        c[free[idx]] = 1.0
        phi = FeFunction(m, c)
        val = 0.0
        for ex in range(m.nx):
            for ey in range(m.ny):
                xs = m.xs[ex] + t * m.hx(ex)
                ys = m.ys[ey] + t * m.hy(ey)
                X, Y = np.meshgrid(xs, ys, indexing="ij")
                lap = (phi.eval(X.ravel(), Y.ravel(), 2, 0)
                       + phi.eval(X.ravel(), Y.ravel(), 0, 2))
                val += m.hx(ex) * m.hy(ey) * float(np.outer(w, w).ravel() @ lap)
        assert load[idx] == pytest.approx(val, abs=1e-12 + 1e-10 * abs(val))


# ---------------------------------------------------------------------------
# transplanted distances

@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
def test_e_distance_zero_and_scaling():
    m = build_mesh(4, 4)
    rng = np.random.default_rng(5)
    u = FeFunction(m, rng.standard_normal(4 * m.n_nodes))
    v = FeFunction(m, rng.standard_normal(4 * m.n_nodes))
    dif = cos_diffeo()
    forms = sobolev_forms(m, dif)
    assert e_distance(u, u, dif, "H2", forms=forms) == 0.0
    d1 = e_distance(u, v, dif, "H1", forms=forms)
    u2 = FeFunction(m, 2 * u.coeffs)
    v2 = FeFunction(m, 2 * v.coeffs)
    assert e_distance(u2, v2, dif, "H1", forms=forms) == pytest.approx(2 * d1, rel=1e-12)


def test_e_distance_trivial_diffeo_matches_quadrature():
    m = build_mesh(3, 3)
    rng = np.random.default_rng(6)
    u = FeFunction(m, rng.standard_normal(4 * m.n_nodes))
    z = FeFunction(m, np.zeros(4 * m.n_nodes))
    d = e_distance(u, z, None, "L2")
    t, w = gauss01(8)
    total = 0.0
    for ex in range(m.nx):
        for ey in range(m.ny):
            xs = m.xs[ex] + t * m.hx(ex)
            ys = m.ys[ey] + t * m.hy(ey)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            vals = u.value(X.ravel(), Y.ravel()) ** 2
            total += m.hx(ex) * m.hy(ey) * float(np.outer(w, w).ravel() @ vals)
    assert d == pytest.approx(np.sqrt(total), rel=1e-12)


def test_e_distance_norm_and_mesh_checks():
    m = build_mesh(3, 3)
    m2 = build_mesh(4, 3)
    u = FeFunction(m, np.zeros(4 * m.n_nodes))
    v = FeFunction(m2, np.zeros(4 * m2.n_nodes))
    with pytest.raises(ValueError):
        e_distance(u, v, None)
    with pytest.raises(ValueError):
        e_distance(u, u, None, norm="H3")


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_mass_matrix_psd_property(nx, ny):
    m = build_mesh(nx, ny)
    M = assemble(MASS, m, DofMap.unconstrained(m)).matrix.toarray()
    assert np.allclose(M, M.T, atol=1e-14)
    w = np.linalg.eigvalsh(M)
    assert w.min() > -1e-12
