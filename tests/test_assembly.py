import functools
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import steklov_lab.assembly as assembly
from steklov_lab.assembly import (CellPullBack, FeFunction, GRAD_MASS,
                                  HESSIAN_ENERGY, LAPLACIAN_ENERGY, MASS,
                                  MIXED_U_DELTA, _add_rows, _blocks_tocsr,
                                  _combine, _elem_gdofs, _period_elements,
                                  _tensor_basis, _weigh, _x_factors,
                                  _y_factors, assemble,
                                  assemble_boundary_factor,
                                  assemble_navier_load, boundary_mass,
                                  gauss01, hermite1d, normal_trace,
                                  sobolev_forms)
from steklov_lab.mesh import DofMap, build_mesh, mark_essential
from steklov_lab.spectral import factor_spd
from steklov_lab.profile_geometry import (BoundaryProfile, DiffeoField,
                                          DomainSpec, GeometryError,
                                          KappaLayer, build_diffeo,
                                          fit_kappa_layer)

from oracles import interpolate


VOLUME_KINDS = (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY, MIXED_U_DELTA)


def dirichlet(mesh):
    return mark_essential(mesh, "DirichletAll")


def zero_diffeo(eps=0.125):
    prof = BoundaryProfile.fourier_cosine([0.0], alpha=2.0)
    return build_diffeo(DomainSpec(epsilon=eps, profile=prof),
                        KappaLayer(kappa_eps=0.1, k_hat=8.0))


def cos_diffeo(alpha=2.0, eps=0.125):
    prof = BoundaryProfile.fourier_cosine([1.0, 1.0], alpha=alpha)
    spec = DomainSpec(epsilon=eps, profile=prof)
    return build_diffeo(spec, fit_kappa_layer(spec))


def cell_rows(mesh, domain, quad, tags):
    """Per element row of the cell's one pull-back: (ey, B, w, x), B mapping
    each tag to the row's basis arrays (rep, nq*nq, 16), w (rep, nq*nq) and
    x (nx, nq*nq)."""
    cell = CellPullBack(mesh, domain, quad)
    for ey in range(mesh.ny):
        B = cell.basis(tags, slice(ey, ey + 1))
        yield ey, {tag: b[0] for tag, b in B.items()}, cell.w[ey], cell.x


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


@pytest.mark.parametrize("orders", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_tensor_basis_matches_outer_products(orders):
    # the broadcast product equals one outer product per local DOF, bit for
    # bit, in the C-contiguous layout that the contractions' summation order
    # sees; the x-factor, computed once per cell, serves rows of every height
    tx, _ = gauss01(6)
    ty = np.linspace(0.1, 0.9, 5)
    X_pass = _x_factors(tx, 0.3)[orders[0]]
    heights = (0.05, 0.3, 0.0123)
    out = _tensor_basis(X_pass, _y_factors(ty, heights)[orders[1]])
    assert out.flags["C_CONTIGUOUS"]
    assert out.shape == (len(heights), tx.size * ty.size, 16)
    for hy, row in zip(heights, out):
        X, Y = hermite1d(tx, 0.3, orders[0]), hermite1d(ty, hy, orders[1])
        ref = np.empty((tx.size * ty.size, 16))
        for n, (a, b) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
            for t, (sx, sy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
                ref[:, 4 * n + t] = np.outer(X[2 * a + sx], Y[2 * b + sy]).ravel()
        assert np.array_equal(row, ref)


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


@pytest.mark.parametrize("kind", [MASS, normal_trace("All")])
def test_resolution_warning_names_the_caller(kind):
    # a volume form and a boundary form are both reported at the line that
    # called assemble
    m = build_mesh(4, 3)
    with pytest.warns(UserWarning, match="elements per oscillation period") as rec:
        assemble(kind, m, dirichlet(m), domain=cos_diffeo())
    assert [w.filename for w in rec] == [__file__]


def test_pulled_back_volume_matches_area():
    # integral of 1 over the perturbed domain = 1 + int g_eps
    dif = cos_diffeo(alpha=2.0, eps=0.125)
    m = build_mesh(64, 8, grading=0.8)
    full = DofMap.unconstrained(m)
    M = assemble(MASS, m, full, domain=dif, quad_order=8).matrix
    one = interpolate(
        m, lambda x, y: np.ones_like(x),
        fx=lambda x, y: np.zeros_like(x), fy=lambda x, y: np.zeros_like(x),
        fxy=lambda x, y: np.zeros_like(x))
    area = one.coeffs @ (M @ one.coeffs)
    # mean of g = eps^2 * mean(1 + cos) = eps^2; the layer interface kinks the
    # weight inside elements, so equality holds to quadrature accuracy only
    assert area == pytest.approx(1.0 + 0.125 ** 2, rel=5e-8)


@pytest.mark.parametrize("pulled_back", [False, True])
def test_free_form_is_the_restricted_form(pulled_back):
    # on the free DOFs each volume form is the unconstrained form restricted
    # to them, bit for bit, and its FeSystem names its kind and domain
    m = build_mesh(16, 4, grading=0.8)
    dm = dirichlet(m)
    dif = cos_diffeo(alpha=2.0, eps=0.125) if pulled_back else None
    for kind in VOLUME_KINDS:
        free = assemble(kind, m, dm, dif)
        cut = assemble(kind, m, DofMap.unconstrained(m), dif).matrix
        cut = cut[dm.free][:, dm.free]
        assert free.kind == kind and free.domain is dif and free.factor is None
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(free.matrix, attr), getattr(cut, attr))


def test_form_kinds_derive_from_their_terms():
    # symmetry, the boundary flag and the fields a pass reads all follow
    # from each kind's terms; a boundary kind has none and no local matrix
    assert [k.symmetric for k in VOLUME_KINDS] == [True] * 4 + [False]
    assert MASS.tags == {"v"} and GRAD_MASS.tags == {"x", "y"}
    assert LAPLACIAN_ENERGY.tags == {"xx", "yy"}
    assert HESSIAN_ENERGY.tags == {"xx", "xy", "yy"}
    assert MIXED_U_DELTA.tags == {"v", "xx", "yy"}
    for kind in (normal_trace("Gamma"), boundary_mass("All")):
        assert kind.on_boundary and kind.symmetric and not kind.tags
        with pytest.raises(ValueError):
            _combine(kind, {}, None)
    assert not any(k.on_boundary for k in VOLUME_KINDS)


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


def _einsum_combine(name, B, w):
    """A volume form's local matrices by einsum's optimized path, the way
    `_combine` summed them before it called matmul itself."""
    def e(P, Q):
        return np.einsum("eqi,eqj,eq->eij", P, Q, w, optimize=True)
    lap = B["xx"] + B["yy"]
    if name == "GradMass":
        m = e(B["x"], B["x"])
        m += e(B["y"], B["y"])
        return m
    if name == "HessianEnergy":
        m = e(B["xx"], B["xx"])
        m += 2.0 * e(B["xy"], B["xy"])
        m += e(B["yy"], B["yy"])
        return m
    P, Q = {"Mass": (B["v"], B["v"]), "LaplacianEnergy": (lap, lap),
            "MixedUDelta": (B["v"], lap)}[name]
    return e(P, Q)


@pytest.mark.parametrize("pulled_back", [False, True])
def test_matmul_contractions_equal_einsum_bit_for_bit(pulled_back):
    # the contractions run the multiply and matmul that einsum(...,
    # optimize=True) runs, so every local matrix and load keeps its bits;
    # checked row by row on a graded mesh, flat and under a steep layer map
    dif = cos_diffeo(alpha=1.2, eps=0.125) if pulled_back else None
    m = build_mesh(16, 6, grading=0.7)
    tags = ("v", "x", "y", "xx", "xy", "yy")
    kinds = (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY, MIXED_U_DELTA)
    rng = np.random.default_rng(11)
    for _, B, w, x in cell_rows(m, dif, 6, tags):
        for kind in kinds:
            assert np.array_equal(_combine(kind, B, w),
                                  _einsum_combine(kind.name, B, w)), kind
        # the load as `assemble_navier_load` summed it with einsum, over the
        # row's arrays repeated across its elements: one period's pulled-back
        # elements, or the flat strip's one element
        f = rng.standard_normal(x.shape)
        periods = m.nx // w.shape[0]
        assert periods == (m.nx if dif is None else 8)
        for P in (B["xx"] + B["yy"], B["x"], B["y"]):
            ref = np.einsum("eq,eqi,eq->ei", f, np.tile(P, (periods, 1, 1)),
                            np.tile(w, (periods, 1)), optimize=True)
            assert np.array_equal(_weigh(f, P, w), ref)


def _row_rel_diff(A, R):
    """Largest |A - R| entry of each row over the largest |R| entry of that
    row, maximised over the rows."""
    diff = abs(sp.csr_matrix(A - R)).max(axis=1).toarray().ravel()
    scale = abs(sp.csr_matrix(R)).max(axis=1).toarray().ravel()
    return float(np.max(diff / np.maximum(scale, 1e-300), initial=0.0))


def _coo_oracle(kind, mesh, dofmap, domain):
    """A volume form from plain COO triplets: every element's local matrix,
    one period's repeated over the row, at its 16 x 16 global DOF pairs; a
    symmetric form is the mean of the triplets and their transposes.
    Explicit zeros stay in the pattern."""
    free_idx = dofmap.free_index()
    rows, cols, vals = [], [], []
    quad = 4 if domain is None else 6
    for ey, B, w, _ in cell_rows(mesh, domain, quad, kind.tags):
        local = _combine(kind, B, w)
        local = np.tile(local, (mesh.nx // local.shape[0], 1, 1))
        fi = free_idx[_elem_gdofs(mesh, np.arange(mesh.nx), ey)]
        r = np.repeat(fi, 16, axis=1).ravel()
        c = np.tile(fi, (1, 16)).ravel()
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(local.reshape(-1)[keep])
    r, c, v = (np.concatenate(a) for a in (rows, cols, vals))
    if kind.symmetric:
        r, c = np.concatenate([r, c]), np.concatenate([c, r])
        v = np.concatenate([v, v]) / 2
    return sp.coo_matrix((v, (r, c)), shape=(dofmap.n_free,) * 2).tocsr()


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
@pytest.mark.parametrize("pulled_back", [False, True])
def test_node_block_scatter_matches_coo_oracle(pulled_back):
    # same pattern, explicit zeros included, and the same entries up to the
    # summation order, on graded meshes with and without constraints
    dif = cos_diffeo(alpha=1.2, eps=0.125) if pulled_back else None
    for m in (build_mesh(16, 5, grading=0.7), build_mesh(24, 3, grading=0.8)):
        full = DofMap.unconstrained(m)
        for dm in (full, mark_essential(m, "DirichletAll+ClampGamma")):
            for kind in VOLUME_KINDS:
                A = assemble(kind, m, dm, dif).matrix
                R = _coo_oracle(kind, m, dm, dif)
                assert A.indices.dtype == A.indptr.dtype == np.int32
                assert A.has_sorted_indices
                assert np.array_equal(A.indptr, R.indptr), kind
                assert np.array_equal(A.indices, R.indices), kind
                assert _row_rel_diff(A, R) <= 1e-13, kind


def test_entries_sum_element_rows_pairwise():
    # an entry is the sum of two element rows' sums, each of at most two
    # elements, so where a row's two terms are equal, as for the value DOFs
    # on the flat strip, it is their correctly rounded sum; a last-bit
    # error that repeats along x would move the spectra coherently
    m = build_mesh(8, 5, grading=0.7)
    local = [_combine(HESSIAN_ENERGY, B, w)[0] for _, B, w, _
             in cell_rows(m, None, 4, HESSIAN_ENERGY.tags)]
    A = assemble(HESSIAN_ENERGY, m, DofMap.unconstrained(m)).matrix
    exact = 0
    for ix in range(1, m.nx):
        for iy in range(1, m.ny):
            for t in range(4):
                # the node is tr and tl in the row below, bl and br above
                below = local[iy - 1][8 + t, 8 + t], local[iy - 1][12 + t, 12 + t]
                above = local[iy][t, t], local[iy][4 + t, 4 + t]
                g = 4 * (ix * (m.ny + 1) + iy) + t
                assert A[g, g] == (below[0] + below[1]) + (above[0] + above[1])
                if below[0] == below[1] and above[0] == above[1]:
                    terms = (*below, *above)
                    assert A[g, g] == float(sum(Fraction(float(v)) for v in terms))
                    exact += 1
    assert exact >= (m.nx - 1) * (m.ny - 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_scatter_keeps_local_symmetry_exact(rep, j, ny, chunk, seed):
    # the scatter adds an entry and its transpose from the same terms in the
    # same order, so exactly symmetric local matrices of any magnitude give
    # an exactly symmetric matrix, and unsymmetrized ones do not; the rows
    # go in chunks of any size, and give the bits of one row at a time
    m = build_mesh(rep * j, ny)
    rng = np.random.default_rng(seed)
    shape = (ny, rep, 16, 16)
    local = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    for sym, rows in ((True, 0.5 * (local + local.swapaxes(2, 3))),
                      (False, local)):
        S, S1 = (np.zeros((m.nx + 1, m.ny + 1, 4, 3, 3, 4)) for _ in range(2))
        for ey in range(0, ny, chunk):
            _add_rows(S, ey, rows[ey:ey + chunk])
        for ey in range(ny):
            _add_rows(S1, ey, rows[ey:ey + 1])
        assert np.array_equal(S.view(np.uint64), S1.view(np.uint64))
        A = _blocks_tocsr(S, DofMap.unconstrained(m))
        assert ((A != A.T).nnz == 0) == sym


BCS = (None, "DirichletAll", "DirichletAll+ClampGamma",
       "DirichletAll+ClampSigma", "DirichletAll+ClampGamma+ClampSigma")


@functools.lru_cache
def shared_diffeo():
    return cos_diffeo(alpha=1.2, eps=0.125)


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.sampled_from((1.0, 0.7)),
       st.sampled_from(BCS), st.sampled_from(VOLUME_KINDS), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_block_operations_have_the_bits_of_the_csr(nx, ny, grading, bc, kind,
                                                   pulled_back, seed):
    # a volume FeSystem's product, diagonal and band factor are read from
    # its node-pair blocks (a product adds each row's terms in the CSR's
    # column order), so they have the bits of the same operations on the
    # CSR matrix it builds; where dpbtrf fails, as on a singular
    # unconstrained energy form, it fails at the same leading minor.  The
    # CSR reads the same neighbour index, so the product and the diagonal
    # are also checked, within rounding, against the COO oracle, which
    # places each element's local matrix through `_elem_gdofs` alone
    m = build_mesh(nx, ny, grading=grading)
    dm = DofMap.unconstrained(m) if bc is None else mark_essential(m, bc)
    dif = shared_diffeo() if pulled_back else None
    A = assemble(kind, m, dm, dif)
    M, R = A.matrix, _coo_oracle(kind, m, dm, dif)
    assert A.shape == M.shape == (dm.n_free,) * 2
    rng = np.random.default_rng(seed)
    for v in (rng.standard_normal(dm.n_free),
              rng.standard_normal((dm.n_free, 2))):
        assert np.array_equal(A @ v, M @ v)
        scale = abs(R) @ abs(v)
        assert np.all(np.abs(A @ v - R @ v) <= 1e-12 * scale)
    assert np.array_equal(A.diagonal(), M.diagonal())
    row_max = np.abs(R.toarray()).max(axis=1, initial=0.0)
    assert np.all(np.abs(A.diagonal() - R.diagonal()) <= 1e-13 * row_max)

    def factor_or_failure(X):
        try:
            return factor_spd(X).band_factor
        except np.linalg.LinAlgError as exc:
            return str(exc)
    got, want = factor_or_failure(A), factor_or_failure(M)
    assert type(got) is type(want) and np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
@pytest.mark.parametrize("pulled_back", [False, True])
def test_symmetric_forms_are_exactly_symmetric(pulled_back):
    m = build_mesh(16, 5, grading=0.7)
    dif = cos_diffeo(alpha=1.2, eps=0.125) if pulled_back else None
    full = DofMap.unconstrained(m)
    kinds = (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY,
             normal_trace("Gamma"), normal_trace("All"), boundary_mass("All"))
    for dm in (full, mark_essential(m, "DirichletAll+ClampGamma")):
        for kind in kinds:
            A = assemble(kind, m, dm, dif).matrix
            assert A.has_sorted_indices
            assert (A - A.T).nnz == 0, kind


@pytest.mark.parametrize("alpha, eps, nx, tiled", [
    (2.0, 0.125, 64, True),         # 8 elements in each of 8 periods
    (1.2, 0.125, 128, True),        # 16 elements in each of 8 periods
    (2.0, 0.125, 60, False),        # 7.5 elements per period: no tiling
])
def test_one_period_per_row_matches_every_element(monkeypatch, alpha, eps,
                                                  nx, tiled):
    # a row pulled back on one period and repeated over the others gives
    # the forms and the load of the row pulled back element by element
    dif = cos_diffeo(alpha=alpha, eps=eps)
    m = build_mesh(nx, 6, grading=0.7)
    assert (_period_elements(m, dif) < nx) == tiled
    dm = mark_essential(m, "DirichletAll")
    datum = (lambda x, y: np.sin(np.pi * x) * np.exp(y),
             lambda x, y: np.pi * np.cos(np.pi * x) * np.exp(y),
             lambda x, y: np.sin(np.pi * x) * np.exp(y))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tiled_forms = [assemble(k, m, dm, dif).matrix for k in VOLUME_KINDS]
        tiled_load = assemble_navier_load(datum, m, dm, dif)
        monkeypatch.setattr(assembly, "_period_elements",
                            lambda mesh, domain: mesh.nx)
        forms = [assemble(k, m, dm, dif).matrix for k in VOLUME_KINDS]
        load = assemble_navier_load(datum, m, dm, dif)
    for kind, A, R in zip(VOLUME_KINDS, tiled_forms, forms):
        assert np.array_equal(A.indices, R.indices)
        rel = _row_rel_diff(A, R)
        assert rel <= 1e-12, kind
        assert (rel == 0.0) == (not tiled), kind
    assert np.max(np.abs(tiled_load - load)) <= 1e-12 * np.max(np.abs(load))


def test_pullback_boundary_forms_against_finite_differences():
    # the boundary forms on the same layer map, by direct quadrature on the
    # physical boundary: the graph with dS = sqrt(1 + g'^2) dx and normal
    # (-g', 1)/sqrt(1 + g'^2), the sides at the mapped heights with
    # dy = dy_hat / det DPhi, and the flat bottom; the derivatives of
    # u = u_hat o Phi are taken by finite differences
    dif = cos_diffeo(alpha=2.0, eps=0.25)
    m = build_mesh(32, 6, grading=0.7)
    full = DofMap.unconstrained(m)
    u_hat = FeFunction(m, np.random.default_rng(8).standard_normal(4 * m.n_nodes))
    u_of = lambda x, y: u_hat.value(*dif.phi(x, y))
    t, wq = gauss01(6)
    x = (m.xs[:-1, None] + m.hx(0) * t).ravel()
    wx = np.tile(m.hx(0) * wq, m.nx)
    yr = (m.ys[:-1, None] + np.diff(m.ys)[:, None] * t).ravel()
    wy = (np.diff(m.ys)[:, None] * wq).ravel()

    g, gp = dif.spec.g(x), dif.spec.g(x, 1)
    u, ux, uy, *_ = _fd_derivs(u_of, x, g)
    s = np.sqrt(1.0 + gp ** 2)
    top_trace = np.sum(wx * s * ((-gp * ux + uy) / s) ** 2)
    top_mass = np.sum(wx * s * u ** 2)
    u, _, uy, *_ = _fd_derivs(u_of, x, np.full_like(x, -1.0))
    bottom_trace, bottom_mass = np.sum(wx * uy ** 2), np.sum(wx * u ** 2)
    side_trace = side_mass = 0.0
    for x_edge in (0.0, m.w_len):
        xs = np.full_like(yr, x_edge)
        y = dif.physical_y(xs, yr)
        u, ux, *_ = _fd_derivs(u_of, xs, y)
        w = wy / dif.det(xs, y)
        side_trace += np.sum(w * ux ** 2)
        side_mass += np.sum(w * u ** 2)
    expected = {
        normal_trace("Gamma"): top_trace,
        normal_trace("All"): top_trace + bottom_trace + side_trace,
        boundary_mass("All"): top_mass + bottom_mass + side_mass,
    }
    c = u_hat.coeffs
    for kind, value in expected.items():
        B = assemble(kind, m, full, dif).matrix
        assert c @ (B @ c) == pytest.approx(value, rel=1e-8), kind


@pytest.mark.parametrize("pulled_back", [False, True])
def test_boundary_factor_reproduces_the_form(pulled_back):
    # B = C C^T, so ||C^T u||^2 = u^T B u without the n x n matrix
    m = build_mesh(64, 4, grading=0.8)
    dif = cos_diffeo(alpha=2.0, eps=0.125) if pulled_back else None
    for dm in (DofMap.unconstrained(m), dirichlet(m)):
        u = np.random.default_rng(5).standard_normal(dm.n_free)
        for kind in (normal_trace("Gamma"), normal_trace("All"),
                     boundary_mass("All")):
            B = assemble(kind, m, dm, dif).matrix
            C = assemble_boundary_factor(kind, m, dm, dif)
            scale = max(abs(B).max(), 1e-300)
            assert abs(C @ C.T - B).max() <= 1e-13 * scale, kind
            assert np.sum((C.T @ u) ** 2) == pytest.approx(u @ (B @ u),
                                                           rel=1e-13, abs=1e-300)


def _bits(C):
    return [getattr(C, part).tobytes() for part in ("indptr", "indices", "data")]


@pytest.mark.parametrize("pulled_back", [False, True])
def test_boundary_factor_from_a_shared_cell_has_the_bits_of_its_own(
        pulled_back):
    # a factor read from a cell that a volume pass has already pulled back
    # is bit for bit the factor built on a cell of its own
    m = build_mesh(64, 4, grading=0.8)
    dif = cos_diffeo(alpha=2.0, eps=0.125) if pulled_back else None
    for dm in (DofMap.unconstrained(m),
               mark_essential(m, "DirichletAll+ClampGamma")):
        cell = CellPullBack(m, dif)
        assemble(HESSIAN_ENERGY, m, dm, dif, cell=cell)
        for kind in (normal_trace("Gamma"), normal_trace("All"),
                     boundary_mass("Gamma"), boundary_mass("All")):
            C = assemble_boundary_factor(kind, m, dm, dif, cell=cell)
            alone = assemble_boundary_factor(kind, m, dm, dif)
            assert C.shape == alone.shape and _bits(C) == _bits(alone), kind
            B = assemble(kind, m, dm, dif, cell=cell)
            assert _bits(B.factor) == _bits(alone), kind
    other = build_mesh(64, 5, grading=0.8)
    with pytest.raises(ValueError, match="the pull-back is of another cell"):
        assemble_boundary_factor(normal_trace("All"), other,
                                 DofMap.unconstrained(other), dif, cell=cell)


def _counting(monkeypatch):
    """Counts of the `hermite1d` calls and shapes of the reference
    ordinates of the `physical_y` calls made from here on."""
    calls = {"hermite1d": 0, "physical_y": []}
    hermite, physical_y = assembly.hermite1d, DiffeoField.physical_y

    def count_hermite(*args):
        calls["hermite1d"] += 1
        return hermite(*args)

    def spy(self, x, yhat):
        calls["physical_y"].append(np.shape(yhat))
        return physical_y(self, x, yhat)
    monkeypatch.setattr(assembly, "hermite1d", count_hermite)
    monkeypatch.setattr(DiffeoField, "physical_y", spy)
    return calls


@pytest.mark.parametrize("ny", [2, 5])
def test_boundary_factor_pulls_back_only_its_edges(monkeypatch, ny):
    # from a built cell, an All factor takes its 12 one-point basis rows per
    # edge (top and bottom y, left and right x); alone, it adds the cell's x-
    # and y-factors and inverts the layer map on its edges only, one call
    # per edge, and a Gamma factor builds no y-factor of the element rows
    m, dif = build_mesh(64, ny, grading=0.8), cos_diffeo(alpha=2.0, eps=0.125)
    dm, nq = DofMap.unconstrained(m), 6
    cell = CellPullBack(m, dif)
    assemble(MASS, m, dm, dif, cell=cell)
    calls = _counting(monkeypatch)
    assemble_boundary_factor(normal_trace("All"), m, dm, dif, cell=cell)
    assert calls["hermite1d"] == 12
    assert len(calls["physical_y"]) == 4
    for part, edges, hermite in (("Gamma", 1, 6), ("All", 4, 15 + 3 * ny)):
        calls["hermite1d"], calls["physical_y"] = 0, []
        assemble_boundary_factor(normal_trace(part), m, dm, dif)
        assert calls["hermite1d"] == hermite, part
        assert len(calls["physical_y"]) == edges, part
        volume = (ny, cell.rep * nq * nq)
        assert all(s != volume for s in calls["physical_y"]), part


@pytest.mark.parametrize("kappa", [0.04, 0.01])
def test_folded_layer_map_fails_the_det_check_on_its_edges(kappa):
    # a layer map built directly, without build_diffeo's certificate, whose
    # layer is too thin for the graph: det DPhi = 1 - 3 g_eps / (k_hat kappa)
    # is negative at the top of the crests.  Every boundary factor reads the
    # top edge first and raises there, built alone or from a cell
    spec = DomainSpec(epsilon=0.25,
                      profile=BoundaryProfile.fourier_cosine([1.0, 1.0], 2.0))
    dif = DiffeoField(spec, KappaLayer(kappa_eps=kappa, k_hat=8.0))
    m = build_mesh(16, 6, grading=0.7)
    dm = DofMap.unconstrained(m)
    for kind in (normal_trace("Gamma"), normal_trace("All"),
                 boundary_mass("Gamma"), boundary_mass("All")):
        for cell in (None, CellPullBack(m, dif)):
            with pytest.raises(GeometryError,
                               match=r"det DPhi <= 0 at a quadrature point"):
                assemble_boundary_factor(kind, m, dm, dif, cell=cell)


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
    u = interpolate(m, f, fx, fy, fxy)
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
    one = interpolate(
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
# Sobolev norms

def test_mass_form_matches_quadrature():
    m = build_mesh(3, 3)
    rng = np.random.default_rng(6)
    u = FeFunction(m, rng.standard_normal(4 * m.n_nodes))
    d = np.sqrt(sobolev_forms((MASS,), u.coeffs, m,
                              DofMap.unconstrained(m))[0, 0, 0])
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


@pytest.mark.parametrize("nv", [1, 2])
@pytest.mark.parametrize("bc", ["DirichletAll", None])
@pytest.mark.parametrize("pulled_back", [False, True])
def test_sobolev_forms_match_assembled_grams(pulled_back, bc, nv):
    # the quadrature pass gives V K V^T of the assembled forms, cross terms
    # included; the second vector is close to the first, so no cross term
    # is small against the diagonal it is compared at
    m = build_mesh(16, 4, grading=0.8)
    dm = DofMap.unconstrained(m) if bc is None else mark_essential(m, bc)
    dif = cos_diffeo(alpha=2.0, eps=0.125) if pulled_back else None
    rng = np.random.default_rng(11)
    v = rng.standard_normal(dm.n_free)
    V = np.array([v, v + 0.3 * rng.standard_normal(dm.n_free)])[:nv]
    kinds = (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY)
    grams = sobolev_forms(kinds, V, m, dm, dif)
    assert grams.shape == (4, nv, nv)
    for G, kind in zip(grams, kinds):
        want = V @ (assemble(kind, m, dm, dif).matrix @ V.T)
        assert np.all(np.abs(G - want) <= 1e-12 * np.abs(want)), kind
    assert np.array_equal(sobolev_forms(kinds[1:], V, m, dm, dif), grams[1:])
    for kind in (MIXED_U_DELTA, normal_trace("All")):
        with pytest.raises(ValueError):
            sobolev_forms((MASS, kind), V, m, dm, dif)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_mass_matrix_psd_property(nx, ny):
    m = build_mesh(nx, ny)
    M = assemble(MASS, m, DofMap.unconstrained(m)).matrix.toarray()
    assert np.allclose(M, M.T, atol=1e-14)
    w = np.linalg.eigvalsh(M)
    assert w.min() > -1e-12
