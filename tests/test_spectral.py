import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from steklov_lab.assembly import (_SLAB, LAPLACIAN_ENERGY, HESSIAN_ENERGY,
                                  assemble, normal_trace)
from steklov_lab.lab_cli import ExperimentConfig
from steklov_lab.mesh import build_mesh, mark_essential
from steklov_lab.profile_geometry import (BoundaryProfile, DiffeoField,
                                          DomainSpec, fit_kappa_layer)
from steklov_lab import spectral
from steklov_lab.spectral import (SPD_FACTOR_BUDGET, NoSteklovEigenvalues,
                                  SpectralConvergenceError, _finalize,
                                  factor_spd, solve_steklov)

from oracles import rayleigh


def square_pencil(n, form=LAPLACIAN_ENERGY, part="All", grading=1.0):
    m = build_mesh(n, n, grading=grading)
    dm = mark_essential(m, "DirichletAll")
    A = assemble(form, m, dm)
    B = assemble(normal_trace(part), m, dm)
    return A, B


# The raw-matrix tests pass B as a bare sparse matrix, which solve_steklov
# takes as the factor C of B = C C^T: a diagonal 0/1 matrix is its own factor.

def test_decoupled_two_by_two():
    A = sp.csr_matrix(np.diag([1.0, 2.0]))
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    s = solve_steklov(A, B, k=1)
    assert s.method == "lanczos"                 # k < m = 2
    assert s.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(s.modes[1, 0]) < 1e-12


def test_diagonal_full_rank():
    A = sp.csr_matrix(np.diag([2.0, 3.0]))
    B = sp.csr_matrix(np.eye(2))
    s = solve_steklov(A, B, k=2)
    assert s.method == "dense"                   # ARPACK needs k < m = 2
    assert np.allclose(s.eigenvalues, [2.0, 3.0])


def test_zero_boundary_form_raises():
    A = sp.csr_matrix(np.eye(3))
    B = sp.csr_matrix((3, 3))
    with pytest.raises(NoSteklovEigenvalues):
        solve_steklov(A, B, k=1)


def graded_pulled_back_pencil():
    # a q = 0.7 mesh under the alpha = 2, eps = 1/8 layer map: its Hermite
    # DOFs make diag(A) span ten decades
    m = build_mesh(32, 12, grading=0.7)
    dm = mark_essential(m, "DirichletAll")
    spec = DomainSpec(epsilon=1 / 8,
                      profile=BoundaryProfile.fourier_cosine([1.0, 1.0], 2.0))
    dif = DiffeoField(spec, fit_kappa_layer(spec))
    return (assemble(HESSIAN_ENERGY, m, dm, dif),
            assemble(normal_trace("All"), m, dm, dif))


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
def test_methods_agree_on_square():
    graded = graded_pulled_back_pencil()
    diag = graded[0].matrix.diagonal()
    assert diag.max() / diag.min() >= 1e9
    for A, B in (square_pencil(8), graded):
        ref = solve_steklov(A, B, k=3, method="dense")
        s = solve_steklov(A, B, k=3)
        assert (ref.method, s.method) == ("dense", "lanczos")
        rel = np.max(np.abs(s.eigenvalues - ref.eigenvalues) / ref.eigenvalues)
        assert rel <= 1e-9, rel
        assert max(ref.residuals.max(), s.residuals.max()) <= 1e-9


def test_bare_factor_and_its_fesystem_give_identical_spectra():
    A, B = square_pencil(8, grading=0.8)
    for method in ("lanczos", "dense"):
        via_system = solve_steklov(A, B, k=2, method=method)
        via_factor = solve_steklov(A, B.factor, k=2, method=method)
        for field in ("eigenvalues", "modes", "residuals"):
            assert np.array_equal(getattr(via_system, field),
                                  getattr(via_factor, field))
    with pytest.raises(ValueError, match="no boundary factor"):
        solve_steklov(A, A, k=2)


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
def test_lanczos_modes_match_the_dense_modes():
    # measured: ||C^T q|| - 1 within 4.5e-16, 1 - |cos| within 2.3e-16
    A, B = graded_pulled_back_pencil()
    ref = solve_steklov(A, B, k=3, method="dense")
    s = solve_steklov(A, B, k=3)
    assert s.method == "lanczos"
    assert np.allclose(np.linalg.norm(B.factor.T @ s.modes, axis=0), 1.0,
                       rtol=0, atol=1e-12)
    cos = np.abs(np.sum(s.modes * ref.modes, axis=0)) / (
        np.linalg.norm(s.modes, axis=0) * np.linalg.norm(ref.modes, axis=0))
    assert np.all(cos >= 1 - 1e-9), 1 - cos


def test_lanczos_certificate_over_tolerance_raises(monkeypatch):
    A, B = square_pencil(8, grading=0.8)
    worst = solve_steklov(A, B, k=2).residuals.max()
    monkeypatch.setattr(spectral, "LANCZOS_RESIDUAL_TOL", 0.5 * worst)
    with pytest.raises(SpectralConvergenceError, match="exceeds"):
        solve_steklov(A, B, k=2)


def test_unknown_method_raises():
    A, B = square_pencil(4)
    with pytest.raises(ValueError, match="unknown method 'subspace'"):
        solve_steklov(A, B, k=1, method="subspace")


def test_residual_certificates():
    A, B = square_pencil(8, grading=0.8)
    for method in ("dense", "lanczos"):
        s = solve_steklov(A, B, k=2, method=method)
        assert np.max(s.residuals) <= 1e-9


def test_residuals_are_taken_on_the_scaled_pencil():
    # perturbed eigenvectors of the scaled pencil have residuals far above
    # round-off, where the scaled and the unscaled pencil disagree
    A, B = square_pencil(8, grading=0.8)
    scale = 1.0 / np.sqrt(A.matrix.diagonal())
    D = sp.diags(scale)
    As, Bs = D @ A.matrix @ D, D @ B.matrix @ D
    mu, V = sla.eigh(Bs.toarray(), As.toarray())
    V = V + 1e-5 * np.random.default_rng(0).standard_normal(V.shape)
    s = _finalize(A.matrix, B.factor, mu, V * scale[:, None], 2, "dense",
                  scale)                                     # q = D y
    Y = s.modes / scale[:, None]                             # y = D^{-1} q
    AY = As @ Y
    res = np.linalg.norm(AY - (Bs @ Y) * s.eigenvalues, axis=0) \
        / np.linalg.norm(AY, axis=0)
    assert np.all(s.residuals > 1e-9)
    assert np.allclose(res, s.residuals, rtol=1e-6, atol=0)
    Aq = A.matrix @ s.modes
    raw = np.linalg.norm(Aq - (B.matrix @ s.modes) * s.eigenvalues, axis=0) \
        / np.linalg.norm(Aq, axis=0)
    assert not np.allclose(raw, s.residuals, rtol=0.1, atol=0)


def smoke_trichotomy_pencil(alpha, eps):
    # a trichotomy cell at the smoke settings of tests/test_lab_cli.py
    cfg = ExperimentConfig("trichotomy", ny=6, reference_nx=16,
                           eps_list=(1 / 8, 1 / 16))
    mesh, dif = cfg.mesh_for(alpha, eps), cfg.diffeo(alpha, eps)
    dm = mark_essential(mesh, "DirichletAll+ClampSigma")
    return (assemble(HESSIAN_ENERGY, mesh, dm, dif, cfg.quad_order),
            assemble(normal_trace("Gamma"), mesh, dm, dif, cfg.quad_order))


def counting_solves(monkeypatch):
    """Count the banded solves of one vector, the Lanczos products."""
    count = [0]
    solve = spectral.SpdFactor.solve

    def counted(self, b):
        count[0] += np.ndim(b) == 1
        return solve(self, b)

    monkeypatch.setattr(spectral.SpdFactor, "solve", counted)
    return count


def arpack_reference(A, B, k, ncv=40):
    """Ascending d of ARPACK at ncv 40 and tol 0 on T = C^T A^{-1} C, with
    its product count."""
    C, factor, count = B.factor, factor_spd(A), [0]

    def product(z):
        count[0] += 1
        return C.T @ factor.solve(C @ z)

    m = C.shape[1]
    T = spla.LinearOperator((m, m), dtype=float, matvec=product)
    mu = spla.eigsh(T, k=k, which="LA", ncv=ncv, tol=0,
                    v0=np.random.default_rng(0).standard_normal(m))[0]
    return np.sort(1.0 / mu), count[0]


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
def test_shifted_band_factor_matches_the_shifted_matrix():
    # A - sigma C C^T from A's blocks and C has the bits of the factor of
    # the CSR difference, on a flat and a pulled-back graded pencil.  By
    # Sylvester's law it factors iff sigma < d_1.
    for A, B in (square_pencil(8, grading=0.8), graded_pulled_back_pencil()):
        C = B.factor
        d = solve_steklov(A, B, k=2, method="dense").eigenvalues
        assert d[1] > 1.01 * d[0]
        for sigma in (-3.0 * d[0], 0.9 * d[0]):
            assert np.array_equal(
                factor_spd(A, C, sigma).band_factor,
                factor_spd(A.matrix - sigma * (C @ C.T)).band_factor)
        with pytest.raises(np.linalg.LinAlgError):
            factor_spd(A, C, 1.01 * d[0])


def test_separated_pencil_converges_in_one_krylov_build(monkeypatch):
    # an alpha = 2 smoke trichotomy cell: ARPACK's first ncv = 20 vectors,
    # from 21 products, hold both Ritz values to 1e-10; no shift is taken
    A, B = smoke_trichotomy_pencil(2.0, 1 / 8)
    ref, _ = arpack_reference(A, B, k=2)
    count = counting_solves(monkeypatch)
    s = solve_steklov(A, B, k=2)
    assert count[0] <= 21, count[0]
    assert (s.shift, s.backoffs) == (0.0, 0)
    assert np.max(np.abs(s.eigenvalues - ref) / ref) <= 1e-12


def test_krylov_record_estimate_drops_nearly_dependent_inputs():
    # the inputs of successive ARPACK restarts are nearly dependent.  The
    # record's Rayleigh-Ritz value keeps to span(Z) through Z^T Z with a
    # relative cutoff, so the rounding of the products along a direction of
    # two near copies (1e-9 apart, products off by 1e-13) cannot lift it
    # above T's top eigenvalue, 2; without the cutoff it reads 10.2
    rng = np.random.default_rng(0)
    t = np.linspace(1.0, 2.0, 200)                 # T = diag(t)
    Z = rng.standard_normal((200, 6))
    record = spectral._KrylovRecord(200, 12)
    for z in [*Z.T, *(Z.T + 1e-9 * rng.standard_normal((6, 200)))]:
        record.add(z, t * z + 1e-13 * rng.standard_normal(200))
    Q = np.linalg.qr(Z)[0]
    want = np.linalg.eigvalsh(Q.T @ (t[:, None] * Q))[-1]
    assert abs(record.top_ritz() - want) <= 1e-8 * want


@pytest.fixture(scope="module")
def clustered_pencil():
    """The alpha = 1.2, eps = 1/8 smoke trichotomy cell and its dense d."""
    A, B = smoke_trichotomy_pencil(1.2, 1 / 8)
    return A, B, solve_steklov(A, B, k=2, method="dense").eigenvalues


def test_clustered_pencil_takes_the_shifted_retry(monkeypatch,
                                                  clustered_pencil):
    # alpha = 1.2 smoke trichotomy cells: their first run does not converge
    # in two restarts, and the retry at 0.99 / theta converges in one build.
    # Measured: 57 + 21 products against ARPACK's 79 (eps = 1/8) and 192
    # (eps = 1/16) at ncv 40 and tol 0; the shifts sit 1.0% below d_1.
    A, B, dense = clustered_pencil
    count = counting_solves(monkeypatch)
    s = solve_steklov(A, B, k=2)
    assert 0.98 * dense[0] < s.shift < dense[0] and s.backoffs == 0
    assert np.max(np.abs(s.eigenvalues - dense) / dense) <= 1e-10
    assert s.residuals.max() <= 1e-9
    for eps in (1 / 8, 1 / 16):
        A, B = smoke_trichotomy_pencil(1.2, eps)
        ref, unshifted = arpack_reference(A, B, k=2)
        count[0] = 0
        s = solve_steklov(A, B, k=2)
        assert s.shift > 0 and count[0] < unshifted, (count[0], unshifted)
        assert np.max(np.abs(s.eigenvalues - ref) / ref) <= 1e-10


def test_a_shift_above_d1_backs_off_before_arpack(monkeypatch,
                                                  clustered_pencil):
    # a shift forced to 1.3 / theta >= 1.3 d_1 does not factor; it is
    # lowered by 0.9 until it does (three back-offs), and every factor that
    # reaches ARPACK is of a matrix A - sigma B with sigma < d_1
    A, B, dense = clustered_pencil
    sigmas, factored = {}, []
    factor, arpack = spectral.factor_spd, spectral._arpack

    def spy_factor(A, C=None, sigma=0.0):
        f = factor(A, C, sigma)
        sigmas[id(f)] = sigma
        return f

    def spy_arpack(f, *args):
        factored.append(sigmas[id(f)])
        return arpack(f, *args)

    monkeypatch.setattr(spectral, "factor_spd", spy_factor)
    monkeypatch.setattr(spectral, "_arpack", spy_arpack)
    monkeypatch.setattr(spectral, "_SHIFT", 1.3)
    s = solve_steklov(A, B, k=2)
    assert s.backoffs == 3 and factored == [0.0, s.shift]
    assert s.shift < dense[0] < s.shift / 0.9
    assert np.max(np.abs(s.eigenvalues - dense) / dense) <= 1e-10


def test_one_eigen_solve_allocates_no_copy_of_A():
    # a pulled-back degeneration cell, alpha = 1 and eps = 1/64 on the
    # w_len = 1/4, ny = 16 strip: 24,572 free DOFs and m = 4,800 boundary
    # points.  Beside the band and 40 vectors of length m (ARPACK's basis
    # of 20 and 20 of the Lanczos record's 57 inputs), the record's other
    # 37, the factor's index arrays, the solve's vectors, ARPACK's work
    # vectors and the stencil's grids fit in half the bytes of A's node-pair
    # blocks (7.2 MB); a CSR of A (9.7 MB) or a scaled copy of the blocks
    # held through the solve does not.  Measured peak 18.0 MB
    # against a bound of 18.6 MB (16.7 MB with ARPACK's basis of 40 and no
    # record; 24.1 MB against 29.5 MB when the solve read A's CSR).
    cfg = ExperimentConfig("degeneration", alpha=1.0, eps_list=(1 / 32, 1 / 64),
                           ny=16, w_len=0.25)
    mesh = cfg.mesh_for(1.0, 1 / 64)
    dm = mark_essential(mesh, "DirichletAll")
    dif = cfg.diffeo(1.0, 1 / 64)
    A = assemble(HESSIAN_ENERGY, mesh, dm, dif, cfg.quad_order)
    B = assemble(normal_trace("All"), mesh, dm, dif, cfg.quad_order)
    n, m = B.factor.shape
    band = 4 * (cfg.ny + 2) - 1                     # half-bandwidth
    bound = 8 * (band + 1) * n + 8 * 40 * m + 0.5 * A.blocks.nbytes
    tracemalloc.start()
    try:
        s = solve_steklov(A, B, k=cfg.k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.method == "lanczos" and np.max(s.residuals) <= 1e-6
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_modes_b_orthonormal():
    A, B = square_pencil(8)
    s = solve_steklov(A, B, k=3, method="dense")
    G = s.modes.T @ (B.matrix @ s.modes)
    assert np.allclose(np.diag(G), 1.0, atol=1e-10)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-8


def test_first_eigenvalue_cauchy_and_simple():
    vals = []
    gaps = []
    for n in (8, 16, 32):
        A, B = square_pencil(n)
        s = solve_steklov(A, B, k=2)
        vals.append(s.eigenvalues[0])
        gaps.append(s.eigenvalues[1] - s.eigenvalues[0])
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[1] < diffs[0]            # Cauchy-like refinement sequence
    assert min(gaps) > 0.5 * max(gaps)    # d_1 simple with a stable gap
    assert all(g > 1.0 for g in gaps)


def test_rayleigh_bounds_and_homogeneity():
    A, B = square_pencil(8)
    s = solve_steklov(A, B, k=1, method="dense")
    q = s.modes[:, 0]
    d1 = s.eigenvalues[0]
    assert rayleigh(A, B, q) == pytest.approx(d1, rel=1e-9)
    assert rayleigh(A, B, 7.0 * q) == pytest.approx(d1, rel=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(q.size)
        if abs(v @ (B.matrix @ v)) < 1e-12:
            continue
        assert rayleigh(A, B, v) >= d1 - 1e-9


def test_rayleigh_undefined_in_kernel():
    A = sp.csr_matrix(np.diag([1.0, 2.0]))
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        rayleigh(A, B, np.array([0.0, 1.0]))


def test_laplacian_and_hessian_pencils_coincide_on_square():
    # the reduced matrices are equal, so the spectra must match
    A1, B1 = square_pencil(8, LAPLACIAN_ENERGY)
    A2, B2 = square_pencil(8, HESSIAN_ENERGY)
    s1 = solve_steklov(A1, B1, k=3)
    s2 = solve_steklov(A2, B2, k=3)
    assert np.max(np.abs(s1.eigenvalues - s2.eigenvalues)
                  / s1.eigenvalues) < 1e-9


@pytest.mark.filterwarnings("ignore:only .* elements per oscillation period")
def test_sweep_keeps_first_eigenvalue_bounded_below():
    # discrete analogue of the uniform lower bound along a valid sweep;
    # a deliberately coarse mesh keeps this a fast smoke-level check
    prof = BoundaryProfile.fourier_cosine([1.0, 1.0], alpha=2.0)
    m = build_mesh(32, 8, grading=0.8)
    dm = mark_essential(m, "DirichletAll")
    A0 = assemble(LAPLACIAN_ENERGY, m, dm)
    B0 = assemble(normal_trace("All"), m, dm)
    d0 = solve_steklov(A0, B0, k=1).eigenvalues[0]
    worst = np.inf
    for eps in (1 / 8, 1 / 16, 1 / 32):
        spec = DomainSpec(epsilon=eps, profile=prof)
        dif = DiffeoField(spec, fit_kappa_layer(spec))
        A = assemble(LAPLACIAN_ENERGY, m, dm, dif)
        B = assemble(normal_trace("All"), m, dm, dif)
        worst = min(worst, solve_steklov(A, B, k=1).eigenvalues[0])
    assert worst >= 0.5 * d0


def test_cluster_grouping():
    A = sp.csr_matrix(np.eye(3) * 2.0)
    B = sp.csr_matrix(np.eye(3))
    s = solve_steklov(A, B, k=3)
    assert np.allclose(s.eigenvalues, 2.0, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the banded SPD factor

def test_factor_spd_solves_match_dense():
    A, _ = square_pencil(8, grading=0.8)
    M = A.matrix
    dense = M.toarray()
    factor = factor_spd(M)
    rng = np.random.default_rng(1)
    for b in (rng.standard_normal(M.shape[0]),
              rng.standard_normal((M.shape[0], 5))):
        x = factor.solve(b)
        ref = sla.solve(dense, b, assume_a="pos")
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_spd_reads_the_upper_band_of_any_csr_order():
    # the band comes straight from the canonical CSR form: the factor has
    # the bits of the upper triangle's triplets, also from rows whose
    # columns are stored in reverse order, which are left as they were
    A, _ = square_pencil(8, form=HESSIAN_ENERGY, grading=0.7)
    M = A.matrix
    U = sp.triu(M, format="coo")
    band = int(np.max(U.col - U.row))
    ab = np.zeros((band + 1, M.shape[0]), order="F")
    ab[band + U.row - U.col, U.col] = U.data
    ref = sla.cholesky_banded(ab, lower=False)
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    order = np.lexsort((-M.indices, rows))
    R = sp.csr_matrix((M.data[order], M.indices[order], M.indptr), shape=M.shape)
    assert not R.has_sorted_indices
    for X in (M, R):
        assert np.array_equal(factor_spd(X).band_factor, ref)
    assert np.array_equal(R.indices, M.indices[order])


def test_factor_spd_refuses_non_finite_entries_before_the_band():
    A, _ = square_pencil(32)
    A.blocks[2, 2, 0, 1, 1, 0] = np.nan           # a free diagonal entry
    M = A.matrix
    band = 4 * (32 + 2) - 1
    for X in (A, M):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="non-finite"):
                factor_spd(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (band + 1) * A.n_free      # the band's bytes


def test_factor_spd_of_a_boundary_form_names_the_form():
    # a boundary FeSystem keeps its factor C, not node-pair blocks
    _, B = square_pencil(4, part="Gamma")
    with pytest.raises(ValueError, match=r"NormalTrace\(Gamma\) carries no "
                                         "node-pair blocks"):
        factor_spd(B)


def test_block_readers_keep_their_temporaries_per_chunk():
    # A @ X and factor_spd(A) read a volume form's node-pair blocks a slab
    # of node columns at a time.  Beside the product, or the factor's band,
    # they hold the padded grids of X and of the free index and a few
    # chunks' arrays: under six times the bytes of a 2-column product plus
    # four slabs of the blocks.  A full-size index or gather does not fit:
    # X gathered over every node's 3 x 3 window alone is above the bound.
    # Measured peaks 2.6 MB (A @ X) and 1.0 MB (factor_spd, beyond its
    # 10.0 MB band) against a bound of 4.3 MB.
    m = build_mesh(1024, 8, grading=0.7)         # 33 slabs of node columns
    dm = mark_essential(m, "DirichletAll")
    A = assemble(HESSIAN_ENERGY, m, dm)
    X = np.random.default_rng(0).standard_normal((dm.n_free, 2))
    bound = 6 * X.nbytes + 4 * A.blocks[:_SLAB].nbytes
    assert bound < X.shape[1] * 36 * 8 * m.n_nodes
    band = 8 * 4 * (8 + 2) * dm.n_free           # half-bandwidth 4 (ny + 2) - 1
    for op, held in ((lambda: A @ X, 0), (lambda: factor_spd(A), band)):
        tracemalloc.start()
        try:
            op()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < bound, ((peak - held) / 2**20, bound / 2**20)


def test_factor_spd_refuses_a_band_over_budget():
    n = 20_000
    A = sp.eye(n, format="lil") * 4.0
    A[0, n - 1] = A[n - 1, 0] = 1.0          # half-bandwidth n - 1
    A = A.tocsr()
    assert 8 * n * n > SPD_FACTOR_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="SPD factor budget"):
            factor_spd(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20                 # the band was never allocated


def test_dense_route_refuses_arrays_over_budget(monkeypatch):
    # auto takes the dense route when k >= m; its two n x n arrays are
    # checked against the budget before they are allocated
    A, B = square_pencil(4)
    n, m = A.matrix.shape[0], B.factor.shape[1]
    monkeypatch.setattr(spectral, "SPD_FACTOR_BUDGET", 16 * n * n - 1)
    with pytest.raises(MemoryError, match="SPD factor budget"):
        solve_steklov(A, B, k=m)
    monkeypatch.setattr(spectral, "SPD_FACTOR_BUDGET", 16 * n * n)
    assert solve_steklov(A, B, k=2, method="dense").method == "dense"


def test_factor_spd_rejects_indefinite_matrix():
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                [1.0, -3.0, 1.0],
                                [0.0, 1.0, 2.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        factor_spd(A)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than double here")
def test_eig_reference_matches_dense():
    # the reference of scripts/eig_reference.py starts from random vectors
    # here, not from the reported modes
    path = Path(__file__).resolve().parents[1] / "scripts" / "eig_reference.py"
    spec = importlib.util.spec_from_file_location("eig_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    A, B = square_pencil(8, grading=0.8)
    assert A.matrix.shape[0] < 2000
    dense = solve_steklov(A, B, k=3, method="dense").eigenvalues
    ref, change = mod.reference_eigenvalues(A.matrix, B.matrix, 3)
    assert change <= 1e-13
    assert np.max(np.abs(ref - dense) / dense) <= 1e-10
