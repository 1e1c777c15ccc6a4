import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from steklov_lab.assembly import (LAPLACIAN_ENERGY, HESSIAN_ENERGY, assemble,
                                  normal_trace)
from steklov_lab.mesh import DofMap, build_mesh, mark_essential
from steklov_lab.profile_geometry import (BoundaryProfile, DomainSpec,
                                          build_diffeo, fit_kappa_layer)
from steklov_lab.spectral import (SPD_FACTOR_BUDGET, NoSteklovEigenvalues,
                                  _finalize, _jacobi_scale, factor_spd,
                                  rayleigh, solve_steklov)


def square_pencil(n, form=LAPLACIAN_ENERGY, part="All", grading=1.0):
    m = build_mesh(n, n, grading=grading)
    dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll")
    A = assemble(form, m, dm)
    B = assemble(normal_trace(part), m, dm)
    return A, B


def test_decoupled_two_by_two():
    A = sp.csr_matrix(np.diag([1.0, 2.0]))
    B = sp.csr_matrix(np.diag([1.0, 0.0]))
    s = solve_steklov(A, B, k=1)
    assert s.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(s.modes[1, 0]) < 1e-12


def test_diagonal_full_rank():
    A = sp.csr_matrix(np.diag([2.0, 3.0]))
    B = sp.csr_matrix(np.eye(2))
    s = solve_steklov(A, B, k=2)
    assert np.allclose(s.eigenvalues, [2.0, 3.0])


def test_zero_boundary_form_raises():
    A = sp.csr_matrix(np.eye(3))
    B = sp.csr_matrix((3, 3))
    with pytest.raises(NoSteklovEigenvalues):
        solve_steklov(A, B, k=1)


def test_methods_agree_on_square():
    A, B = square_pencil(8)
    ref = solve_steklov(A, B, k=3, method="dense")
    s = solve_steklov(A, B, k=3, method="lanczos")
    rel = np.max(np.abs(s.eigenvalues - ref.eigenvalues) / ref.eigenvalues)
    assert rel <= 1e-9, rel


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
    As, Bs, scale = _jacobi_scale(A.matrix, B.matrix)
    mu, V = sla.eigh(Bs.toarray(), As.toarray())
    V = V + 1e-5 * np.random.default_rng(0).standard_normal(V.shape)
    s = _finalize(B.matrix, As, Bs, mu, V, 2, "dense", unscale=scale)
    root = np.sqrt(A.matrix.diagonal())
    D = sp.diags(1.0 / root)
    As, Bs = D @ A.matrix @ D, D @ B.matrix @ D
    Y = s.modes * root[:, None]                              # y = D^{-1} q
    AY = As @ Y
    res = np.linalg.norm(AY - (Bs @ Y) * s.eigenvalues, axis=0) \
        / np.linalg.norm(AY, axis=0)
    assert np.all(s.residuals > 1e-9)
    assert np.allclose(res, s.residuals, rtol=1e-6, atol=0)
    Aq = A.matrix @ s.modes
    raw = np.linalg.norm(Aq - (B.matrix @ s.modes) * s.eigenvalues, axis=0) \
        / np.linalg.norm(Aq, axis=0)
    assert not np.allclose(raw, s.residuals, rtol=0.1, atol=0)


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
    dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll")
    A0 = assemble(LAPLACIAN_ENERGY, m, dm)
    B0 = assemble(normal_trace("All"), m, dm)
    d0 = solve_steklov(A0, B0, k=1).eigenvalues[0]
    worst = np.inf
    for eps in (1 / 8, 1 / 16, 1 / 32):
        spec = DomainSpec(epsilon=eps, profile=prof)
        dif = build_diffeo(spec, fit_kappa_layer(spec))
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
