"""Generalized symmetric eigensolver for the Steklov pencils A q = d B q.

A is a positive definite energy matrix, B a positive semidefinite boundary
form of low effective rank.  The smallest Steklov eigenvalues d are the
reciprocals of the largest eigenvalues mu of B q = mu A q, so every method
factorizes the well-conditioned A side and works on A^{-1} B; the huge kernel
of B is deflated implicitly (kernel directions have mu = 0 and are never
returned).  Every method solves the Jacobi-scaled pencil (DAD, DBD) with
D = diag(A)^{-1/2}, and its residual certificates are taken there.  Methods:

  dense     full eigh of the scaled pencil, systems below 2000 DOFs;
  lanczos   ARPACK on A^{-1} B, the choice for every larger system.

`factor_spd` is the one factorization of the lab: every SPD system (the
inner solves here, the Navier solves, the Navier-to-Neumann extensions and
the Q2 oracle) is factored by a banded Cholesky in the matrix's own DOF
order.  On the tensor meshes the column-major Hermite numbering is already
banded, with half-bandwidth 4 (ny + 2) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SteklovSpectrum", "NoSteklovEigenvalues", "SpectralConvergenceError",
           "SpdFactor", "factor_spd", "solve_steklov", "rayleigh"]

DENSE_CUTOFF = 2000
SPD_FACTOR_BUDGET = 1 << 30            # bytes of band storage per factor


class NoSteklovEigenvalues(RuntimeError):
    """The boundary form is numerically zero: the pencil has no eigenvalues."""


class SpectralConvergenceError(RuntimeError):
    """The iterative eigensolver stopped before its Ritz pairs converged."""


@dataclass
class SteklovSpectrum:
    """Ascending eigenvalues with B-normalized modes and residual certificates."""

    eigenvalues: np.ndarray
    modes: np.ndarray                  # columns, B-normalized
    residuals: np.ndarray              # ||As y - d Bs y|| / ||As y|| on the
                                       # Jacobi-scaled pencil, y = D^{-1} q
    method: str


class SpdFactor:
    """Cholesky factor U^T U of a banded SPD matrix, U in LAPACK upper band
    storage (`dpbtrf`); `solve` takes a vector or a block of columns."""

    def __init__(self, band_factor: np.ndarray):
        self.band_factor = band_factor

    def solve(self, b):
        return sla.cho_solve_banded((self.band_factor, False), b,
                                    check_finite=False)


def factor_spd(A) -> SpdFactor:
    """Banded Cholesky factor of a sparse SPD matrix in its own DOF order.

    The half-bandwidth is read off the upper triangle.  A band whose storage,
    8 (band + 1) n bytes, would exceed SPD_FACTOR_BUDGET raises MemoryError
    before the band is allocated; a matrix that is not positive definite
    raises LinAlgError.
    """
    U = sp.triu(A, format="coo")
    U.sum_duplicates()
    n = A.shape[0]
    band = int(np.max(U.col - U.row)) if U.nnz else 0
    need = 8 * (band + 1) * n
    if need > SPD_FACTOR_BUDGET:
        raise MemoryError(
            f"banded Cholesky of order {n} with half-bandwidth {band} needs "
            f"{need / 2**20:.0f} MB, above the {SPD_FACTOR_BUDGET / 2**20:.0f} "
            "MB SPD factor budget")
    ab = np.zeros((band + 1, n), order="F")   # LAPACK's layout: no copy
    ab[band + U.row - U.col, U.col] = U.data
    return SpdFactor(sla.cholesky_banded(ab, overwrite_ab=True, lower=False))


def _as_matrix(A):
    m = A.matrix if hasattr(A, "matrix") else A
    return sp.csr_matrix(m) if not sp.issparse(m) else m.tocsr()


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    for j in range(modes.shape[1]):
        i = int(np.argmax(np.abs(modes[:, j])))
        if modes[i, j] < 0:
            modes[:, j] = -modes[:, j]
    return modes


def _finalize(B, As, Bs, mu, Ys, k, method, unscale):
    """Order the Ritz pairs and return B-normalized modes of the original
    pencil.  The residuals ||As y - d Bs y|| / ||As y|| are certified on the
    Jacobi-scaled pencil (As, Bs) = (DAD, DBD), with y = D^{-1} q."""
    top = np.argsort(mu)[::-1][:k]         # largest mu: ascending d = 1/mu
    d = 1.0 / mu[top]
    Ys = Ys[:, top]
    Aq = As @ Ys
    res = np.linalg.norm(Aq - (Bs @ Ys) * d, axis=0) / np.linalg.norm(Aq, axis=0)
    Y = Ys * unscale[:, None]
    bnorm = np.sqrt(np.einsum("ij,ij->j", Y, B @ Y))
    Y = Y / bnorm
    Y = _fix_signs(Y)
    return SteklovSpectrum(eigenvalues=d, modes=Y, residuals=res, method=method)


def _jacobi_scale(A, B):
    """Symmetric diagonal scaling that tames the size disparity of Hermite
    DOFs on strongly graded meshes; pure algebra, same eigenvalues."""
    d = A.diagonal()
    s = 1.0 / np.sqrt(np.maximum(d, 1e-300))
    D = sp.diags(s)
    return (D @ A @ D).tocsr(), (D @ B @ D).tocsr(), s


def _solve_dense(A, B, k):
    As, Bs, s = _jacobi_scale(A, B)
    mu, V = sla.eigh(Bs.toarray(), As.toarray())   # B v = mu A v, ascending mu
    cutoff = max(mu.max(), 0.0) * 1e-10
    keep = mu > max(cutoff, 10 * np.finfo(float).tiny)
    if not np.any(keep):
        raise NoSteklovEigenvalues("boundary form has no positive directions")
    mu, V = mu[keep], V[:, keep]
    if mu.size < k:
        raise NoSteklovEigenvalues(
            f"only {mu.size} positive pencil directions, {k} requested")
    return _finalize(B, As, Bs, mu, V, k, "dense", unscale=s)


def _solve_lanczos(A, B, k, seed):
    """Implicitly restarted Lanczos (ARPACK) on B q = mu A q with the
    factorized A side as inner solver; Krylov acceleration copes with the
    moderately clustered mu spectra of the wide boundary pencils."""
    As, Bs, scale = _jacobi_scale(A, B)
    factor = factor_spd(As)
    n = As.shape[0]
    Minv = spla.LinearOperator((n, n), matvec=factor.solve)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        mu, V = spla.eigsh(Bs, k=k, M=As, Minv=Minv, which="LA", v0=v0,
                           ncv=min(n - 1, max(40, 4 * k)))
    except spla.ArpackNoConvergence as exc:
        raise SpectralConvergenceError(f"Lanczos did not converge: {exc}") from exc
    if np.any(mu <= 0):
        raise NoSteklovEigenvalues(
            "Lanczos returned nonpositive pencil directions")
    return _finalize(B, As, Bs, mu, V, k, "lanczos", unscale=scale)


def solve_steklov(A, B, k: int = 1, method: str = "auto",
                  seed: int = 0) -> SteklovSpectrum:
    """k smallest eigenvalues of A q = d B q off the kernel of B.

    `auto` takes `dense` below DENSE_CUTOFF DOFs and `lanczos` above.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape != B.shape:
        raise ValueError("pencil matrices must have equal shape")
    bscale = spla.norm(B) if B.nnz else 0.0
    if bscale == 0.0 or bscale < 1e-300:
        raise NoSteklovEigenvalues("boundary form is numerically zero")
    if method == "auto":
        method = "dense" if A.shape[0] < DENSE_CUTOFF else "lanczos"
    if method == "dense":
        return _solve_dense(A, B, k)
    if method == "lanczos":
        return _solve_lanczos(A, B, k, seed)
    raise ValueError(f"unknown method {method!r}")


def rayleigh(A, B, q) -> float:
    """Rayleigh quotient (q^T A q) / (q^T B q); an upper bound for d_1."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    q = np.asarray(q, dtype=float)
    den = float(q @ (B @ q))
    num = float(q @ (A @ q))
    if den <= max(abs(num), 1.0) * 1e-14:
        raise ZeroDivisionError("q^T B q = 0: Rayleigh quotient undefined")
    return num / den
