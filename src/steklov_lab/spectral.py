"""Generalized symmetric eigensolver for the Steklov pencils A q = d B q.

A is a positive definite energy matrix, B = C C^T a positive semidefinite
boundary form given by its quadrature factor C (n x m, one column per
boundary quadrature point).  The smallest Steklov eigenvalues d are the
reciprocals of the largest eigenvalues mu of B q = mu A q.  The nonzero mu
of A^{-1} C C^T are those of the m x m SPD operator T = C^T A^{-1} C, whose
eigenvector z gives the mode q = A^{-1} C z (spectral transformation
Lanczos, Ericsson and Ruhe 1980); the huge kernel of B never enters T.
Every method solves the pencil as assembled (a Cholesky factor is invariant
under symmetric diagonal scaling, van der Sluis 1969); residual
certificates are those of the Jacobi-scaled pencil (DAD, DBD) with
D = diag(A)^{-1/2}, where B y = C (C^T y).  Methods:

  lanczos   ARPACK in mode 1 on T, one banded solve per step; `auto` takes
            it whenever ARPACK can run on T (k < m);
  dense     eigh of the k largest mu of the n x n pencil, the independent
            check, and `auto`'s choice when k >= m.

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

SPD_FACTOR_BUDGET = 1 << 30            # bytes of band storage per factor
# largest Lanczos certificate accepted: degeneration's default pencils, the
# largest of the lab, read 1.2e-9, 6.4e-9 and 3.3e-8 (eps = 1/32, 1/64,
# 1/128; 98,300 to 393,212 DOFs), 30 times below it
LANCZOS_RESIDUAL_TOL = 1e-6


class NoSteklovEigenvalues(RuntimeError):
    """The boundary form is numerically zero: the pencil has no eigenvalues."""


class SpectralConvergenceError(RuntimeError):
    """The iterative eigensolver stopped before its Ritz pairs converged."""


@dataclass
class SteklovSpectrum:
    """Ascending eigenvalues with B-normalized modes and residual certificates."""

    eigenvalues: np.ndarray
    modes: np.ndarray                  # columns, ||C^T q|| = 1
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

    The upper band is read straight from the canonical CSR form, and the
    half-bandwidth off it.  A band whose storage, 8 (band + 1) n bytes, would
    exceed SPD_FACTOR_BUDGET raises MemoryError before the band is
    allocated; a matrix that is not positive definite raises LinAlgError.
    """
    A = sp.csr_matrix(A, copy=not A.has_canonical_format)
    A.sum_duplicates()
    n = A.shape[0]
    off = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    off = np.subtract(A.indices, off, out=off)                # col - row
    upper = off >= 0
    band = int(off.max(initial=0))
    need = 8 * (band + 1) * n
    if need > SPD_FACTOR_BUDGET:
        raise MemoryError(
            f"banded Cholesky of order {n} with half-bandwidth {band} needs "
            f"{need / 2**20:.0f} MB, above the {SPD_FACTOR_BUDGET / 2**20:.0f} "
            "MB SPD factor budget")
    ab = np.zeros((band + 1, n), order="F")   # LAPACK's layout: no copy
    # upper entry (row, col) at ab[band + row - col, col], as a flat index
    at = A.indices[upper] * np.intp(band + 1) + (band - off[upper])
    del off
    ab.reshape(-1, order="F")[at] = A.data[upper]
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


def _finalize(A, C, mu, Q, k, method, s):
    """Order the Ritz pairs and return modes with ||C^T q|| = 1.  The
    residuals ||s*(A q - d B q)|| / ||s*(A q)||, B q = C (C^T q), are those
    of the Jacobi-scaled pencil (DAD, DBD), s = diag(D), with y = D^{-1} q."""
    top = np.argsort(mu)[::-1][:k]         # largest mu: ascending d = 1/mu
    d = 1.0 / mu[top]
    Q = Q[:, top]
    Aq, CtQ = A @ Q, C.T @ Q
    Bq = C @ CtQ
    res = (np.linalg.norm(s[:, None] * (Aq - Bq * d), axis=0)
           / np.linalg.norm(s[:, None] * Aq, axis=0))
    Q = _fix_signs(Q / np.linalg.norm(CtQ, axis=0))
    return SteklovSpectrum(eigenvalues=d, modes=Q, residuals=res, method=method)


def _jacobi(A):
    """s = diag(A)^{-1/2}; D = diag(s) scales the certificates' pencil."""
    return 1.0 / np.sqrt(np.maximum(A.diagonal(), 1e-300))


def _solve_dense(A, C, k):
    n = A.shape[0]
    top = [max(n - k, 0), n - 1]                        # the k largest mu
    mu, V = sla.eigh((C @ C.T).toarray(), A.toarray(), subset_by_index=top)
    cutoff = max(mu.max(), 0.0) * 1e-10
    positive = int(np.sum(mu > max(cutoff, 10 * np.finfo(float).tiny)))
    if positive < k:
        raise NoSteklovEigenvalues(
            f"only {positive} of the {k} largest pencil directions are positive")
    return _finalize(A, C, mu, V, k, "dense", _jacobi(A))


def _solve_lanczos(A, C, k, seed):
    """Implicitly restarted Lanczos (ARPACK, mode 1) on T = C^T A^{-1} C,
    one banded solve per product, from a seeded start of length m; the
    modes are then q = A^{-1} C Z, one block solve.  A certificate above
    LANCZOS_RESIDUAL_TOL raises SpectralConvergenceError."""
    m = C.shape[1]
    factor = factor_spd(A)
    T = spla.LinearOperator((m, m), dtype=float,
                            matvec=lambda z: C.T @ factor.solve(C @ z))
    v0 = np.random.default_rng(seed).standard_normal(m)
    try:
        mu, Z = spla.eigsh(T, k=k, which="LA", v0=v0,
                           ncv=min(m, max(40, 4 * k)))
    except spla.ArpackNoConvergence as exc:
        raise SpectralConvergenceError(f"Lanczos did not converge: {exc}") from exc
    if np.any(mu <= 0):
        raise NoSteklovEigenvalues(
            "Lanczos returned nonpositive pencil directions")
    out = _finalize(A, C, mu, factor.solve(C @ Z), k, "lanczos", _jacobi(A))
    worst = float(out.residuals.max())
    if worst > LANCZOS_RESIDUAL_TOL:
        raise SpectralConvergenceError(
            f"Lanczos certificate {worst:.2e} exceeds {LANCZOS_RESIDUAL_TOL:g}")
    return out


def solve_steklov(A, B, k: int = 1, method: str = "auto",
                  seed: int = 0) -> SteklovSpectrum:
    """k smallest eigenvalues of A q = d B q off the kernel of B.

    B is given by its factor C, B = C C^T, in either of two forms: a
    boundary FeSystem, whose `factor` is C, or a bare sparse n x m matrix,
    which is taken as C itself.  `auto` takes `lanczos` whenever k < m and
    `dense` otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    A = _as_matrix(A)
    if hasattr(B, "matrix"):                   # an FeSystem
        if B.factor is None:
            raise ValueError(f"{B.kind} carries no boundary factor")
        B = B.factor
    C = _as_matrix(B)
    if C.shape[0] != A.shape[0]:
        raise ValueError("the boundary factor needs one row per row of A")
    if spla.norm(C) ** 2 < 1e-300:
        raise NoSteklovEigenvalues("boundary form is numerically zero")
    if method == "auto":
        method = "lanczos" if k < C.shape[1] else "dense"
    if method == "dense":
        return _solve_dense(A, C, k)
    if method == "lanczos":
        return _solve_lanczos(A, C, k, seed)
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
