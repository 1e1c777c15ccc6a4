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

  lanczos   ARPACK in mode 1 on T, one banded solve per step, with
            ncv = min(m, max(2k + 1, 20)), tol 1e-10 and at most two
            restarts; `auto` takes it whenever ARPACK can run on T (k < m).
            A run that has not converged then (a clustered pencil) is
            retried once on T_s = C^T (A - s B)^{-1} C, whose eigenvalues
            1/(d - s) spread the cluster: s is 0.99 times the upper
            estimate of d_1 from a Rayleigh-Ritz step on the first run's
            Krylov inputs, lowered while A - s B does not factor;
  dense     eigh of the k largest mu of the n x n pencil, the independent
            check, and `auto`'s choice when k >= m.

`factor_spd` is the one factorization of the lab: every SPD system (the
inner solves here, the Navier solves, the Navier-to-Neumann extensions and
the Q2 oracle) is factored by a banded Cholesky in the matrix's own DOF
order.  On the tensor meshes the column-major Hermite numbering is already
banded, with half-bandwidth 4 (ny + 2) - 1.  A volume form is read only
through its FeSystem's entries, products and diagonal, so no solve builds
its CSR, and this module knows nothing of its node-pair blocks' layout.
`factor_spd` also factors a shifted matrix A - s C C^T from A and the
factor C, in the same band loop: the Lanczos retry's A - s B, and the
curvature-shifted A + gamma B_Gamma of navier-stability's metric n = -15.
By Sylvester's law of inertia, A - s B is positive definite iff s < d_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FeSystem

__all__ = ["SteklovSpectrum", "NoSteklovEigenvalues", "SpectralConvergenceError",
           "SpdFactor", "factor_spd", "solve_steklov"]

SPD_FACTOR_BUDGET = 1 << 30     # bytes of one factor band or one dense pencil
# largest Lanczos certificate accepted: degeneration's default pencils, the
# largest of the lab, read 1.2e-9, 6.4e-9 and 3.3e-8 (eps = 1/32, 1/64,
# 1/128; 98,300 to 393,212 DOFs), 30 times below it
LANCZOS_RESIDUAL_TOL = 1e-6
# ARPACK's settings: scipy's own ncv rule, max(2k + 1, 20), Ritz estimates
# to 1e-10 relative and at most two restarts.  maxiter 1 shifts pencils that
# converge at 38 products; 2 shifts only the clustered ones.
_NCV = 20
_ARPACK_TOL = 1e-10
_ARPACK_MAXITER = 2
_SHIFT = 0.99           # s = 0.99 / theta, below the estimate 1/theta >= d_1
_BACKOFF = 0.9          # s's factor each time A - s B does not factor
_MAX_BACKOFFS = 20
_GRAM_CUTOFF = 1e-10    # relative, on the eigenvalues of the record's Z^T Z


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
    shift: float = 0.0                 # Lanczos: the sigma of A - sigma B
    backoffs: int = 0                  # Lanczos: sigma's lowerings to get it


class SpdFactor:
    """Cholesky factor U^T U of a banded SPD matrix, U in LAPACK upper band
    storage (`dpbtrf`); `solve` takes a vector or a block of columns."""

    def __init__(self, band_factor: np.ndarray):
        self.band_factor = band_factor

    def solve(self, b):
        return sla.cho_solve_banded((self.band_factor, False), b,
                                    check_finite=False)


def _as_matrix(A):
    m = A.matrix if isinstance(A, FeSystem) else A
    return sp.csr_matrix(m) if not sp.issparse(m) else m.tocsr()


def factor_spd(A, C=None, sigma: float = 0.0) -> SpdFactor:
    """Banded Cholesky factor of the SPD matrix A - sigma C C^T in A's own
    DOF order (sigma = 0 factors A itself).

    A is a volume FeSystem (a boundary one raises ValueError), read in the
    chunks of its `entries`, or a sparse matrix, read from its canonical CSR
    form as one chunk.  C, read only at sigma != 0, is an n x m sparse
    factor; the upper entries of C C^T are scipy's sparse product, each
    summed column by column of C.  Before the band is allocated, a
    non-finite entry raises ValueError, and a band whose storage,
    8 (band + 1) n bytes, would exceed SPD_FACTOR_BUDGET raises MemoryError;
    then one loop writes the entries with col >= row of A, and sigma times
    those of C C^T are subtracted.  A matrix that is not positive definite
    raises LinAlgError: by Sylvester's law of inertia, for SPD A that is
    sigma >= the pencil's smallest eigenvalue d_1, up to rounding.
    """
    if isinstance(A, FeSystem):
        if A.blocks is None:
            raise ValueError(f"{A.kind} carries no node-pair blocks to factor")
        n, band, chunks = A.n_free, A.half_bandwidth(), A.entries()
        finite = np.isfinite(A.blocks).all()
    else:
        A = _as_matrix(A)
        A = sp.csr_matrix(A, copy=not A.has_canonical_format)
        A.sum_duplicates()
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        n, band = A.shape[0], int((A.indices - rows).max(initial=0))
        finite, chunks = np.isfinite(A.data).all(), [(rows, A.indices, A.data)]
    if sigma:
        B = sp.triu(C @ C.T, format="coo")
        band = max(band, int((B.col - B.row).max(initial=0)))
        finite = finite and np.isfinite(B.data).all() and np.isfinite(sigma)
    if not finite:
        raise ValueError("SPD factor of a matrix with non-finite entries")
    need = 8 * (band + 1) * n
    if need > SPD_FACTOR_BUDGET:
        raise MemoryError(
            f"banded Cholesky of order {n} with half-bandwidth {band} needs "
            f"{need / 2**20:.0f} MB, above the {SPD_FACTOR_BUDGET / 2**20:.0f} "
            "MB SPD factor budget")
    ab = np.zeros((band + 1, n), order="F")   # LAPACK's layout: no copy
    flat = ab.reshape(-1, order="F")          # ab[band + row - col, col], at
    for rows, cols, values in chunks:         # flat index band (col + 1) + row
        upper = cols >= rows
        at = band * (cols + np.intp(1)) + rows
        flat[at[upper]] = values[upper]
    if sigma:
        flat[band * (B.col + np.intp(1)) + B.row] -= sigma * B.data
    return SpdFactor(sla.cholesky_banded(ab, overwrite_ab=True, lower=False,
                                         check_finite=False))


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
    den = np.linalg.norm(s[:, None] * Aq, axis=0)
    Aq -= C @ CtQ * d               # in place, to hold fewer n x k arrays
    Aq *= s[:, None]
    res = np.linalg.norm(Aq, axis=0) / den
    Q = _fix_signs(Q / np.linalg.norm(CtQ, axis=0))
    return SteklovSpectrum(eigenvalues=d, modes=Q, residuals=res, method=method)


def _jacobi(A):
    """s = diag(A)^{-1/2}; D = diag(s) scales the certificates' pencil."""
    return 1.0 / np.sqrt(np.maximum(A.diagonal(), 1e-300))


def _solve_dense(A, C, k):
    n = A.shape[0]
    need = 16 * n * n                          # the pencil's two n x n arrays
    if need > SPD_FACTOR_BUDGET:
        raise MemoryError(
            f"dense pencil of order {n} needs {need / 2**20:.0f} MB, above "
            f"the {SPD_FACTOR_BUDGET / 2**20:.0f} MB SPD factor budget")
    top = [max(n - k, 0), n - 1]                        # the k largest mu
    mu, V = sla.eigh((C @ C.T).toarray(), _as_matrix(A).toarray(),
                     subset_by_index=top)
    cutoff = max(mu.max(), 0.0) * 1e-10
    positive = int(np.sum(mu > max(cutoff, 10 * np.finfo(float).tiny)))
    if positive < k:
        raise NoSteklovEigenvalues(
            f"only {positive} of the {k} largest pencil directions are positive")
    return _finalize(A, C, mu, V, k, "dense", _jacobi(A))


class _KrylovRecord:
    """The inputs z_j of an ARPACK run's products y_j = T z_j as the columns
    of one preallocated m x size block Z, and G = Z^T T Z, whose upper
    triangle fills as the products arrive: G_ij = z_i^T y_j for i <= j.
    Products past `size` go unrecorded; a run makes at most
    1 + ncv + maxiter (ncv - k), as ARPACK builds ncv vectors from one more
    product and each restart keeps at least k of them."""

    def __init__(self, m: int, size: int):
        self.Z = np.empty((m, size), order="F")
        self.G = np.zeros((size, size))
        self.n = 0

    def add(self, z, y):
        j = self.n
        if j < self.Z.shape[1]:
            self.Z[:, j] = z
            self.G[:j + 1, j] = self.Z[:, :j + 1].T @ y
            self.n = j + 1

    def top_ritz(self) -> float:
        """The largest Rayleigh-Ritz value of T on span(Z), so at most T's
        largest eigenvalue.  span(Z) is orthonormalized through the Gram
        matrix Z^T Z, dropping its directions below _GRAM_CUTOFF of the
        largest: inputs of successive restarts are nearly dependent, and a
        plain QR of them lets the rounding of T's products through."""
        n = self.n
        Z = self.Z[:, :n]
        s, V = np.linalg.eigh(Z.T @ Z)
        keep = s > _GRAM_CUTOFF * s[-1]
        W = V[:, keep] / np.sqrt(s[keep])
        G = np.triu(self.G[:n, :n])
        G += np.triu(G, 1).T
        return float(np.linalg.eigvalsh(W.T @ G @ W)[-1])


def _arpack(factor, C, Ct, k, ncv, v0, record=None):
    """ARPACK (mode 1) on T = C^T F^{-1} C, F the factored matrix, one banded
    solve per product, each product going to `record` if one is given."""
    def product(z):
        y = Ct @ factor.solve(C @ z)
        if record is not None:
            record.add(z, y)
        return y

    m = C.shape[1]
    T = spla.LinearOperator((m, m), dtype=float, matvec=product)
    return spla.eigsh(T, k=k, which="LA", v0=v0, ncv=ncv, tol=_ARPACK_TOL,
                      maxiter=_ARPACK_MAXITER)


def _shifted_factor(A, C, sigma):
    """The factor of A - sigma C C^T at sigma, lowered by _BACKOFF while the
    matrix is not positive definite (sigma >= d_1): (factor, sigma, the
    number of back-offs).  Past _MAX_BACKOFFS it raises
    SpectralConvergenceError."""
    for backoffs in range(_MAX_BACKOFFS + 1):
        try:
            return factor_spd(A, C, sigma), sigma, backoffs
        except np.linalg.LinAlgError:
            sigma *= _BACKOFF
    raise SpectralConvergenceError(
        f"no shift below d_1 found in {_MAX_BACKOFFS} back-offs")


def _solve_lanczos(A, C, k, seed):
    """Implicitly restarted Lanczos (ARPACK, mode 1) on T = C^T A^{-1} C,
    one banded solve per product, from a seeded start of length m, with
    ncv = min(m, max(2k + 1, 20)), tol 1e-10 and at most two restarts; the
    modes are then q = A^{-1} C Z, one block solve.

    A run that has not converged by then is retried once with a shift
    (spectral transformation Lanczos; Ericsson and Ruhe 1980, Grimes, Lewis
    and Simon 1994): theta, the top Rayleigh-Ritz value of T on the first
    run's inputs, gives 1/theta >= d_1, and the same ARPACK run on
    T_s = C^T (A - s C C^T)^{-1} C at s = 0.99 / theta, backed off until
    A - s C C^T factors, has the eigenvalues nu = 1/(d - s), which spread a
    cluster of d.  Then d = s + 1/nu and q = (A - s C C^T)^{-1} C z.
    A certificate above LANCZOS_RESIDUAL_TOL, taken on the unshifted pencil,
    raises SpectralConvergenceError."""
    m = C.shape[1]
    Ct = C.T.tocsr()
    ncv = min(m, max(2 * k + 1, _NCV))
    v0 = np.random.default_rng(seed).standard_normal(m)
    record = _KrylovRecord(m, 1 + ncv + _ARPACK_MAXITER * (ncv - k))
    factor = factor_spd(A)
    sigma, backoffs = 0.0, 0
    try:
        nu, Z = _arpack(factor, C, Ct, k, ncv, v0, record)
        record = None
    except spla.ArpackNoConvergence:
        pass
    if record is not None:  # out of the handler, whose traceback holds both
        theta = record.top_ritz()
        record = factor = None              # freed before the shifted band
        factor, sigma, backoffs = _shifted_factor(A, C, _SHIFT / theta)
        try:
            nu, Z = _arpack(factor, C, Ct, k, ncv, v0)
        except spla.ArpackNoConvergence as exc:
            raise SpectralConvergenceError(
                f"shifted Lanczos did not converge: {exc}") from exc
    if np.any(nu <= 0):
        raise NoSteklovEigenvalues(
            "Lanczos returned nonpositive pencil directions")
    out = _finalize(A, C, nu / (1.0 + sigma * nu), factor.solve(C @ Z), k,
                    "lanczos", _jacobi(A))      # mu = 1/d, d = sigma + 1/nu
    out.shift, out.backoffs = sigma, backoffs
    worst = float(out.residuals.max())
    if worst > LANCZOS_RESIDUAL_TOL:
        raise SpectralConvergenceError(
            f"Lanczos certificate {worst:.2e} exceeds {LANCZOS_RESIDUAL_TOL:g}")
    return out


def solve_steklov(A, B, k: int = 1, method: str = "auto",
                  seed: int = 0) -> SteklovSpectrum:
    """k smallest eigenvalues of A q = d B q off the kernel of B.

    A is a volume FeSystem or a sparse matrix.  B is given by its factor C,
    B = C C^T, in either of two forms: a boundary FeSystem, whose `factor`
    is C, or a bare sparse n x m matrix, which is taken as C itself.
    `auto` takes `lanczos` whenever k < m and `dense` otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    A = A if isinstance(A, FeSystem) else _as_matrix(A)
    if isinstance(B, FeSystem):
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
