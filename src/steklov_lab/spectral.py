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
banded, with half-bandwidth 4 (ny + 2) - 1.  No solve builds a CSR of a
volume form A: its band, products and diagonal are read from its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import _SLAB, FeSystem

__all__ = ["SteklovSpectrum", "NoSteklovEigenvalues", "SpectralConvergenceError",
           "SpdFactor", "factor_spd", "solve_steklov"]

SPD_FACTOR_BUDGET = 1 << 30     # bytes of one factor band or one dense pencil
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


def _as_matrix(A):
    m = A.matrix if isinstance(A, FeSystem) else A
    return sp.csr_matrix(m) if not sp.issparse(m) else m.tocsr()


_UPPER = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))   # a node's upper neighbours


def _blocks_band(A):
    """(n, band, finite, entries) of a volume FeSystem's upper band, read
    from its node-pair blocks through the free index: `entries` yields
    (flat index, value) per upper neighbour (the node itself: types b >= a)
    and slab of node columns, which keeps its index arrays small."""
    S, n = A.blocks, A.dofmap.n_free
    nxp, nyp = S.shape[:2]
    idx = A.dofmap.free_index().reshape(nxp, nyp, 4)
    pad = np.pad(idx, ((0, 1), (1, 1), (0, 0)), constant_values=-1)
    lo, hi = np.where(idx >= 0, idx, n).min(axis=2), pad.max(axis=2)
    band = max(int((hi[dx:dx + nxp, 1 + dy:1 + dy + nyp] - lo).max(initial=0))
               for dx, dy in _UPPER)

    def entries():
        for i0 in range(0, nxp, _SLAB):
            r = idx[i0:i0 + _SLAB, :, :, None]
            for dx, dy in _UPPER:
                c = pad[i0 + dx:i0 + dx + len(r), 1 + dy:1 + dy + nyp, None]
                keep = (r >= 0) & (c >= r)
                yield ((band * (c + 1) + r)[keep],
                       S[i0:i0 + len(r), :, :, 1 + dx, 1 + dy][keep])
    return n, band, bool(np.isfinite(S).all()), entries()


def _csr_band(A):
    """(n, band, finite, entries) of a sparse matrix's upper band, read from
    its canonical CSR form as one (flat index in the band, value) pair."""
    A = sp.csr_matrix(A, copy=not A.has_canonical_format)
    A.sum_duplicates()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    band = int((A.indices - rows).max(initial=0))
    upper = A.indices >= rows
    vals = A.data[upper]
    at = band * (A.indices[upper] + np.intp(1)) + rows[upper]
    return A.shape[0], band, bool(np.isfinite(vals).all()), [(at, vals)]


def factor_spd(A) -> SpdFactor:
    """Banded Cholesky factor of an SPD matrix in its own DOF order.

    A volume FeSystem's band is written straight from its node-pair blocks,
    with no CSR of A; a sparse matrix's, or a boundary FeSystem's, is read
    from the canonical CSR form.  Before the band is allocated, a
    non-finite entry raises ValueError, and a band whose storage,
    8 (band + 1) n bytes, would exceed SPD_FACTOR_BUDGET raises
    MemoryError.  A matrix that is not positive definite raises LinAlgError.
    """
    volume = getattr(A, "blocks", None) is not None
    n, band, finite, entries = (_blocks_band(A) if volume
                                else _csr_band(_as_matrix(A)))
    if not finite:
        raise ValueError("SPD factor of a matrix with non-finite entries")
    need = 8 * (band + 1) * n
    if need > SPD_FACTOR_BUDGET:
        raise MemoryError(
            f"banded Cholesky of order {n} with half-bandwidth {band} needs "
            f"{need / 2**20:.0f} MB, above the {SPD_FACTOR_BUDGET / 2**20:.0f} "
            "MB SPD factor budget")
    ab = np.zeros((band + 1, n), order="F")   # LAPACK's layout: no copy
    for at, values in entries:      # ab[band + row - col, col], flat index
        ab.reshape(-1, order="F")[at] = values      # band (col + 1) + row
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
