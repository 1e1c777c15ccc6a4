#!/usr/bin/env python3
"""Reference eigenvalues for the Steklov pencils of one experiment cell.

Usage: python scripts/eig_reference.py <experiment> <alpha> <eps>

Builds the cell's pencils at the experiment's default config, as its runner
does (eps = 0 selects the flat reference pencils of trichotomy and
degeneration; a dbs-convergence cell has four pencils, both forms on the
perturbed and on the flat strip), and solves each with `solve_steklov`.  For
every eigenvalue it prints the relative error, signed, of the reported value
and of the long-double Rayleigh quotient of the reported mode.  Both are
measured against a reference: block inverse iteration whose inner solves are
refined against long-double residuals of the unscaled pencil, followed by
Rayleigh-Ritz with long-double Gram matrices.  The last line per pencil gives
the reference's relative change in its final sweep.

Exits 2 where long double is no wider than double
(np.finfo(np.longdouble).eps >= 1e-18): the reference then cannot be refined.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steklov_lab.assembly import (HESSIAN_ENERGY, LAPLACIAN_ENERGY,  # noqa: E402
                                  assemble, normal_trace)
from steklov_lab.lab_cli import load_config  # noqa: E402
from steklov_lab.mesh import DofMap, mark_essential  # noqa: E402
from steklov_lab.spectral import factor_spd, solve_steklov  # noqa: E402

LD = np.longdouble
EXTRA = 16              # block columns beyond k
MAX_SWEEPS = 100
LD_SWEEPS = 5


def rayleigh_ld(A_ld, B_ld, Q) -> np.ndarray:
    """Long-double Rayleigh quotients of the columns of Q."""
    Q = np.asarray(Q, dtype=LD)
    return np.einsum("ij,ij->j", Q, A_ld @ Q) / np.einsum("ij,ij->j", Q, B_ld @ Q)


def _ritz(A, B, Y):
    """Rayleigh-Ritz on span(Y) for A q = d B q, with Gram matrices in the
    dtype of A, B and Y: the A-orthonormal Ritz block, smallest d first."""
    Ga = Y.T @ (A @ Y)
    Gb = Y.T @ (B @ Y)
    _, C = sla.eigh(np.asarray(Gb, float), np.asarray(Ga, float))
    return Y @ C[:, ::-1].astype(Y.dtype)


def reference_eigenvalues(A, B, k, start=None, seed=0):
    """k smallest eigenvalues of A q = d B q, A SPD, refined in long double.

    Returns (d, change): the eigenvalues and their largest relative change
    over the last sweep, which bounds what the sweeps could still resolve.
    The Ritz values are long-double Rayleigh quotients.  A float64 phase runs
    until they settle to 1e-10.  Then up to LD_SWEEPS long-double sweeps,
    with Gram matrices in long double and each solve refined twice against
    the residual b - A x taken in long double, run until they settle to
    1e-13; the rounding of the quotients themselves stops them earlier on
    strongly graded meshes (2e-11 on the degeneration eps = 1/32 cell).
    """
    n = A.shape[0]
    s = 1.0 / np.sqrt(A.diagonal())
    factor = factor_spd((A.multiply(s[:, None]).multiply(s[None, :])).tocsr())

    def inv(b):                        # A^{-1} b through the scaled factor
        return s[:, None] * factor.solve(s[:, None] * np.asarray(b, float))

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k + EXTRA))
    if start is not None:
        X[:, :start.shape[1]] = start
    A_ld, B_ld = A.astype(LD), B.astype(LD)
    d = np.full(k, np.inf)
    change = np.inf
    for Am, Bm, tol, sweeps in ((A, B, 1e-10, MAX_SWEEPS),
                                (A_ld, B_ld, 1e-13, LD_SWEEPS)):
        X = X.astype(Am.dtype)
        for _ in range(sweeps):
            rhs = Bm @ X
            Y = inv(rhs).astype(Am.dtype)
            if Am.dtype == LD:
                for _ in range(2):
                    Y += inv(rhs - Am @ Y)
            X = _ritz(Am, Bm, Y)
            d_new = rayleigh_ld(A_ld, B_ld, X[:, :k])
            change = float(np.max(np.abs(d_new - d) / np.abs(d_new)))
            d = d_new
            if change <= tol:
                break
    return np.asarray(d, float), change


def _pencils(cfg, alpha, eps):
    """(label, mesh, bc, form, trace part, domain) of each pencil the
    experiment's runner solves for the cell (alpha, eps)."""
    exp = cfg.experiment
    if exp == "dbs-convergence":
        if eps == 0:
            raise SystemExit("dbs-convergence solves its flat pencils in every "
                             "eps > 0 cell")
        mesh, dif = cfg.mesh_for(alpha, eps), cfg.diffeo(alpha, eps)
        return [(f"{tag} {side}", mesh, "DirichletAll", form, "All", dom)
                for tag, form in (("bending", LAPLACIAN_ENERGY),
                                  ("curvature", HESSIAN_ENERGY))
                for side, dom in (("eps", dif), ("flat", None))]
    if exp == "trichotomy":
        bc, part = "DirichletAll+ClampSigma", "Gamma"
        if eps == 0:
            return [("reference", cfg.reference_mesh(), bc, HESSIAN_ENERGY,
                     part, None)]
    elif exp == "degeneration":
        bc, part = "DirichletAll", "All"
        if eps == 0:
            mesh0 = cfg.reference_mesh()
            return [("clamped", mesh0, "DirichletAll+ClampGamma",
                     HESSIAN_ENERGY, part, None),
                    ("plain", mesh0, bc, HESSIAN_ENERGY, part, None)]
    else:
        raise SystemExit(f"{exp} solves no Steklov pencil")
    return [("eps", cfg.mesh_for(alpha, eps), bc, HESSIAN_ENERGY, part,
             cfg.diffeo(alpha, eps))]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    if np.finfo(LD).eps >= 1e-18:
        print("long double is no wider than double here; no reference",
              file=sys.stderr)
        return 2
    experiment = {"dbs": "dbs-convergence"}.get(argv[0], argv[0])
    alpha, eps = (float(v.split("/")[0]) / float(v.split("/")[1])
                  if "/" in v else float(v) for v in argv[1:])
    cfg = load_config(experiment)
    print(f"{experiment} alpha={alpha:g} eps={eps:g} k={cfg.k}")
    for label, mesh, bc, form, part, dom in _pencils(cfg, alpha, eps):
        dm = mark_essential(mesh, DofMap.unconstrained(mesh), bc)
        A = assemble(form, mesh, dm, dom, cfg.quad_order).matrix
        trace = assemble(normal_trace(part), mesh, dm, dom, cfg.quad_order)
        B = trace.matrix
        spec = solve_steklov(A, trace, k=cfg.k, seed=cfg.seed)
        ref, change = reference_eigenvalues(A, B, cfg.k, start=spec.modes)
        rq = rayleigh_ld(A.astype(LD), B.astype(LD), spec.modes)
        print(f"pencil {label}: nx={mesh.nx} n_free={A.shape[0]} "
              f"method={spec.method}")
        print("  n  reference           reported err  mode RQ err")
        for i in range(cfg.k):
            err = (spec.eigenvalues[i] - ref[i]) / ref[i]
            err_rq = float((rq[i] - LD(ref[i])) / LD(ref[i]))
            print(f"  {i + 1}  {ref[i]:.15g}  {err:+.2e}     {err_rq:+.2e}")
        print(f"  reference: last sweep moved it {change:.1e} relative")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
