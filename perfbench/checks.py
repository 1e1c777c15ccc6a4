"""Checks of a run's outputs against closed forms and against properties the
method must have.  No check compares against a stored copy of earlier output.

Report checks read the CSV a run wrote; each returns a list of failure
messages, empty when the report passes.  Traced checks recompute quantities
from the objects the tracer intercepted during the run.
"""

from __future__ import annotations

import csv
import math

import numpy as np

GAMMA_COSINE = 6.0 * math.pi ** 3          # strange curvature of b = 1 + cos(2 pi y)

# tolerances of the traced checks; the measured values are in README.md
AREA_TOL = 1e-6
EIG_TOL = 1e-6
# the flat Navier error is set by the mesh's coarse bottom element (its height
# tends to 1 - grading whatever ny is): 2.9e-2 at w_len = 1, 0.0999 at the
# navier-stability workload's w_len = 1/2; a wrong solve is off by O(1)
NAVIER_H1_TOL = 0.15


def read_report(path) -> list:
    """CSV rows as dicts with numeric fields; `#` header lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#") and ln.strip()]
    rows = []
    for r in csv.DictReader(lines):
        for key in ("alpha", "eps", "value", "reference", "gap"):
            r[key] = float(r[key])
        for key in ("nx", "ny", "n"):
            r[key] = int(r[key])
        rows.append(r)
    return rows


def _series(rows, alpha, n, eps_list):
    """Values of data row n at one alpha, in the order of the eps sweep."""
    by_eps = {r["eps"]: r["value"] for r in rows
              if r["n"] == n and r["eps"] > 0 and abs(r["alpha"] - alpha) < 1e-12}
    return [by_eps[e] for e in eps_list]


def _row(rows, alpha, eps, n):
    for r in rows:
        if r["n"] == n and r["eps"] == eps and abs(r["alpha"] - alpha) < 1e-12:
            return r
    raise KeyError((alpha, eps, n))


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _verdicts(rows):
    """Every metric row's verdict must follow from its own value."""
    bad = []
    for r in rows:
        if r["n"] <= 0 and r["verdict"] != "Info":
            want = "Satisfied" if r["value"] <= r["reference"] else "Violated"
            if r["verdict"] != want:
                bad.append(f"metric alpha={r['alpha']} n={r['n']}: verdict "
                           f"{r['verdict']} but value {r['value']} vs {r['reference']}")
    return bad


def check_trichotomy(rows, cfg) -> list:
    bad = _verdicts(rows)
    eps = list(cfg.eps_list)
    gamma = _row(rows, 0.0, 0.0, 0)["value"]
    if abs(gamma - GAMMA_COSINE) > 1e-12 * GAMMA_COSINE:
        bad.append(f"gamma {gamma!r} != 6 pi^3")
    lam0 = [_row(rows, 0.0, 0.0, i)["value"] for i in range(1, cfg.k + 1)]
    data = [r for r in rows if r["n"] > 0 and r["eps"] > 0]
    if any(r["value"] <= 0 for r in data) or any(v <= 0 for v in lam0):
        bad.append("nonpositive eigenvalue")
    for r in data:
        if r["n"] == 1 and r["value"] > _row(rows, r["alpha"], r["eps"], 2)["value"]:
            bad.append(f"lambda1 > lambda2 at alpha={r['alpha']} eps={r['eps']}")
    for a in cfg.alphas:
        lam1 = _series(rows, a, 1, eps)
        if a > 1.5 + 1e-12:
            if not _decreasing([abs(v - lam0[0]) for v in lam1]):
                bad.append(f"alpha={a}: gap to lambda0 does not shrink")
        elif abs(a - 1.5) < 1e-12:
            for i in range(cfg.k):
                ref = _row(rows, a, eps[-1], i + 1)["reference"]
                if abs(ref - (lam0[i] + gamma)) > 1e-12 * ref:
                    bad.append(f"alpha=3/2 reference {ref!r} != lambda0 + gamma")
            if not _decreasing([abs(v - lam0[0] - gamma) for v in lam1]):
                bad.append("alpha=3/2: gap to lambda0 + gamma does not shrink")
        elif lam1[-1] < 2.0 * lam1[0]:
            bad.append(f"alpha={a}: lambda1 does not double over the sweep")
    return bad


def check_navier(rows, cfg) -> list:
    bad = _verdicts(rows)
    eps = list(cfg.eps_list)
    for n in (1, 2, 3):
        s = _series(rows, cfg.alpha, n, eps)
        if not s[-1] <= 0.5 * s[0]:
            bad.append(f"bending norm n={n} falls less than half: {s}")
    for a in cfg.alphas:
        if a > 1.5 + 1e-12:
            for n in (11, 12, 13):
                s = _series(rows, a, n, eps)
                if not s[-1] < s[0]:
                    bad.append(f"alpha={a}: curvature norm n={n} does not fall")
        elif abs(a - 1.5) < 1e-12:
            res = [r["value"] for r in rows if r["n"] == -15
                   and abs(r["alpha"] - a) < 1e-12]
            if len(res) != 1 or not res[0] <= 0.05:
                bad.append(f"alpha=3/2 residual {res} exceeds 0.05")
        else:
            s = _series(rows, a, 14, eps)
            if not s[-1] <= s[0] / 3.0:
                bad.append(f"alpha={a}: trace reduction {s[-1] / s[0]} > 1/3")
    return bad


def check_degeneration(rows, cfg) -> list:
    bad = _verdicts(rows)
    eps = list(cfg.eps_list)
    clamp = [_row(rows, 0.0, 0.0, 301 + i) for i in range(cfg.k)]
    for r in clamp[:2]:
        if not r["value"] >= r["reference"]:
            bad.append(f"clamped {r['value']} below unclamped {r['reference']}")
    lam1 = _series(rows, cfg.alpha, 1, eps)
    if any(r["value"] <= 0 for r in rows if r["n"] > 0):
        bad.append("nonpositive eigenvalue")
    gap = abs(lam1[-1] - clamp[0]["value"]) / clamp[0]["value"]
    if not gap <= 0.05:
        bad.append(f"final relative gap {gap} > 0.05")
    return bad


REPORT_CHECKS = {
    "trichotomy": check_trichotomy,
    "navier-stability": check_navier,
    "degeneration": check_degeneration,
}


# ---------------------------------------------------------------------------
# traced checks

def area_error(mesh, domain, quad_order) -> float:
    """Relative error of u^T M u for u = 1 against |Omega_eps|.

    For b = c0 + sum c_k cos(2 pi k y) over whole periods the area is
    w (1 + eps^alpha c0).
    """
    from steklov_lab.assembly import MASS, assemble
    from steklov_lab.mesh import DofMap
    M = assemble(MASS, mesh, DofMap.unconstrained(mesh), domain,
                 quad_order).matrix
    u = np.zeros(M.shape[0])
    u[0::4] = 1.0
    spec = domain.spec
    exact = spec.w_len * (1.0 + spec.epsilon ** spec.alpha
                          * spec.profile.coefficients[0])
    return abs(float(u @ (M @ u)) - exact) / exact


def eig_error(A, B, eigenvalues) -> float:
    """Relative distance of the reported eigenvalues from ARPACK's, called
    here in shift-invert mode at 0 on the unscaled pencil A q = d B q."""
    import scipy.sparse.linalg as spla
    k = len(eigenvalues)
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    d = np.sort(spla.eigsh(A.tocsc(), k=k, M=B.tocsc(), sigma=0.0, which="LM",
                           v0=v0, return_eigenvectors=False))
    ref = np.asarray(eigenvalues, dtype=float)
    return float(np.max(np.abs(d - ref) / np.abs(ref)))


def navier_closed_form(w_len):
    """u = sin(k x) W(y + 1/2), k = pi / w_len: the Navier solution on
    (0, w_len) x (-1, 0) with u = 0 and Lap u = sin(k x) on the boundary."""
    k = math.pi / w_len
    c, s = math.cosh(k / 2), math.sinh(k / 2)

    def W(z):
        return z * np.sinh(k * z) / (2 * k * c) - s * np.cosh(k * z) / (4 * k * c * c)

    def Wz(z):
        return ((np.sinh(k * z) + k * z * np.cosh(k * z)) / (2 * k * c)
                - s * np.sinh(k * z) / (4 * c * c))

    return (lambda x, y: np.sin(k * x) * W(y + 0.5),
            lambda x, y: k * np.cos(k * x) * W(y + 0.5),
            lambda x, y: np.sin(k * x) * Wz(y + 0.5))


def navier_h1_error(fe, nq: int = 6) -> float:
    """Relative H1 distance of a flat Navier solution from the closed form."""
    from steklov_lab.assembly import gauss01
    mesh = fe.mesh
    t, w = gauss01(nq)
    hx, hy = np.diff(mesh.xs), np.diff(mesh.ys)
    xq = (mesh.xs[:-1, None] + hx[:, None] * t).ravel()
    yq = (mesh.ys[:-1, None] + hy[:, None] * t).ravel()
    wq = np.outer((hx[:, None] * w).ravel(), (hy[:, None] * w).ravel()).ravel()
    X, Y = (a.ravel() for a in np.meshgrid(xq, yq, indexing="ij"))
    u, ux, uy = navier_closed_form(mesh.w_len)
    ex, exx, exy = u(X, Y), ux(X, Y), uy(X, Y)
    num = np.sum(wq * ((fe.eval(X, Y) - ex) ** 2 + (fe.eval(X, Y, 1, 0) - exx) ** 2
                       + (fe.eval(X, Y, 0, 1) - exy) ** 2))
    den = np.sum(wq * (ex ** 2 + exx ** 2 + exy ** 2))
    return float(math.sqrt(num / den))


class TraceRecorder:
    """Keeps what the traced checks need from the wrapped calls: every
    perturbed (mesh, diffeo) pair, the smallest perturbed Steklov pencil and
    every flat Navier solution."""

    def __init__(self, tracer):
        self.pairs = {}
        self.pencil = None
        self.flat_navier = []
        tracer.on_call["assembly.assemble"] = self._assemble
        tracer.on_call["spectral.solve_steklov"] = self._steklov
        tracer.on_call["navier.solve_navier"] = self._navier

    def _assemble(self, args, kwargs, out):
        if out.domain is not None:
            self.pairs.setdefault((id(out.mesh), id(out.domain)),
                                  (out.mesh, out.domain))

    def _steklov(self, args, kwargs, out):
        A, B = args[0], args[1]
        if A.domain is not None and (self.pencil is None
                                     or A.n_free < self.pencil[0].shape[0]):
            self.pencil = (A.matrix, B.matrix, out.eigenvalues.copy())

    def _navier(self, args, kwargs, out):
        if kwargs.get("domain", args[4] if len(args) > 4 else None) is None:
            self.flat_navier.append(out.u)

    def check(self, quad_order) -> dict:
        """Largest error of each traced check; None where the experiment
        gave a check nothing to check."""
        out = {"check.area_rel_err_max": None, "check.eig_rel_err_max": None,
               "check.navier_h1_rel_err_max": None}
        if self.pairs:
            out["check.area_rel_err_max"] = max(
                area_error(mesh, domain, quad_order)
                for mesh, domain in self.pairs.values())
        if self.pencil is not None:
            out["check.eig_rel_err_max"] = eig_error(*self.pencil)
        if self.flat_navier:
            out["check.navier_h1_rel_err_max"] = max(
                navier_h1_error(fe) for fe in self.flat_navier)
        return out


# which traced checks each experiment must pass, and their tolerances
TRACED_CHECKS = {
    "trichotomy": {"check.area_rel_err_max": AREA_TOL,
                   "check.eig_rel_err_max": EIG_TOL},
    "navier-stability": {"check.area_rel_err_max": AREA_TOL,
                         "check.navier_h1_rel_err_max": NAVIER_H1_TOL},
    "degeneration": {"check.area_rel_err_max": AREA_TOL,
                     "check.eig_rel_err_max": EIG_TOL},
}


def traced_failures(errors, experiment) -> list:
    bad = []
    for name, tol in TRACED_CHECKS[experiment].items():
        if errors[name] is None:
            bad.append(f"{name}: nothing was checked")
        elif not errors[name] <= tol:
            bad.append(f"{name} = {errors[name]:.3g} exceeds {tol:g}")
    return bad
