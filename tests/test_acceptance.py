"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s to stream
them).  The experiment-level criteria reuse one run of the relevant
experiment through module-scoped fixtures, at the default configuration
(profile b = 1 + cos(2 pi y), at least 8 elements per period with more where
the graph is steep, ny = 32, grading 0.7).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from steklov_lab.assembly import (GRAD_MASS, HESSIAN_ENERGY, LAPLACIAN_ENERGY,
                                  MIXED_U_DELTA, assemble, normal_trace)
from steklov_lab.cell_problem import solve_cell
from steklov_lab.lab_cli import (THRESHOLDS, load_config, run_degeneration,
                                 run_navier_stability, run_trichotomy)
from steklov_lab.mesh import build_mesh, mark_essential
from steklov_lab.navier import (build_ntn, mixed_splitting_solve,
                                ntn_eigenvalues, relative_h1_error,
                                solve_navier)
from steklov_lab.profile_geometry import (BoundaryProfile, DiffeoField,
                                          DomainSpec, KappaLayer,
                                          check_assumptions)
from steklov_lab.spectral import solve_steklov

from oracles import det_sample


def report(num, ok, detail, elapsed):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({elapsed:.1f}s)")
    print(line)
    assert ok, line


def cos_profile(alpha):
    return BoundaryProfile.fourier_cosine([1.0, 1.0], alpha)


# ---------------------------------------------------------------------------
# 1. form-identity suite

def test_criterion_1_form_identities():
    t0 = time.time()
    worst = 0.0
    for n in (4, 12):
        m = build_mesh(n, n)
        dm = mark_essential(m, "DirichletAll")
        L = assemble(LAPLACIAN_ENERGY, m, dm).matrix.toarray()
        H = assemble(HESSIAN_ENERGY, m, dm).matrix.toarray()
        G = assemble(GRAD_MASS, m, dm).matrix.toarray()
        X = assemble(MIXED_U_DELTA, m, dm).matrix.toarray()
        worst = max(worst,
                    np.max(np.abs(L - H)) / np.max(np.abs(L)),
                    np.max(np.abs(G + X)) / np.max(np.abs(G)))
    dt = time.time() - t0
    report(1, worst <= 1e-10 and dt < 10.0,
           f"form identities, worst entrywise rel err {worst:.2e}", dt)


# ---------------------------------------------------------------------------
# 2. Jacobian bounds

def test_criterion_2_jacobian_bounds():
    t0 = time.time()
    rng = []
    for eps in (1 / 8, 1 / 16):
        spec = DomainSpec(epsilon=eps, profile=cos_profile(2.0))
        dif = DiffeoField(spec, KappaLayer(kappa_eps=eps ** (4 / 3), k_hat=8.0))
        dets = det_sample(dif)
        rng.append((dif.det_min, np.min(dets), np.max(dets), dif.det_max))
    # the sample is the independent check of the closed-form bounds
    ok = all(0.5 <= lo <= s_lo <= s_hi <= hi <= 1.5 for lo, s_lo, s_hi, hi in rng)
    dt = time.time() - t0
    report(2, ok and dt < 5.0,
           "det DPhi on 200x200 layer samples: "
           + ", ".join(f"[{s_lo:.4f}, {s_hi:.4f}]" for _, s_lo, s_hi, _ in rng), dt)


# ---------------------------------------------------------------------------
# 3. assumption checker

def test_criterion_3_assumption_checker():
    t0 = time.time()
    eps_seq = [2.0 ** -k for k in range(3, 8)]
    verdicts = {a: check_assumptions(cos_profile(a), eps_seq).verdict
                for a in (2.0, 1.5, 1.0)}
    ok = (verdicts[2.0] == "Satisfied" and verdicts[1.5] == "Violated"
          and verdicts[1.0] == "Violated")
    dt = time.time() - t0
    report(3, ok and dt < 1.0, f"verdicts {verdicts}", dt)


# ---------------------------------------------------------------------------
# 4. strange curvature

def test_criterion_4_strange_curvature():
    t0 = time.time()
    sol = solve_cell(cos_profile(1.5))
    m = sol.mode(1)
    w = m.omega
    dens = lambda y: 0.5 * (w ** 4 * m.v(y) ** 2 + 2 * w ** 2 * m.v(y, 1) ** 2
                            + m.v(y, 2) ** 2)
    oracle, _ = quad(dens, -40.0 / w, 0.0, limit=400)
    err_quad = abs(sol.gamma - oracle) / oracle
    higher = [mm for mm in sol.modes if mm.k >= 2]
    gamma2 = solve_cell(BoundaryProfile.fourier_cosine([2.0, 2.0], 1.5)).gamma
    err_scale = abs(gamma2 - 4.0 * sol.gamma) / (4.0 * sol.gamma)
    gamma_const = solve_cell(BoundaryProfile.fourier_cosine([1.0], 1.5)).gamma
    ok = (err_quad <= 1e-8 and not higher and err_scale <= 1e-12
          and gamma_const == 0.0)
    dt = time.time() - t0
    report(4, ok and dt < 1.0,
           f"gamma={sol.gamma:.6f}, quadrature rel err {err_quad:.1e}, "
           f"scaling rel err {err_scale:.1e}, gamma(const)={gamma_const}", dt)


# ---------------------------------------------------------------------------
# 5. spectral consistency

def test_criterion_5_spectral_consistency():
    t0 = time.time()
    m16 = build_mesh(16, 16)
    op = build_ntn(m16)
    mu = ntn_eigenvalues(op, 3)
    dm = mark_essential(m16, "DirichletAll")
    A = assemble(LAPLACIAN_ENERGY, m16, dm)
    B = assemble(normal_trace("All"), m16, dm)
    d = solve_steklov(A, B, k=3).eigenvalues
    err_ntn = np.max(np.abs(1.0 / mu - d) / d)

    m8 = build_mesh(8, 8)
    dm8 = mark_essential(m8, "DirichletAll")
    A8 = assemble(LAPLACIAN_ENERGY, m8, dm8)
    B8 = assemble(normal_trace("All"), m8, dm8)
    dd = solve_steklov(A8, B8, k=3, method="dense").eigenvalues
    di = solve_steklov(A8, B8, k=3, method="lanczos").eigenvalues
    err_iter = np.max(np.abs(dd - di) / dd)
    dt = time.time() - t0
    report(5, err_ntn <= 1e-6 and err_iter <= 1e-9 and dt < 30.0,
           f"NtN vs direct rel err {err_ntn:.2e} (i<=3); "
           f"dense vs iterative rel err {err_iter:.2e}", dt)


# ---------------------------------------------------------------------------
# 6. trichotomy (one experiment, three regime verdicts)

@pytest.fixture(scope="module")
def trichotomy_report():
    t0 = time.time()
    rep = run_trichotomy(load_config("trichotomy"))
    return rep, time.time() - t0


def _metric(rep, alpha, n):
    return [r for r in rep.metric_rows if r.alpha == alpha and r.n == n][0]


def test_criterion_6_runtime(trichotomy_report):
    rep, dt = trichotomy_report
    report("6 (runtime)", dt < 600.0, "trichotomy experiment wall time", dt)


def test_criterion_6_stable_regime(trichotomy_report):
    rep, dt = trichotomy_report
    rel = _metric(rep, 2.0, -1)
    mono = _metric(rep, 2.0, -2)
    ok = rel.value <= rel.reference and mono.value <= mono.reference
    report("6 (alpha=2)", ok,
           f"final rel gap {rel.value:.4f} (<= {rel.reference}), "
           f"max successive gap ratio {mono.value:.3f} (<= 1)", 0.0)


def test_criterion_6_critical_regime(trichotomy_report):
    rep, dt = trichotomy_report
    halv = _metric(rep, 1.5, -3)
    ok = halv.value <= halv.reference
    report("6 (alpha=3/2)", ok,
           f"gap(1/32)/gap(1/8) = {halv.value:.4f} (<= {halv.reference})", 0.0)


def test_criterion_6_divergent_regime(trichotomy_report):
    rep, dt = trichotomy_report
    div = _metric(rep, 1.2, -4)
    lam = {r.eps: r.value for r in rep.rows if r.alpha == 1.2 and r.n == 1}
    ok = div.value <= div.reference
    report("6 (alpha=1.2)", ok,
           f"lam1: {lam[0.125]:.1f} -> {lam[0.03125]:.1f}, need factor >= 2 "
           f"(ratio metric {div.value:.3f} <= 1)", 0.0)


# ---------------------------------------------------------------------------
# 7. Navier stability

@pytest.fixture(scope="module")
def navier_report():
    t0 = time.time()
    rep = run_navier_stability(load_config("navier-stability"))
    return rep, time.time() - t0


def test_criterion_7_navier_halving(navier_report):
    rep, dt = navier_report
    ratios = [_metric(rep, 2.0, -i).value for i in (1, 2, 3)]
    ok = all(r <= THRESHOLDS["norm_halving"] for r in ratios) and dt < 300.0
    report("7 (bending)", ok,
           "stability-norm ratios (L2, grad, laplacian) = "
           + ", ".join(f"{r:.3f}" for r in ratios) + " (each <= 0.5)", dt)


def test_criterion_7_trace_degeneration(navier_report):
    rep, dt = navier_report
    tr = _metric(rep, 1.2, -14)
    ok = tr.value <= tr.reference
    report("7 (alpha=1.2)", ok,
           f"normal-trace reduction {tr.value:.3f} (<= 1/3)", 0.0)


# ---------------------------------------------------------------------------
# 8. degeneration

def test_criterion_8_degeneration():
    t0 = time.time()
    rep = run_degeneration(load_config("degeneration"))
    dt = time.time() - t0
    fin = _metric(rep, 1.0, -1)
    gaps = {r.eps: r.gap for r in rep.rows if r.n == 1 and r.eps > 0}
    ok = fin.value <= fin.reference and dt < 300.0
    report(8, ok,
           f"final rel gap to clamped spectrum {fin.value:.4f} (<= 0.05); "
           f"gaps {sorted(gaps.items(), reverse=True)}", dt)


# ---------------------------------------------------------------------------
# 9. mixed-splitting oracle

def test_criterion_9_mixed_splitting():
    t0 = time.time()
    f = lambda x, y: np.sin(np.pi * x)
    f3 = (f, lambda x, y: np.pi * np.cos(np.pi * x),
          lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
    errs = []
    for n in (16, 32):
        m = build_mesh(n, n)
        sol = solve_navier(m, f3)
        oracle_mesh = build_mesh(4 * n, 4 * n)
        _, u_oracle = mixed_splitting_solve(oracle_mesh, f)
        errs.append(relative_h1_error(sol.u, oracle_mesh, u_oracle))
    dt = time.time() - t0
    ok = errs[0] <= 2e-2 and errs[1] < errs[0] and dt < 60.0
    report(9, ok,
           f"relative H1 gap to the second-order splitting: {errs[0]:.4f} at "
           f"16x16 (<= 0.02), {errs[1]:.4f} at 32x32 (decreasing)", dt)
