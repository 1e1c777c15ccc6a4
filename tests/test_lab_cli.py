import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steklov_lab.assembly as assembly
import steklov_lab.lab_cli as lab_cli
from steklov_lab.assembly import (GRAD_MASS, HESSIAN_ENERGY,
                                  LAPLACIAN_ENERGY, MASS, assemble,
                                  normal_trace)
from steklov_lab.cell_problem import solve_cell
from steklov_lab.lab_cli import (RUNNERS, AssumptionViolatedError,
                                 ConfigError, ExperimentConfig,
                                 ExperimentReport, _base_header, _trace_lift,
                                 emit, load_config, main, parse_config_text,
                                 run_dbs_convergence, run_degeneration,
                                 run_navier_stability, run_trichotomy)
from steklov_lab.mesh import DofMap, build_mesh, mark_essential
from steklov_lab.navier import solve_navier
from steklov_lab.profile_geometry import (BoundaryProfile, DiffeoField,
                                          GeometryError)
from steklov_lab.spectral import (NoSteklovEigenvalues,
                                  SpectralConvergenceError, factor_spd,
                                  solve_steklov)


def smoke_cfg(experiment, **kw):
    base = dict(ny=6, reference_nx=16, k=2, eps_list=(0.125, 0.0625))
    base.update(kw)
    return load_config(experiment, None, **base)


# ---------------------------------------------------------------------------
# configuration parsing

def test_parse_config_text():
    text = """
    # comment line
    alphas = 2.0, 1.5, 1.2
    eps_list = 1/8, 1/16   # inline comment
    ny = 24
    grading = 0.7
    out_dir = results
    k_hat = 1/8
    """
    d = parse_config_text(text)
    assert d["alphas"] == (2.0, 1.5, 1.2)
    assert d["eps_list"] == (0.125, 0.0625)
    assert d["ny"] == 24
    assert d["grading"] == 0.7
    assert d["out_dir"] == "results"
    assert d["k_hat"] == 0.125
    # a slash is a fraction only between two numbers
    d = parse_config_text("out_dir = results/run1")
    assert d["out_dir"] == "results/run1"


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("just words without equals")


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("nonsense_key = 3\n")
    with pytest.raises(ConfigError):
        load_config("trichotomy", str(p))
    p.write_text("cell_fem_check = true\n")      # a retired key
    with pytest.raises(ConfigError):
        load_config("trichotomy", str(p))


SMOKE_LINES = "ny = 6\nreference_nx = 16\nk = 2\neps_list = 1/8, 1/16\n"


def test_scalar_eps_list_is_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("eps_list = 1/8\n")
    with pytest.raises(ConfigError):
        load_config("trichotomy", str(p))


@pytest.mark.parametrize("line", [
    "ny = abc", "grading = 1/3/2", "eps_list = 1/0, 1/16",
    "eps_list = 1/8, x/16"])
def test_load_config_rejects_ill_typed_values(tmp_path, line):
    p = tmp_path / "c.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError):
        load_config("trichotomy", str(p))


def test_scalar_alphas_runs_one_exponent(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(SMOKE_LINES + "alphas = 2.0\n")
    cfg = load_config("trichotomy", str(p))
    assert cfg.alphas == (2.0,)
    rep = run_trichotomy(cfg)
    assert {r.alpha for r in rep.rows if r.eps > 0} == {2.0}


def test_scalar_coefficients_give_flat_profile(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(SMOKE_LINES + "alphas = 2.0\ncoefficients = 1.0\n")
    cfg = load_config("trichotomy", str(p))
    assert cfg.coefficients == (1.0,)
    assert not cfg.profile(2.0).nonconstant
    gamma = [r for r in run_trichotomy(cfg).rows if r.n == 0][0]
    assert gamma.value == 0.0


def test_cli_import_leaves_scipy_interpolate_unloaded():
    code = ("import sys, steklov_lab.lab_cli; "
            "sys.exit('scipy.interpolate' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_config_validation():
    for bad in (dict(eps_list=(0.125,)), dict(per_period=4),
                dict(eps_list=(0.15, 0.075)), dict(eps_list=(0.125, 0)),
                dict(w_len=-1), dict(w_len=0),
                dict(k=0), dict(ny=0), dict(reference_nx=0), dict(grading=0.0),
                dict(ny=32, grading=0.2),       # a top element of no height
                dict(ny=32, grading=0.4),       # one of 2.8e-13, mostly rounding
                dict(grading=-0.5), dict(grading=1.5), dict(quad_order=5),
                dict(quad_order=0), dict(k_hat=6), dict(k_hat=2),
                dict(k_hat=-1), dict(kappa_exponent=-1),
                dict(coefficients=(1, 3)), dict(alpha=0), dict(alpha=-1.0),
                dict(alphas=(2.0, 0.0)), dict(seed=-1),
                # non-finite numbers
                dict(w_len=float("inf")), dict(alpha=float("inf")),
                dict(eps_list=(float("nan"), 0.0625)),
                dict(coefficients=(1, float("nan"))), dict(k_hat=float("nan")),
                dict(kappa_exponent=float("nan"))):
        with pytest.raises(ConfigError):
            smoke_cfg("trichotomy", **{"alphas": (2.0,), **bad})
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bogus")


def test_profile_is_built_once_per_alpha():
    cfg = smoke_cfg("navier-stability")
    assert cfg.profile(1.5) is cfg.profile(1.5)
    assert cfg.spec(2.0, 0.125).profile is cfg.profile(2.0)
    fresh = BoundaryProfile.fourier_cosine(cfg.coefficients, 1.5)
    assert cfg.profile(1.5) == fresh
    assert smoke_cfg("navier-stability").profile(1.5) is not cfg.profile(1.5)


def test_config_caches_only_the_profiles_a_run_reads():
    # the config validates every alpha's profile without caching it, so a
    # degeneration run, which reads only alpha, keeps that one profile
    cfg = smoke_cfg("degeneration", eps_list=(0.0625, 0.03125))
    assert set(cfg.alphas) - {cfg.alpha}
    assert not cfg._profiles
    run_degeneration(cfg)
    assert list(cfg._profiles) == [cfg.alpha]


def test_mesh_rule_resolves_steep_profile():
    # alpha = 1: the graph slope 2 pi does not shrink with eps, so a fixed 8
    # elements per period is far from mesh convergence (lambda_1 moves by 13%
    # from 8 to 16); on the rule's mesh, doubling moves it by less than 1%
    cfg = load_config("degeneration")
    eps = 1 / 16
    dif = cfg.diffeo(1.0, eps)
    nx = cfg.mesh_for(1.0, eps).nx
    lam = []
    for n in (nx, 2 * nx):
        m = build_mesh(n, cfg.ny, cfg.grading, cfg.w_len)
        dm = mark_essential(m, "DirichletAll")
        A = assemble(HESSIAN_ENERGY, m, dm, dif, cfg.quad_order)
        B = assemble(normal_trace("All"), m, dm, dif, cfg.quad_order)
        lam.append(solve_steklov(A, B, k=1).eigenvalues[0])
    assert abs(lam[0] - lam[1]) <= 0.01 * lam[1]


# ---------------------------------------------------------------------------
# reports

def test_empty_report_is_header_only():
    rep = ExperimentReport("trichotomy", header=("hello",))
    text = rep.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "alpha,eps,nx,ny,n,value,reference,gap,verdict"
    assert len(lines) == 2


def test_one_row_roundtrip():
    rep = ExperimentReport("degeneration")
    rep.add(1.0, 1 / 3, 64, 32, 1, np.pi, np.e, np.pi - np.e, "Info")
    line = rep.to_csv().splitlines()[-1]
    a, e, nx, ny, n, v, ref, gap, verdict = line.split(",")
    assert [float(x) for x in (a, e, v, ref, gap)] == [1.0, 1 / 3, np.pi, np.e,
                                                       np.pi - np.e]
    assert (nx, ny, n, verdict) == ("64", "32", "1", "Info")


def test_metric_row_verdicts_recomputable():
    rep = ExperimentReport("trichotomy")
    rep.metric(2.0, -1, 0.01, 0.02)
    rep.metric(2.0, -2, 1.2, 1.0)
    for row in rep.metric_rows:
        assert (row.verdict == "Satisfied") == (row.value <= row.reference)
    assert not rep.all_satisfied


def test_emit_deterministic(tmp_path):
    # an eps that is not a reciprocal keeps its own name in the header and
    # on the SVG axis
    cfg = load_config("trichotomy", None, w_len=0.6, eps_list=(0.3, 0.15))
    rep = ExperimentReport("trichotomy", header=tuple(_base_header(cfg)))
    rep.add(2.0, 0.3, 64, 32, 1, 1.234567890123, 1.0, 0.234567890123, "Info")
    rep.add(2.0, 0.15, 64, 32, 1, 1.125, 1.0, 0.125, "Info")
    rep.metric(2.0, -1, 0.1, 0.02)
    p1 = emit(rep, "csv", tmp_path)
    b1 = p1.read_bytes()
    assert b"# eps sweep: 3/10, 3/20;" in b1
    p2 = emit(rep, "csv", tmp_path)
    assert p2.read_bytes() == b1
    s1 = emit(rep, "svg", tmp_path)
    svg1 = s1.read_bytes()
    assert emit(rep, "svg", tmp_path).read_bytes() == svg1
    assert svg1.startswith(b"<svg")
    assert b">3/10</text>" in svg1 and b">3/20</text>" in svg1
    with pytest.raises(ValueError):
        emit(rep, "pdf", tmp_path)


def test_emit_unwritable_path(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    rep = ExperimentReport("trichotomy")
    with pytest.raises(OSError):
        emit(rep, "csv", target)


def _compare_reports(old, new):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    return subprocess.run([sys.executable, str(script), str(old), str(new)],
                          capture_output=True, text=True)


def test_rounding_probe_moves_half_the_entries_by_one_ulp():
    # scripts/rounding_probe.py: a seed picks about half of the stored
    # entries and moves each one ulp; the caller's matrix is left as it was
    # and an exactly symmetric matrix stays exactly symmetric
    path = Path(__file__).resolve().parents[1] / "scripts" / "rounding_probe.py"
    spec = importlib.util.spec_from_file_location("rounding_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    m = build_mesh(8, 4, grading=0.8)
    A = assemble(HESSIAN_ENERGY, m, DofMap.unconstrained(m)).matrix
    data = A.data.copy()
    N = probe.Nudger(3).matrix(A)
    assert np.array_equal(A.data, data)
    assert np.array_equal(N.indices, A.indices)
    moved = N.data != A.data
    assert 0.4 < moved.mean() < 0.6
    one_ulp = ((N.data == np.nextafter(A.data, np.inf))
               | (N.data == np.nextafter(A.data, -np.inf)))
    assert np.all(one_ulp[moved])
    assert (N - N.T).nnz == 0
    assert np.array_equal(probe.Nudger(3).matrix(A).data, N.data)
    assert not np.array_equal(probe.Nudger(4).matrix(A).data, N.data)
    v = np.linspace(1.0, 2.0, 1000)
    assert 0.4 < np.mean(probe.Nudger(3).vector(v) != v) < 0.6
    # sobolev_forms' Gram values: an n-d array, nudged by its flat index
    g = np.linspace(1.0, 2.0, 12).reshape(3, 2, 2)
    n = probe.Nudger(3)(g)
    assert n.shape == g.shape and np.any(n != g)
    assert np.array_equal(n.ravel(), probe.Nudger(3).vector(g.ravel()))
    # an FeSystem of the form has its node-pair blocks nudged at the
    # entries of its CSR matrix, as that matrix is nudged
    F = assemble(HESSIAN_ENERGY, m, DofMap.unconstrained(m))
    S = F.blocks
    assert probe.Nudger(3)(F) is F and F.blocks is not S
    assert np.array_equal(F.matrix.data, N.data)
    # install() wraps every name of SITES, so each must still be imported
    for module, names in probe.SITES:
        owner = importlib.import_module(module)
        assert all(callable(getattr(owner, name)) for name in names)


def _write_report(out_dir, header, value):
    """A one-row trichotomy report's CSV and SVG in out_dir; the CSV path."""
    rep = ExperimentReport("trichotomy", header=(header,))
    rep.add(2.0, 0.125, 64, 32, 1, value, 1.0, value - 1.0, "Info")
    rep.metric(2.0, -1, 0.01, 0.02)
    emit(rep, "svg", out_dir)
    return emit(rep, "csv", out_dir)


def test_compare_reports_tolerance(tmp_path):
    def write(name, header, value):
        return _write_report(tmp_path / name, header, value)

    old = write("old", "seed=0", 3.0)
    assert _compare_reports(old, write("head", "seed=1", 3.0)).returncode == 0
    moved = _compare_reports(old, write("moved", "seed=0", 3.0 * (1 + 2e-9)))
    assert moved.returncode == 1
    assert "value: largest relative change 2e-09" in moved.stdout


def test_compare_reports_directories(tmp_path):
    def write(name, header, value):
        return _write_report(tmp_path / name, header, value)

    write("old", "seed=0", 3.0)
    write("same", "seed=0", 3.0)
    same = _compare_reports(tmp_path / "old", tmp_path / "same")
    assert same.returncode == 0
    assert "trichotomy.csv: byte-identical" in same.stdout
    assert "trichotomy.svg: byte-identical" in same.stdout
    # a header change alters the bytes but passes the check
    write("head", "seed=1", 3.0)
    head = _compare_reports(tmp_path / "old", tmp_path / "head")
    assert head.returncode == 0
    assert "trichotomy.csv: bytes differ" in head.stdout
    write("moved", "seed=0", 3.0 * (1 + 2e-9))
    assert _compare_reports(tmp_path / "old", tmp_path / "moved").returncode == 1
    (tmp_path / "same" / "trichotomy.svg").unlink()
    missing = _compare_reports(tmp_path / "old", tmp_path / "same")
    assert missing.returncode == 1
    assert "trichotomy.svg: missing from" in missing.stdout


# ---------------------------------------------------------------------------
# runner plumbing at smoke scale

def test_trichotomy_smoke_runs_and_roundtrips():
    rep = run_trichotomy(smoke_cfg("trichotomy", alphas=(2.0, 1.2)))
    assert {r.alpha for r in rep.rows if r.n == 1 and r.eps > 0} == {2.0, 1.2}
    # gamma row present and recomputable target for the critical regime
    g = [r for r in rep.rows if r.n == 0][0]
    assert g.value == pytest.approx(6 * np.pi ** 3, rel=1e-12)


def test_trichotomy_determinism():
    cfg = smoke_cfg("trichotomy", alphas=(2.0,))
    a = run_trichotomy(cfg).to_csv()
    b = run_trichotomy(cfg).to_csv()
    assert a == b


def test_tracer_sites_resolve():
    # the benchmark's tracer wraps these module names by path; a refactor
    # that drops one makes install() raise
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


def test_navier_solves_pass_their_domain_by_keyword(monkeypatch):
    # the benchmark's traced Navier check tells a flat solve from a
    # perturbed one by the `domain` keyword of each solve_navier call made
    # from lab_cli (perfbench/checks.py, TraceRecorder._navier); it would
    # misread a domain passed by position
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return solve_navier(*args, **kwargs)

    monkeypatch.setattr(lab_cli, "solve_navier", spy)
    run_navier_stability(smoke_cfg("navier-stability"))
    assert calls and all("domain" in kwargs for kwargs in calls)
    assert any(kw["domain"] is None for kw in calls)
    assert any(kw["domain"] is not None for kw in calls)


BENCH_SMOKE = "ny = 6\nreference_nx = 16\nk = 2\neps_list = 1/8, 1/16\n"


@pytest.mark.parametrize("mode", ["run", "trace"])
@pytest.mark.parametrize("experiment", ["navier-stability", "trichotomy"])
def test_benchmark_child_runs(tmp_path, experiment, mode):
    # the benchmark runs each operation through perfbench/child.py, which
    # reads the config and, in trace mode, the solver objects its checks
    # recompute from; a refactor that drops one of those fails here, as does
    # a traced call made before the runner is entered (config checks), whose
    # span the self times would count but the wall time would not
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    cfg, res = tmp_path / "smoke.cfg", tmp_path / "result.json"
    cfg.write_text(BENCH_SMOKE)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(bench / "child.py"), experiment,
                           str(cfg), str(tmp_path), str(res), "0", mode],
                          env=env, stdout=subprocess.DEVNULL, timeout=300)
    assert proc.returncode == 0
    result = json.loads(res.read_text())
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0
    if mode == "trace":
        spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                      bench / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        traced = result["traced_checks"]
        assert all(traced[name] is not None
                   for name in checks.TRACED_CHECKS[experiment])
        assert result["self_sum_s"] <= result["wall_s"]


def test_dbs_refuses_violated_condition():
    cfg = smoke_cfg("dbs-convergence", alpha=1.6, kappa_exponent=1.2)
    with pytest.raises(AssumptionViolatedError) as err:
        run_dbs_convergence(cfg)
    assert err.value.report.verdict == "Violated"
    with pytest.raises(ConfigError):
        run_dbs_convergence(smoke_cfg("dbs-convergence", alpha=1.4))


def test_dbs_bending_gap_converges():
    # the bending-form pencil is stable: its first-eigenvalue gap is already
    # inside the reporting threshold at smoke scale, and shrinking
    rep = run_dbs_convergence(smoke_cfg("dbs-convergence", ny=8))
    rel = [r for r in rep.metric_rows if r.n == -1][0]
    mono = [r for r in rep.metric_rows if r.n == -2][0]
    assert rel.verdict == "Satisfied"
    assert mono.verdict == "Satisfied"


def test_dbs_h2_distance_matches_unconstrained_forms():
    # metric row n = 201 recomputed on the unconstrained DOF map: both modes
    # scattered into full coefficients, the pulled-back Mass, GradMass and
    # Hessian forms assembled over every DOF
    cfg = smoke_cfg("dbs-convergence")
    rep = run_dbs_convergence(cfg)
    a, e = cfg.alpha, cfg.eps_list[0]
    mesh, dif = cfg.mesh_for(a, e), cfg.diffeo(a, e)
    full = DofMap.unconstrained(mesh)
    dm = mark_essential(mesh, "DirichletAll")
    coeffs = []
    for domain in (dif, None):
        A = assemble(LAPLACIAN_ENERGY, mesh, dm, domain, cfg.quad_order)
        B = assemble(normal_trace("All"), mesh, dm, domain, cfg.quad_order)
        u = np.zeros(full.n_dofs)
        u[dm.free] = solve_steklov(A, B, k=cfg.k, seed=cfg.seed).modes[:, 0]
        coeffs.append(u)
    u_eps, u_ref = coeffs
    M, G, H = (assemble(kind, mesh, full, dif, cfg.quad_order).matrix
               for kind in (MASS, GRAD_MASS, HESSIAN_ENERGY))
    if u_eps @ (M @ u_ref) < 0:
        u_ref = -u_ref
    w = u_eps - u_ref
    dist = np.sqrt(w @ (M @ w) + w @ (G @ w) + w @ (H @ w))
    row = [r for r in rep.rows if r.n == 201 and r.eps == e][0]
    assert dist > 0
    assert row.value == pytest.approx(dist, rel=1e-12)


def _full(dm, v):
    """A free vector of dm scattered into full Hermite coefficients."""
    u = np.zeros(dm.n_dofs)
    u[dm.free] = v
    return u


def test_navier_norms_match_unconstrained_forms():
    # rows n = 1..3 and 11..13 and metric n = -15 recomputed with Mass and
    # GradMass assembled on the unconstrained DOF map, each solve's vectors
    # scattered into full coefficients
    cfg = smoke_cfg("navier-stability")
    rep = run_navier_stability(cfg)
    f = _trace_lift(cfg)
    for form, alphas, base in ((LAPLACIAN_ENERGY, (cfg.alpha,), 1),
                               (HESSIAN_ENERGY, cfg.alphas, 11)):
        for a in alphas:
            for e in cfg.eps_list:
                mesh, dif = cfg.mesh_for(a, e), cfg.diffeo(a, e)
                sol_0 = solve_navier(mesh, f, form=form)
                sol_e = solve_navier(mesh, f, form=form, domain=dif,
                                     quad_order=cfg.quad_order)
                A = sol_e.system.matrix
                w = sol_e.factor.solve(sol_e.load - A @ sol_0.u_free)
                u = _full(sol_e.dofmap, w)
                full = DofMap.unconstrained(mesh)
                M, G = (assemble(kind, mesh, full, dif, cfg.quad_order).matrix
                        for kind in (MASS, GRAD_MASS))
                want = np.sqrt([u @ (M @ u), u @ (G @ u), w @ (A @ w)])
                got = sorted((r for r in rep.rows if r.alpha == a
                              and r.eps == e and base <= r.n < base + 3),
                             key=lambda r: r.n)
                assert [r.value for r in got] == pytest.approx(want, rel=1e-12)
    # n = -15: the H1 distance of the critical cell's solution to the
    # curvature-shifted flat solution, relative to the latter
    e = cfg.eps_list[-1]
    mesh, dif = cfg.mesh_for(1.5, e), cfg.diffeo(1.5, e)
    sol_0 = solve_navier(mesh, f, form=HESSIAN_ENERGY)
    sol_e = solve_navier(mesh, f, form=HESSIAN_ENERGY, domain=dif,
                         quad_order=cfg.quad_order)
    dm, gamma = sol_e.dofmap, solve_cell(cfg.profile(1.5)).gamma
    A_gam = (sol_0.system.matrix
             + gamma * assemble(normal_trace("Gamma"), mesh, dm).matrix)
    fac = factor_spd(A_gam)
    w = _full(dm, fac.solve(A_gam @ sol_e.u_free - sol_0.load))
    u_gam = _full(dm, fac.solve(sol_0.load))
    full = DofMap.unconstrained(mesh)
    M, G = (assemble(kind, mesh, full).matrix for kind in (MASS, GRAD_MASS))
    h1 = [np.sqrt(v @ (M @ v) + v @ (G @ v)) for v in (w, u_gam)]
    row = [r for r in rep.rows if r.n == -15][0]
    assert row.value == pytest.approx(h1[0] / h1[1], rel=1e-12)


def test_norm_passes_assemble_no_matrix(monkeypatch):
    # every norm a runner reports is taken by quadrature of its vectors:
    # lab_cli makes no assemble call of a norm form in smoke
    # navier-stability and dbs-convergence runs
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append((sys._getframe(1).f_globals["__name__"], args[0]))
            return fn(*args, **kwargs)
        return wrapped

    for owner in (assembly, lab_cli):
        monkeypatch.setattr(owner, "assemble", spy(owner.assemble))
    run_navier_stability(smoke_cfg("navier-stability"))
    run_dbs_convergence(smoke_cfg("dbs-convergence"))
    mine = {kind for module, kind in calls if module == "steklov_lab.lab_cli"}
    assert mine and not {MASS, GRAD_MASS} & mine


def test_navier_cell_inverts_the_layer_map_once(monkeypatch):
    # each perturbed cell of a smoke navier-stability run inverts the layer
    # map once for its volume points, every element row in one call, which
    # its solve, its load and its norms share; each curvature-form cell adds
    # one call for the top edge of its Gamma trace factor
    shapes = []
    physical_y = DiffeoField.physical_y

    def spy(self, x, yhat):
        shapes.append(np.shape(yhat))
        return physical_y(self, x, yhat)

    monkeypatch.setattr(DiffeoField, "physical_y", spy)
    cfg = smoke_cfg("navier-stability")
    run_navier_stability(cfg)
    curvature = len(cfg.alphas) * len(cfg.eps_list)
    cells = len(cfg.eps_list) + curvature
    volume = [s for s in shapes if s[0] == cfg.ny]
    assert len(volume) == cells
    assert all(s[1] % cfg.quad_order ** 2 == 0 for s in volume)
    assert len(shapes) == cells + curvature


def test_degeneration_cell_shares_its_pull_back_with_the_trace(monkeypatch):
    # each perturbed cell of a smoke degeneration run inverts the layer map
    # once for its volume points, every element row in one call, and its
    # NormalTrace(All) factor, read through the same cell, once per edge.
    # Every pencil, the two flat ones too, builds its cell's basis factors
    # once (3 x-factors, 3 y-factors per element row) and its four edges'
    # one-point rows (12)
    shapes, hermite = [], []
    physical_y, hermite1d = DiffeoField.physical_y, assembly.hermite1d

    def spy(self, x, yhat):
        shapes.append(np.shape(yhat))
        return physical_y(self, x, yhat)

    def count(*args):
        hermite.append(1)
        return hermite1d(*args)

    monkeypatch.setattr(DiffeoField, "physical_y", spy)
    monkeypatch.setattr(assembly, "hermite1d", count)
    cfg = smoke_cfg("degeneration", eps_list=(0.0625, 0.03125))
    run_degeneration(cfg)
    cells = len(cfg.eps_list)
    volume = [s for s in shapes if s[0] == cfg.ny
              and s[1] % cfg.quad_order ** 2 == 0]
    assert len(volume) == cells
    assert len(shapes) == cells * (1 + 4)
    assert len(hermite) == (cells + 2) * (3 + 3 * cfg.ny + 12)


def test_dbs_cell_spectra_match_pencils_on_their_own_maps():
    # the cell's four pencils share one DOF map and one trace form per
    # domain; each spectrum is bit-identical to that of its pencil assembled
    # on a map and a trace form of its own
    cfg = smoke_cfg("dbs-convergence")
    rep = run_dbs_convergence(cfg)
    a, e = cfg.alpha, cfg.eps_list[-1]
    mesh, dif = cfg.mesh_for(a, e), cfg.diffeo(a, e)
    for base, form in ((0, LAPLACIAN_ENERGY), (100, HESSIAN_ENERGY)):
        spectra = []
        for domain in (dif, None):
            dm = mark_essential(mesh, "DirichletAll")
            A = assemble(form, mesh, dm, domain, cfg.quad_order)
            B = assemble(normal_trace("All"), mesh, dm, domain, cfg.quad_order)
            spectra.append(solve_steklov(A, B, k=cfg.k, seed=cfg.seed).eigenvalues)
        rows = sorted((r for r in rep.rows if r.eps == e
                       and base < r.n <= base + cfg.k), key=lambda r: r.n)
        assert [r.value for r in rows] == list(spectra[0])
        assert [r.reference for r in rows] == list(spectra[1])


def test_dbs_flat_profile_gaps_vanish():
    cfg = smoke_cfg("dbs-convergence", coefficients=(0.0,))
    rep = run_dbs_convergence(cfg)
    data = [r for r in rep.rows if r.n in (1, 101) and r.eps > 0]
    assert data
    for r in data:
        assert r.gap <= 1e-8 * abs(r.reference)
    assert rep.all_satisfied


def test_degeneration_preconditions_and_ordering():
    with pytest.raises(ConfigError):
        run_degeneration(smoke_cfg("degeneration", alpha=1.7))
    rep = run_degeneration(smoke_cfg("degeneration", alpha=1.0,
                                     eps_list=(0.0625, 0.03125)))
    # clamped reference dominates the unclamped one (smaller trial space)
    ctrl = [r for r in rep.rows if r.n == 301][0]
    assert ctrl.value > ctrl.reference


def test_degeneration_flat_profile_is_negative_control():
    # without oscillation the spectrum stays at the unclamped values: the
    # gap to the clamped reference must stay large
    rep = run_degeneration(smoke_cfg("degeneration", alpha=1.0,
                                     coefficients=(0.0,),
                                     eps_list=(0.0625, 0.03125)))
    ctrl = [r for r in rep.rows if r.n == 301][0]
    data = [r for r in rep.rows if r.n == 1 and r.eps > 0]
    for r in data:
        assert r.gap > 0.5 * (ctrl.value - ctrl.reference)
    final = [r for r in rep.metric_rows if r.n == -1][0]
    assert final.verdict == "Violated"


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("ny = 6\nreference_nx = 16\nk = 2\n"
                   "eps_list = 1/8, 1/16\nalphas = 1.2,\n")
    rc = main(["trichotomy", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "metric n=-4" in out
    assert (tmp_path / "trichotomy.csv").exists()
    assert (tmp_path / "trichotomy.svg").exists()
    rows = [ln.split(",") for ln in (tmp_path / "trichotomy.csv").read_text()
            .splitlines() if not ln.startswith("#")][1:]
    verdicts = {r[8] for r in rows if int(r[4]) <= 0} - {"Info"}
    assert rc == (0 if verdicts <= {"Satisfied"} else 1)


def test_cli_reports_config_errors_as_usage_errors(tmp_path, capsys):
    # a bad value, an unreadable file and a runner's preconditions (alpha >
    # 3/2, the layer condition on the sweep, a blending layer for every cell)
    # each end in one usage line on stderr and exit code 2, not in a traceback
    bad_value = tmp_path / "bad.cfg"
    bad_value.write_text("ny = abc\n")
    low_alpha = tmp_path / "dbs.cfg"
    low_alpha.write_text("alpha = 1.5\n")
    violated = tmp_path / "violated.cfg"
    violated.write_text("alpha = 1.55\n")
    no_layer = tmp_path / "no_layer.cfg"            # sup g_eps too large
    no_layer.write_text("eps_list = 1/8, 1/16\nny = 6\nreference_nx = 16\n")
    late_cell = tmp_path / "late_cell.cfg"          # alpha = 2 fits, 3/2 not
    late_cell.write_text("eps_list = 1/4, 1/8\nny = 6\nreference_nx = 16\n")
    infinite = tmp_path / "infinite.cfg"
    infinite.write_text("w_len = inf\nny = 6\nreference_nx = 16\n")
    threads = tmp_path / "threads.cfg"              # sweeps are serial
    threads.write_text("threads = 2\n")
    cases = ((["trichotomy", "--threads", "2"],
              "unrecognized arguments: --threads 2"),
             (["trichotomy", "--config", str(threads)],
              "unknown config keys ['threads']"),
             (["trichotomy", "--config", str(tmp_path / "missing.cfg")],
              "cannot read config file"),
             (["trichotomy", "--config", str(bad_value)], "ny must be"),
             (["dbs", "--config", str(low_alpha)], "requires alpha > 3/2"),
             (["dbs", "--config", str(violated)],
              "layer condition violated: verdict: Violated"),
             (["degeneration", "--config", str(no_layer)],
              "no admissible blending layer"),
             (["trichotomy", "--config", str(late_cell)],
              "cell alpha = 1.5, eps = 1/4: no admissible blending layer"),
             (["trichotomy", "--config", str(infinite)],
              "w_len must be a finite number, got inf"))
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("steklov-lab: error:")


@pytest.mark.parametrize("error", [GeometryError("layer map inversion stalled"),
                                   SpectralConvergenceError("no convergence"),
                                   NoSteklovEigenvalues("boundary form is zero"),
                                   MemoryError("above the SPD factor budget"),
                                   np.linalg.LinAlgError(
                                       "251-th leading minor not positive "
                                       "definite")])
def test_cli_reports_run_failures_with_exit_code_3(tmp_path, capsys,
                                                    monkeypatch, error):
    # a run-time failure is neither a usage error (2) nor a Violated metric
    # row (1): one line on stderr and exit code 3, no traceback, no report
    def fail(cfg):
        raise error
    monkeypatch.setitem(RUNNERS, "trichotomy", fail)
    with pytest.raises(SystemExit) as exc:
        main(["trichotomy", "--out", str(tmp_path)])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == f"steklov-lab: run failed: {error}\n"
    assert not (tmp_path / "trichotomy.csv").exists()
