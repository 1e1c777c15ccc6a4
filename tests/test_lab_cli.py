import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steklov_lab.assembly import HESSIAN_ENERGY, assemble, normal_trace
from steklov_lab.lab_cli import (AssumptionViolatedError, ConfigError,
                                 ExperimentConfig, ExperimentReport,
                                 ReportRow, emit, load_config, main,
                                 parse_config_text, run_dbs_convergence,
                                 run_degeneration, run_trichotomy)
from steklov_lab.mesh import DofMap, build_mesh, mark_essential
from steklov_lab.spectral import solve_steklov


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
    """
    d = parse_config_text(text)
    assert d["alphas"] == (2.0, 1.5, 1.2)
    assert d["eps_list"] == (0.125, 0.0625)
    assert d["ny"] == 24
    assert d["grading"] == 0.7
    assert d["out_dir"] == "results"


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


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="trichotomy", eps_list=(0.125,))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="trichotomy", per_period=4)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="trichotomy", eps_list=(0.15, 0.075))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bogus")


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
        dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll")
        A = assemble(HESSIAN_ENERGY, m, dm, dif, cfg.quad_order)
        B = assemble(normal_trace("All"), m, dm, dif, cfg.quad_order)
        lam.append(solve_steklov(A, B, k=1).eigenvalues[0])
    assert abs(lam[0] - lam[1]) <= 0.01 * lam[1]


def test_threads_env_fallback(monkeypatch):
    cfg = ExperimentConfig(experiment="trichotomy")
    monkeypatch.setenv("STEKLOV_LAB_THREADS", "3")
    assert cfg.n_threads() == 3
    monkeypatch.delenv("STEKLOV_LAB_THREADS")
    assert cfg.n_threads() == 1
    assert ExperimentConfig(experiment="trichotomy", threads=2).n_threads() == 2


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
    back = ExperimentReport.from_csv(rep.to_csv())
    (row,) = back.rows
    assert row == ReportRow(1.0, 1 / 3, 64, 32, 1, np.pi, np.e,
                            np.pi - np.e, "Info")


def test_metric_row_verdicts_recomputable():
    rep = ExperimentReport("trichotomy")
    rep.metric(2.0, -1, 0.01, 0.02)
    rep.metric(2.0, -2, 1.2, 1.0)
    for row in rep.metric_rows:
        assert (row.verdict == "Satisfied") == (row.value <= row.reference)
    assert not rep.all_satisfied


def test_emit_deterministic(tmp_path):
    rep = ExperimentReport("trichotomy", header=("config: x",))
    rep.add(2.0, 0.125, 64, 32, 1, 1.234567890123, 1.0, 0.234567890123, "Info")
    rep.metric(2.0, -1, 0.1, 0.02)
    p1 = emit(rep, "csv", tmp_path)
    b1 = p1.read_bytes()
    p2 = emit(rep, "csv", tmp_path)
    assert p2.read_bytes() == b1
    s1 = emit(rep, "svg", tmp_path)
    svg1 = s1.read_bytes()
    assert emit(rep, "svg", tmp_path).read_bytes() == svg1
    assert svg1.startswith(b"<svg")
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


def test_compare_reports_tolerance(tmp_path):
    def write(name, header, value):
        rep = ExperimentReport("trichotomy", header=(header,))
        rep.add(2.0, 0.125, 64, 32, 1, value, 1.0, value - 1.0, "Info")
        rep.metric(2.0, -1, 0.01, 0.02)
        return emit(rep, "csv", tmp_path / name)

    old = write("old", "seed=0", 3.0)
    assert _compare_reports(old, write("head", "seed=1", 3.0)).returncode == 0
    moved = _compare_reports(old, write("moved", "seed=0", 3.0 * (1 + 2e-9)))
    assert moved.returncode == 1
    assert "value: largest relative change 2e-09" in moved.stdout


# ---------------------------------------------------------------------------
# runner plumbing at smoke scale

def test_trichotomy_smoke_runs_and_roundtrips():
    rep = run_trichotomy(smoke_cfg("trichotomy", alphas=(2.0, 1.2)))
    text = rep.to_csv()
    back = ExperimentReport.from_csv(text)
    assert back.to_csv().splitlines()[1:] == text.splitlines()[1:]
    assert {r.alpha for r in rep.rows if r.n == 1 and r.eps > 0} == {2.0, 1.2}
    # gamma row present and recomputable target for the critical regime
    g = [r for r in rep.rows if r.n == 0][0]
    assert g.value == pytest.approx(6 * np.pi ** 3, rel=1e-12)


def test_trichotomy_determinism():
    cfg = smoke_cfg("trichotomy", alphas=(2.0,))
    a = run_trichotomy(cfg).to_csv()
    b = run_trichotomy(cfg).to_csv()
    assert a == b


def test_trichotomy_threads_match_serial():
    cfg = smoke_cfg("trichotomy", alphas=(2.0, 1.5))
    serial = run_trichotomy(cfg).to_csv()
    threaded = run_trichotomy(smoke_cfg("trichotomy", alphas=(2.0, 1.5),
                                        threads=2)).to_csv()
    assert serial == threaded


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
    rep = ExperimentReport.from_csv((tmp_path / "trichotomy.csv").read_text())
    assert rc == (0 if rep.all_satisfied else 1)
