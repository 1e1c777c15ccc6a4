"""The tracer's spans: self times add up to the traced wall time, counts
repeat exactly, and the wrappers come off cleanly."""

import json
import os
import subprocess
import sys

import pytest

import tracer as tr
from workloads import config_text

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "child.py")
COUNTS = ("superlu.solve.calls", "superlu.solve.rhs", "superlu.factor.calls",
          "superlu.factor.fill_nnz_max", "spectral.solve_steklov.calls",
          "profile_geometry.physical_y.calls", "profile_geometry.physical_y.points",
          "assembly.assemble.calls")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced operations of the degeneration workload with one seed."""
    out = []
    for i in range(2):
        d = tmp_path_factory.mktemp(f"traced{i}")
        cfg = d / "bench.cfg"
        cfg.write_text(config_text("degeneration", 5))
        res = d / "result.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, CHILD, "degeneration", str(cfg), str(d),
                        str(res), "0", "trace"], check=True, env=env,
                       stdout=subprocess.DEVNULL, timeout=300)
        out.append(json.loads(res.read_text()))
    return out


def test_self_times_sum_to_wall(traced):
    r = traced[0]
    # every span closes inside the timed interval: what the spans do not
    # cover is the few statements between the runner's entry and the root
    assert 0.0 <= r["wall_s"] - r["self_sum_s"] <= 1e-3 + 0.01 * r["wall_s"]
    assert all(r["layers"][k] >= 0 for k in r["layers"] if k.endswith(".s"))


def test_counts_repeat_exactly(traced):
    a, b = (r["layers"] for r in traced)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["superlu.solve.calls"] > 0 and a["spectral.solve_steklov.calls"] > 0


def test_traced_checks_pass(traced):
    from checks import traced_failures
    assert traced_failures(traced[0]["traced_checks"], "degeneration") == []


def test_self_time_and_rss_rise():
    t = tr.Tracer()
    root = t.open(tr.ROOT)
    a = t.open("spectral.solve_steklov")
    b = t.open("superlu.factor")
    t.close(b)
    t.close(a)
    t.close(root)
    b.start, b.end, b.rss_start, b.rss_end = 2.0, 3.0, 10.0, 40.0
    a.start, a.end, a.rss_start, a.rss_end = 1.0, 5.0, 10.0, 50.0
    root.start, root.end = 0.0, 6.0
    m = tr.layer_metrics(t.spans)
    assert m["lab_cli.self_s"] == 2.0
    assert m["spectral.solve_steklov.s"] == 3.0
    assert m["superlu.factor.s"] == 1.0
    assert m["spectral.rss_rise_mb"] == 40.0 and m["superlu.rss_rise_mb"] == 30.0


def test_uninstall_restores_every_site():
    from steklov_lab import lab_cli
    from steklov_lab.mesh import DofMap
    import scipy.sparse.linalg as spla
    before = (lab_cli.assemble, spla.splu, DofMap.__dict__["unconstrained"])
    t = tr.Tracer()
    t.install()
    assert lab_cli.assemble is not before[0]
    t.uninstall()
    assert (lab_cli.assemble, spla.splu, DofMap.__dict__["unconstrained"]) == before
