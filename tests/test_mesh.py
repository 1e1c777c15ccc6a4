import numpy as np
import pytest

from steklov_lab.assembly import FeFunction, assemble, normal_trace
from steklov_lab.mesh import DofMap, build_mesh, mark_essential


def test_counts_2x2():
    m = build_mesh(2, 2)
    assert m.n_nodes == 9
    assert DofMap.unconstrained(m).n_dofs == 36


def test_uniform_4x4_tags_by_coordinate():
    m = build_mesh(4, 4)
    assert np.allclose(np.diff(m.xs), 0.25)
    assert np.allclose(np.diff(m.ys), 0.25)


def test_graded_spacings_form_geometric_sequence():
    m = build_mesh(8, 8, grading=0.5)
    sp = np.diff(m.ys)
    assert sp[-1] == pytest.approx(sp[0] * 0.5 ** 7, rel=1e-12)
    assert sum(sp) == pytest.approx(1.0, abs=1e-12)
    assert m.ys[-1] == 0.0


def test_build_mesh_argument_errors():
    with pytest.raises(ValueError):
        build_mesh(0, 4)
    with pytest.raises(ValueError):
        build_mesh(4, 4, grading=1.5)


def test_dirichlet_all_free_count():
    m = build_mesh(2, 2)
    dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll")
    # interior node keeps 4, edge non-corners keep 2, corners keep none
    assert dm.n_free == 12


def test_clamp_gamma_free_count():
    m = build_mesh(2, 2)
    dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll+ClampGamma")
    assert dm.n_free == 10


def test_full_clamp_kills_boundary_form():
    m = build_mesh(3, 3)
    dm = mark_essential(m, DofMap.unconstrained(m),
                        "DirichletAll+ClampSigma+ClampGamma")
    B = assemble(normal_trace("All"), m, dm).matrix
    assert B.nnz == 0 or abs(B).max() < 1e-15


def test_unknown_bc_token():
    m = build_mesh(2, 2)
    with pytest.raises(ValueError):
        mark_essential(m, DofMap.unconstrained(m), "DirichletAll+ClampTop")


def test_constrained_functions_vanish_on_boundary():
    # value and edge-tangential derivative are zero at random boundary points
    m = build_mesh(4, 3, grading=0.8)
    dm = mark_essential(m, DofMap.unconstrained(m), "DirichletAll")
    rng = np.random.default_rng(0)
    coeffs = np.zeros(dm.n_dofs)
    coeffs[dm.free] = rng.standard_normal(dm.n_free)
    f = FeFunction(m, coeffs)
    t = rng.uniform(0, 1, 100)
    for x, y, tang in [(t, np.zeros_like(t) - 1.0, "x"),
                       (t, np.zeros_like(t), "x"),
                       (np.zeros_like(t), -t, "y"),
                       (np.ones_like(t), -t, "y")]:
        assert np.max(np.abs(f.value(x, y))) < 1e-13
        dtan = f.eval(x, y, 1, 0) if tang == "x" else f.eval(x, y, 0, 1)
        assert np.max(np.abs(dtan)) < 1e-12
