import numpy as np
import pytest

from steklov_lab.assembly import FeFunction, assemble, normal_trace
from steklov_lab.mesh import (DOF_V, DOF_VX, DOF_VXY, DOF_VY, DofMap, build_mesh,
                              mark_essential)
from steklov_lab.navier import boundary_trace_dofs


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
    # the top spacing, 1.7e-22, is below the rounding of the spacings' sum
    # near y = 0, so the top element's height comes out -4.4e-16
    with pytest.raises(ValueError, match="element of height"):
        build_mesh(4, 32, grading=0.2)
    # a top element 1.1e-16 high is mostly the rounding of that sum
    with pytest.raises(ValueError, match="element of height"):
        build_mesh(4, 32, grading=0.3)


def test_dirichlet_all_free_count():
    m = build_mesh(2, 2)
    dm = mark_essential(m, "DirichletAll")
    # interior node keeps 4, edge non-corners keep 2, corners keep none
    assert dm.n_free == 12


def test_clamp_gamma_free_count():
    m = build_mesh(2, 2)
    dm = mark_essential(m, "DirichletAll+ClampGamma")
    assert dm.n_free == 10


def test_full_clamp_kills_boundary_form():
    m = build_mesh(3, 3)
    dm = mark_essential(m, "DirichletAll+ClampSigma+ClampGamma")
    B = assemble(normal_trace("All"), m, dm).matrix
    assert B.nnz == 0 or abs(B).max() < 1e-15


def _mask_by_node_loops(m, bc):
    """The constraint mask of `bc`, node by node."""
    c = np.zeros(4 * m.n_nodes, dtype=bool)
    for ix in range(m.nx + 1):
        for iy in range(m.ny + 1):
            side, end = ix in (0, m.nx), iy in (0, m.ny)
            pinned = set()
            if side or end:
                pinned.add(DOF_V)
            if end:                                  # bottom or top edge
                pinned.add(DOF_VX)
            if side:                                 # left or right edge
                pinned.add(DOF_VY)
            if side and end:
                pinned.add(DOF_VXY)
            if "ClampGamma" in bc and iy == m.ny:
                pinned |= {DOF_VY, DOF_VXY}
            if "ClampSigma" in bc and iy == 0:
                pinned |= {DOF_VY, DOF_VXY}
            if "ClampSigma" in bc and side:
                pinned |= {DOF_VX, DOF_VXY}
            for t in pinned:
                c[4 * (ix * (m.ny + 1) + iy) + t] = True
    return c


# Free DOFs.  DirichletAll: an interior node keeps 4, a non-corner node on a
# bottom/top edge keeps its y-slope and mixed DOF, one on a left/right edge
# its x-slope and mixed DOF, a corner none; ClampGamma takes the 2 of each
# non-corner top node, ClampSigma those of the other non-corner boundary
# nodes.
#   5x3: 8 interior, 4 + 4 bottom/top, 2 + 2 left/right
#        DirichletAll 32 + 16 + 8 = 56, +ClampGamma 56 - 8 = 48,
#        +ClampSigma 56 - 8 - 8 = 40, all three 56 - 24 = 32
#   3x5: 8 interior, 2 + 2 bottom/top, 4 + 4 left/right
#        DirichletAll 32 + 8 + 16 = 56, +ClampGamma 56 - 4 = 52,
#        +ClampSigma 56 - 4 - 16 = 36, all three 56 - 24 = 32
@pytest.mark.parametrize("nx, ny, counts", [
    (5, 3, (56, 48, 40, 32)),
    (3, 5, (56, 52, 36, 32)),
])
def test_dof_maps_on_non_square_meshes(nx, ny, counts):
    m = build_mesh(nx, ny, grading=0.7)
    bcs = ("DirichletAll", "DirichletAll+ClampGamma", "DirichletAll+ClampSigma",
           "DirichletAll+ClampSigma+ClampGamma")
    for bc, n_free in zip(bcs, counts):
        dm = mark_essential(m, bc)
        assert dm.n_free == n_free
        assert np.array_equal(dm.constrained, _mask_by_node_loops(m, bc))
    # the boundary trace: DirichletAll's pins less the corners' mixed DOFs
    trace = _mask_by_node_loops(m, "DirichletAll")
    for ix in (0, nx):
        for iy in (0, ny):
            trace[4 * (ix * (ny + 1) + iy) + DOF_VXY] = False
    assert np.array_equal(boundary_trace_dofs(m), np.flatnonzero(trace))
    # every boundary node's value, every bottom/top node's x-slope and every
    # left/right node's y-slope: 16 + 2 (nx + 1) + 2 (ny + 1)
    assert boundary_trace_dofs(m).size == 16 + 2 * (nx + 1) + 2 * (ny + 1)


def test_unknown_bc_token():
    m = build_mesh(2, 2)
    with pytest.raises(ValueError):
        mark_essential(m, "DirichletAll+ClampTop")


def test_constrained_functions_vanish_on_boundary():
    # value and edge-tangential derivative are zero at random boundary points
    m = build_mesh(4, 3, grading=0.8)
    dm = mark_essential(m, "DirichletAll")
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
