"""Structured tensor-product quadrilateral meshes of the reference strip.

Nodes are laid out column-major: node(ix, iy) = ix * (ny + 1) + iy, which
keeps the matrix bandwidth proportional to ny for the wide, shallow meshes
used here.  Each node carries four Hermite degrees of freedom
(value, d/dx, d/dy, d2/dxdy), DOF 4 node + type, so a DOF vector reshapes to
an (nx + 1, ny + 1, 4) grid.  Boundary edges are tagged Gamma (the top,
y = 0) or Sigma (bottom and lateral sides).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Mesh", "DofMap", "build_mesh", "graded_rows", "mark_essential",
           "DOF_V", "DOF_VX", "DOF_VY", "DOF_VXY"]

DOF_V, DOF_VX, DOF_VY, DOF_VXY = 0, 1, 2, 3


@dataclass(frozen=True)
class Mesh:
    nx: int
    ny: int
    w_len: float
    xs: np.ndarray          # nx+1 column abscissae
    ys: np.ndarray          # ny+1 row ordinates, ys[-1] = 0

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def hx(self, ex) -> float:
        return self.xs[ex + 1] - self.xs[ex]

    def hy(self, ey) -> float:
        return self.ys[ey + 1] - self.ys[ey]


@dataclass(frozen=True)
class DofMap:
    """Global Hermite DOF numbering with essential-constraint marks.

    Global index of (node, type) is 4*node + type.  `constrained` flags the
    essentially fixed DOFs; `free_index` maps global -> free numbering
    (-1 for constrained DOFs).  The map keeps a read-only copy of the mask,
    so `free`, `n_free` and `free_index()` are computed once, on first
    read, and returned read-only.
    """

    n_nodes: int
    constrained: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.array(self.constrained, dtype=bool)
        if mask.shape != (4 * self.n_nodes,):
            raise ValueError("constraint mask has wrong length")
        mask.flags.writeable = False
        object.__setattr__(self, "constrained", mask)

    @property
    def n_dofs(self) -> int:
        return 4 * self.n_nodes

    @cached_property
    def free(self) -> np.ndarray:
        free = np.nonzero(~self.constrained)[0]
        free.flags.writeable = False
        return free

    @cached_property
    def n_free(self) -> int:
        return int(np.count_nonzero(~self.constrained))

    @cached_property
    def _free_index(self) -> np.ndarray:
        idx = -np.ones(self.n_dofs, dtype=np.int64)
        idx[~self.constrained] = np.arange(self.n_free)
        idx.flags.writeable = False
        return idx

    def free_index(self) -> np.ndarray:
        return self._free_index

    @staticmethod
    def unconstrained(mesh: Mesh) -> "DofMap":
        return DofMap(n_nodes=mesh.n_nodes,
                      constrained=np.zeros(4 * mesh.n_nodes, dtype=bool))


def graded_rows(ny: int, grading: float = 1.0) -> np.ndarray:
    """The ny + 1 row ordinates of a mesh of (-1, 0), ys[-1] = 0.

    With grading q < 1 the vertical spacings form a geometric sequence that is
    finest at y = 0: h_j = h_bottom * q**j summing exactly to 1.  A grading
    that leaves an element below 1e-12 high, mostly the ny * 2**-53 rounding
    of the rows' cumulative sum near y = 0, raises ValueError.
    """
    if ny < 1:
        raise ValueError("ny must be >= 1")
    if not (0.0 < grading <= 1.0):
        raise ValueError("grading must lie in (0, 1]")
    if grading == 1.0:
        return np.linspace(-1.0, 0.0, ny + 1)
    q = grading
    h0 = (1.0 - q) / (1.0 - q ** ny)
    ys = -1.0 + np.concatenate([[0.0], np.cumsum(h0 * q ** np.arange(ny))])
    ys[-1] = 0.0
    if (h_min := np.diff(ys).min()) < 1e-12:
        raise ValueError(f"grading {q:g} leaves an element of height "
                         f"{h_min:.3g} at ny = {ny}")
    return ys


def build_mesh(nx: int, ny: int, grading: float = 1.0, w_len: float = 1.0) -> Mesh:
    """Tensor mesh of (0, w_len) x (-1, 0) on the rows of `graded_rows`."""
    if nx < 1:
        raise ValueError("nx must be >= 1")
    return Mesh(nx=nx, ny=ny, w_len=float(w_len),
                xs=np.linspace(0.0, w_len, nx + 1), ys=graded_rows(ny, grading))


def mark_essential(mesh: Mesh, bc: str) -> DofMap:
    """Essential constraints for the bicubic Hermite space.

    DirichletAll pins u = 0 on the whole boundary: every boundary node loses
    the value DOF plus the tangential-derivative DOF of each incident edge;
    corners lose both first derivatives and the mixed DOF.  ClampGamma /
    ClampSigma additionally pin the normal derivative (and the mixed DOF) on
    the tagged part, producing the clamped trace u_nu = 0 there.
    """
    tokens = [t.strip() for t in bc.split("+") if t.strip()]
    bad = sorted(set(tokens) - {"DirichletAll", "ClampGamma", "ClampSigma"})
    if bad:
        raise ValueError(f"unknown boundary condition tokens {bad}")
    if "DirichletAll" not in tokens:
        raise ValueError("essential constraints must include DirichletAll")
    # on the DOF grid a step of nx (ny) picks the left and right sides (the
    # bottom and the top)
    c = np.zeros((mesh.nx + 1, mesh.ny + 1, 4), dtype=bool)
    sides, ends = slice(None, None, mesh.nx), slice(None, None, mesh.ny)
    c[:, ends, [DOF_V, DOF_VX]] = True
    c[sides, :, [DOF_V, DOF_VY]] = True
    c[sides, ends, DOF_VXY] = True
    if "ClampGamma" in tokens:
        c[:, -1, [DOF_VY, DOF_VXY]] = True
    if "ClampSigma" in tokens:
        c[:, 0, [DOF_VY, DOF_VXY]] = True
        c[sides, :, [DOF_VX, DOF_VXY]] = True
    return DofMap(n_nodes=mesh.n_nodes, constrained=c.reshape(-1))
