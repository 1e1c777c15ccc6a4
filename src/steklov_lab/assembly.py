"""Bicubic Hermite (C1) rectangles and assembly of all bilinear forms.

Every form can be assembled on the flat reference strip or on the perturbed
domain; in the latter case the integrals over Omega_eps are pulled back to the
reference mesh through the flattening diffeomorphism Phi, so the perturbed
domain is never meshed.  For u = u_hat o Phi the chain rule gives, with
a = h_x, b = h_y evaluated at the physical point,

    u_x  = u_hat_x - a u_hat_y
    u_y  = (1 - b) u_hat_y
    u_xx = u_hat_xx - 2a u_hat_xy + a^2 u_hat_yy - h_xx u_hat_y
    u_xy = (1-b)(u_hat_xy - a u_hat_yy) - h_xy u_hat_y
    u_yy = (1-b)^2 u_hat_yy - h_yy u_hat_y

and the volume element is dx = det(DPhi)^{-1} dx_hat.  On the oscillating
graph the surface element is sqrt(1 + g'^2) dx' and the outward normal is
(-g', 1)/sqrt(1 + g'^2).  Volume and boundary integrals take this chain rule
through one pull-back, `_pull_back`, at the points of one `CellPullBack` per
cell, its volume and its edges, which every pass over the cell reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, DofMap
from .profile_geometry import DiffeoField, GeometryError

__all__ = [
    "FormKind", "MASS", "GRAD_MASS", "LAPLACIAN_ENERGY", "HESSIAN_ENERGY",
    "MIXED_U_DELTA", "normal_trace", "boundary_mass",
    "FeSystem", "FeFunction", "CellPullBack", "assemble",
    "assemble_navier_load", "sobolev_forms", "gauss01",
]


# ---------------------------------------------------------------------------
# quadrature and shape functions

def gauss01(n: int):
    """Gauss-Legendre points/weights on [0, 1]."""
    p, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (p + 1.0), 0.5 * w


def hermite1d(t: np.ndarray, h: float | np.ndarray, deriv: int) -> np.ndarray:
    """Cubic Hermite basis on an interval of length h at normalized points t;
    h is one length or one per point.

    Rows: value-left, slope-left, value-right, slope-right.  Slope functions
    carry the factor h so that the associated DOF is the physical derivative;
    `deriv` differentiates with respect to the physical coordinate.
    """
    t = np.asarray(t, dtype=float)
    if deriv == 0:
        return np.vstack([
            1.0 - 3.0 * t ** 2 + 2.0 * t ** 3,
            h * (t - 2.0 * t ** 2 + t ** 3),
            3.0 * t ** 2 - 2.0 * t ** 3,
            h * (-t ** 2 + t ** 3),
        ])
    if deriv == 1:
        return np.vstack([
            (-6.0 * t + 6.0 * t ** 2) / h,
            1.0 - 4.0 * t + 3.0 * t ** 2,
            (6.0 * t - 6.0 * t ** 2) / h,
            -2.0 * t + 3.0 * t ** 2,
        ])
    if deriv == 2:
        return np.vstack([
            (-6.0 + 12.0 * t) / h ** 2,
            (-4.0 + 6.0 * t) / h,
            (6.0 - 12.0 * t) / h ** 2,
            (-2.0 + 6.0 * t) / h,
        ])
    raise ValueError(f"unsupported derivative order {deriv}")


# local DOF l = 4*node + type; nodes (bl, br, tr, tl); types (v, vx, vy, vxy)
_NODE_SIDES = ((0, 0), (1, 0), (1, 1), (0, 1))
_TYPE_SLOPES = ((0, 0), (1, 0), (0, 1), (1, 1))


# 1D Hermite rows (in x and in y) of local DOF l = 4*node + type
_X_ROWS = [2 * a + sx for a, _ in _NODE_SIDES for sx, _ in _TYPE_SLOPES]
_Y_ROWS = [2 * b + sy for _, b in _NODE_SIDES for _, sy in _TYPE_SLOPES]


def _x_factors(tx, hx):
    """x-factors (nqx, 16) of the tensor basis, per x-derivative order.  They
    depend on the element width only, so a pass computes them once."""
    return [hermite1d(tx, hx, d)[_X_ROWS].T for d in range(3)]


def _y_factors(ty, hy):
    """y-factors (rows, nqy, 16) of the tensor basis, per y-derivative order,
    for the element heights hy, one per row.  Each row's comes from its own
    `hermite1d` call, so it has the bits of a pass over that row alone."""
    return [np.stack([hermite1d(ty, h, d)[_Y_ROWS].T for h in hy])
            for d in range(3)]


def _tensor_basis(X, Y):
    """(rows, nqx * nqy, 16) array of local basis derivatives at the tensor
    Gauss points, point index ix * nqy + iy, from an x-factor of
    `_x_factors` and a y-factor of `_y_factors`.  It is C-contiguous: the
    contraction's summation order, and so the rounding of every assembled
    form, follows the layout."""
    return np.multiply(X[None, :, None, :], Y[:, None, :, :],
                       order="C").reshape(len(Y), -1, 16)


# ---------------------------------------------------------------------------
# form kinds

@dataclass(frozen=True)
class FormKind:
    """A bilinear form.  A volume form is the sum of factor * int P Q over its
    `terms` (P, Q, factor), where P and Q are sums of the physical derivative
    fields named by their tags; a boundary form has no terms."""

    name: str
    part: str | None = None
    terms: tuple = ()

    @property
    def symmetric(self) -> bool:
        return all(P == Q for P, Q, _ in self.terms)

    @property
    def on_boundary(self) -> bool:
        return not self.terms

    @property
    def tags(self) -> frozenset:
        """The physical derivative fields that a pass over the form reads."""
        return frozenset(tag for P, Q, _ in self.terms for tag in P + Q)

    def __str__(self):
        return self.name if self.part is None else f"{self.name}({self.part})"


_LAP = ("xx", "yy")
MASS = FormKind("Mass", terms=((("v",), ("v",), 1.0),))
GRAD_MASS = FormKind("GradMass", terms=((("x",), ("x",), 1.0),
                                        (("y",), ("y",), 1.0)))
LAPLACIAN_ENERGY = FormKind("LaplacianEnergy", terms=((_LAP, _LAP, 1.0),))
HESSIAN_ENERGY = FormKind("HessianEnergy", terms=((("xx",), ("xx",), 1.0),
                                                  (("xy",), ("xy",), 2.0),
                                                  (("yy",), ("yy",), 1.0)))
MIXED_U_DELTA = FormKind("MixedUDelta", terms=((("v",), _LAP, 1.0),))


def normal_trace(part: str = "All") -> FormKind:
    if part not in ("Gamma", "All"):
        raise ValueError("NormalTrace part must be 'Gamma' or 'All'")
    return FormKind("NormalTrace", part)


def boundary_mass(part: str = "All") -> FormKind:
    if part not in ("Gamma", "All"):
        raise ValueError("BoundaryMass part must be 'Gamma' or 'All'")
    return FormKind("BoundaryMass", part)


@dataclass
class FeSystem:
    """One bilinear form over the free DOFs of `dofmap`.  A volume form keeps
    its node-pair blocks (see `_add_rows`), a boundary form its quadrature
    factor, B = C C^T.  `matrix` builds the form's CSR matrix on each read
    and keeps none; the other readers read a volume form's blocks."""

    mesh: Mesh
    dofmap: DofMap
    kind: FormKind
    domain: DiffeoField | None
    blocks: np.ndarray | None = None
    factor: sp.csr_matrix | None = None

    @property
    def n_free(self) -> int:
        return self.dofmap.n_free

    @property
    def shape(self) -> tuple:
        return (self.n_free,) * 2

    @property
    def matrix(self) -> sp.csr_matrix:
        if self.blocks is None:
            return (self.factor @ self.factor.T).sorted_indices()
        return _blocks_tocsr(self.blocks, self.dofmap)

    def diagonal(self) -> np.ndarray:
        d = self.blocks[:, :, :, 1, 1, :].diagonal(axis1=2, axis2=3)
        return d.reshape(-1)[self.dofmap.free]

    def half_bandwidth(self) -> int:
        """The largest col - row of a stored entry, from the index alone."""
        rows, pad = _neighbours(self.dofmap, *self.blocks.shape[:2])
        lo = np.where(rows >= 0, rows, self.n_free).min(axis=(2, 3, 4, 5))
        return int((_window(pad).max(axis=(2, 3, 4, 5)) - lo).max(initial=0))

    def entries(self):
        """Yield the blocks' entries as (row, col, value) arrays that
        broadcast, a chunk per slab of node columns and neighbour column
        dx.  A row off the free DOFs reads n_free and a column -1, so
        col >= row picks the stored entries on and above the diagonal."""
        S = self.blocks
        rows, pad = _neighbours(self.dofmap, *S.shape[:2])
        cols = _window(pad)
        for i0 in range(0, len(S), _SLAB):
            r = rows[i0:i0 + _SLAB, :, :, 0]
            r = np.where(r >= 0, r, self.n_free)
            for dx in range(3):
                yield (r, cols[i0:i0 + _SLAB, :, :, dx],
                       S[i0:i0 + _SLAB, :, :, dx])

    def __matmul__(self, x):
        """A x for x of shape (n,) or (n, k), with the bits of `matrix @ x`.
        x and a 0.0 that index -1 reads are gathered onto the padded index
        grid; each row adds its `_window`'s 36 terms to 0.0 in the CSR's
        column order, and goes to its free index (a constrained row to the
        dropped slot -1).  A term that the CSR does not store multiplies
        that 0.0 and leaves the sum's bits."""
        if self.blocks is None:
            return self.matrix @ x
        S = self.blocks
        nxp, nyp = S.shape[:2]
        rows, pad = _neighbours(self.dofmap, nxp, nyp)
        X = np.atleast_2d(np.asarray(x, dtype=float).T)
        win = _window(np.take(np.pad(X, ((0, 0), (0, 1))), pad, axis=1))
        y = np.empty((len(X), X.shape[1] + 1))
        for i0 in range(0, nxp, _SLAB):
            s = S[i0:i0 + _SLAB].reshape(-1, nyp, 4, 36)
            for w, yj in zip(win, y):
                p = s * w[i0:i0 + _SLAB].reshape(-1, nyp, 1, 36)
                out = np.zeros(p.shape[:-1])
                for t in range(36):
                    out += p[..., t]
                yj[rows[i0:i0 + _SLAB, :, :, 0, 0, 0]] = out
        return y[:, :-1].T.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# scatter helpers

_SLAB = 32      # node columns per slab of a pass over node-pair blocks


def _elem_gdofs(mesh: Mesh, ex, ey) -> np.ndarray:
    """(nel, 16) global DOF indices of the elements (ex, ey), a row or a
    column of elements: one of ex and ey is an array."""
    nyp = mesh.ny + 1
    n0 = ex * nyp + ey
    nodes = np.stack([n0, n0 + nyp, n0 + nyp + 1, n0 + 1], axis=1)  # bl br tr tl
    return (4 * nodes[:, :, None] + np.arange(4)[None, None, :]).reshape(-1, 16)


def _add_rows(S, ey, local):
    """Add local matrices (rows, rep, 16, 16) to the element rows ey, ey + 1,
    ... of the node-pair blocks S, element ex of a row getting its
    local[ex % rep].  S[ix, iy, :, dx + 1, dy + 1, :] couples node (ix, iy)
    to node (ix + dx, iy + dy), so S lists each DOF row in CSR order.  Every
    entry is the sum of two rows' sums of at most two elements, each local
    node adding its four node pairs through one strided slice: (0 + the
    upper half of the row below) + the lower half of its own row.  So the
    calls go in ey order, every row's upper half adds straight into its node
    row of S, still 0, and then every row's lower half, summed first in a
    temporary, adds to S.  An entry and its transpose add the same terms in
    the same order (0 + a + b within a row, which commutes, and the rows in
    ey order), so exactly symmetric local matrices give an exactly symmetric
    S; every edit must keep that."""
    nx, (nr, rep) = S.shape[0] - 1, local.shape[:2]
    # local[n, ..., c, d, :] couples local node n to the node at sides (c, d),
    # with the rep axis before the rows, as in the targets
    local = local.reshape(nr, rep, 4, 4, 4, 4)[..., [[0, 3], [1, 2]], :]
    local = np.moveaxis(local, 2, 0).swapaxes(1, 2)
    lower = np.zeros((nx + 1, nr) + S.shape[2:])
    for n, (a, b) in enumerate(_NODE_SIDES):
        tgt = S[:, ey + 1:ey + nr + 1] if b else lower
        tgt = tgt[a:a + nx, :, :, 1 - a:3 - a, 1 - b:3 - b, :]
        tgt = tgt.reshape(nx // rep, rep, nr, 4, 2, 2, 4)
        tgt += local[n]
    S[:, ey:ey + nr] += lower


def _window(grid):
    """Each node's 3 x 3 neighbour window, (..., nxp, nyp, 1, 3, 3, 4) with
    (dx, dy, type) last, as a strided view of a node grid (..., nxp + 2,
    nyp + 2, 4) padded by one node; it broadcasts against the blocks S."""
    win = np.lib.stride_tricks.sliding_window_view(grid, (3, 3), (-3, -2))
    return np.moveaxis(win, -3, -1)[..., None, :, :, :]


def _neighbours(dofmap: DofMap, nxp: int, nyp: int):
    """The free index of each node's DOFs, (nxp, nyp, 4, 1, 1, 1), and its
    grid padded by one node, whose `_window` indexes the columns of S; -1
    off the mesh or at a constrained DOF."""
    idx = dofmap.free_index().reshape(nxp, nyp, 4)
    pad = np.pad(idx, ((1, 1), (1, 1), (0, 0)), constant_values=-1)
    return idx[..., None, None, None], pad


def _blocks_tocsr(S, dofmap: DofMap) -> sp.csr_matrix:
    """The canonical int32 CSR matrix of the node-pair blocks S over the free
    DOFs: every free DOF pair in an element, explicit zeros included."""
    rows, pad = _neighbours(dofmap, *S.shape[:2])
    cols = np.broadcast_to(_window(pad.astype(np.int32)), S.shape)
    pattern = (rows >= 0) & (cols >= 0)
    row_nnz = pattern.reshape(-1, 36).sum(axis=1)[rows.reshape(-1) >= 0]
    indptr = np.r_[0, np.cumsum(row_nnz)].astype(np.int32)
    A = sp.csr_matrix((S[pattern], cols[pattern], indptr),
                      shape=(dofmap.n_free,) * 2)
    A.has_canonical_format = True
    return A


_LOAD_TAGS = ("x", "y", "xx", "yy")


def _gram(P, Q, w):
    """sum_q P[..., e, q, i] w[..., e, q] Q[..., e, q, j], as (..., nel, 16,
    16).  These are the multiply and matmul that numpy 2.4's
    einsum("eqi,eqj,eq->eij", optimize=True) runs on each (nel, nq, 16)
    slice, so the bits are einsum's, without its path search on every call."""
    return np.matmul(np.swapaxes(P * w[..., None], -1, -2), Q)


def _weigh(f, P, w):
    """sum_q f[..., e, q] w[..., e, q] P[..., e, q, i], as (..., nel, 16),
    with P (..., rep, nq, 16) and w (..., rep, nq) repeated over f's nel
    elements: the multiply and matmul of einsum("eq,eqi,eq->ei",
    optimize=True) on each slice's repeated arrays."""
    fw = f.reshape(f.shape[:-2] + (-1,) + w.shape[-2:]) * w[..., None, :, :]
    out = np.matmul(fw[..., None, :], P[..., None, :, :, :])[..., 0, :]
    return out.reshape(f.shape[:-1] + (16,))


def _field(B, tags):
    """The sum of the basis arrays B[tag] over `tags`, added in their order;
    one tag gives B[tag] itself."""
    f = B[tags[0]]
    for tag in tags[1:]:
        f = f + B[tag]
    return f


def _combine(kind: FormKind, B, w):
    """Local matrices (..., nel, 16, 16) of a volume form from the physical
    derivative basis arrays B (..., nel, nq, 16) and weights w (..., nel,
    nq)."""
    if kind.on_boundary:
        raise ValueError(f"{kind} is not a volume form")
    terms = (factor * _gram(_field(B, P), _field(B, Q), w)
             for P, Q, factor in kind.terms)
    m = next(terms)
    for term in terms:
        m += term
    return m


def _quad_order(domain: DiffeoField | None, quad_order: int | None) -> int:
    """Gauss points per direction: 4 on the flat strip and 6 pulled back by
    default, and at least that many."""
    if quad_order is None:
        quad_order = 4 if domain is None else 6
    if quad_order < 4:
        raise ValueError("quadrature order must be >= 4")
    if domain is not None and quad_order < 6:
        raise ValueError("pulled-back assembly needs quadrature order >= 6")
    return quad_order


def _resolution_warning(mesh: Mesh, domain: DiffeoField | None):
    if domain is None:
        return
    spec = domain.spec
    if not spec.profile.nonconstant:
        return
    per_period = spec.epsilon / (mesh.w_len / mesh.nx)
    want = spec.elements_per_period()
    if per_period < want - 1e-9:
        warnings.warn(
            f"only {per_period:.2f} elements per oscillation period (want >= "
            f"{want} for graph slope {spec.sup_g(1):.3g})", stacklevel=3)


def _pull_points(domain: DiffeoField, x, yref):
    """Physical ordinates y, shaped as yref, and det DPhi (rows, points) at
    reference points (x, yref), (rows, ...) each, each row one layer-map
    inversion."""
    x, yr = x.reshape(len(yref), -1), yref.reshape(len(yref), -1)
    y = domain.physical_y(x, yr)
    det = domain.det(x, y)
    if np.min(det) <= 0.0:
        raise GeometryError("det DPhi <= 0 at a quadrature point")
    return y.reshape(yref.shape), det


# derivative tag -> (x order, y order) of the basis arrays
_DERIVS = {"v": (0, 0), "x": (1, 0), "y": (0, 1),
           "xx": (2, 0), "xy": (1, 1), "yy": (0, 2)}


def _pull_back(tags, X, Y, domain, x, y):
    """The one reference -> physical pull-back of every integral's basis.

    Maps each derivative tag in `tags` to the physical-derivative basis
    array (rows, nel, npts, 16) of the tensor points of element rows, from
    the factors X = `_x_factors` and Y = `_y_factors` (one per row) of the
    reference basis, through the chain rule at the physical points (x, y)
    (rows, nel, npts) of `domain`, x broadcasting against y; on the flat
    strip, domain None, it is the reference basis, with nel = 1.  Each
    reference basis array is built the first time the chain rule reads it.
    """
    ref = {}

    def r(tag):
        if tag not in ref:
            dx, dy = _DERIVS[tag]
            ref[tag] = _tensor_basis(X[dx], Y[dy])[:, None]
        return ref[tag]
    if domain is None:
        return {tag: r(tag) for tag in tags}
    a, b, hxx, hxy, hyy = (arr[..., None]
                           for arr in domain.h_derivs(x, y)[1:])
    rule = {
        "v": lambda: np.broadcast_to(r("v"), a.shape[:-1] + (16,)),
        "x": lambda: r("x") - a * r("y"),
        "y": lambda: (1.0 - b) * r("y"),
        "xx": lambda: (r("xx") - 2.0 * a * r("xy") + a ** 2 * r("yy")
                       - hxx * r("y")),
        "xy": lambda: (1.0 - b) * (r("xy") - a * r("yy")) - hxy * r("y"),
        "yy": lambda: (1.0 - b) ** 2 * r("yy") - hyy * r("y"),
    }
    return {tag: rule[tag]() for tag in tags}


def _period_elements(mesh: Mesh, domain: DiffeoField | None) -> int:
    """Elements per period of g_eps if the x-mesh tiles whole periods, else nx."""
    periods = 0 if domain is None else round(mesh.w_len / domain.spec.epsilon)
    tiles = periods and mesh.nx % periods == 0 and abs(
        periods * domain.spec.epsilon - mesh.w_len) <= 1e-9 * mesh.w_len
    return mesh.nx // periods if tiles else mesh.nx


# bytes of the temporaries of one chunk of element rows in a pass over a
# cell (a row may exceed it alone), as `_SLAB` bounds the block readers
_CHUNK_BYTES = 4 << 20


class CellPullBack:
    """One cell's quadrature, pulled back once for every pass over it: the
    volume that `basis` reads and the boundary edges that `edges` reads.

    The layer map depends on x only through the eps-periodic g_eps, so each
    element row is pulled back on one period, its first rep =
    `_period_elements` elements (1 on the flat strip), and element ex has
    the data of element ex % rep.  The first volume read inverts the layer
    map on all ny rows at once, a Newton row per element row.  The cell
    keeps the Gauss rule, y and w (ny, rep, nq*nq), w with 1/det DPhi, one
    period's abscissae and the basis factors, but no chain-rule array and no
    g_eps, so that it stays small across a factorization.
    `assemble` and the other passes read a cell given to them, or their own.
    """

    def __init__(self, mesh: Mesh, domain: DiffeoField | None = None,
                 quad_order: int | None = None):
        self.mesh, self.domain = mesh, domain
        self.quad_order = _quad_order(domain, quad_order)
        self.tq, self.wq = gauss01(self.quad_order)
        self.hx = mesh.w_len / mesh.nx
        self.rep = 1 if domain is None else _period_elements(mesh, domain)
        self._X = _x_factors(self.tq, self.hx)

    @cached_property
    def _Y(self):
        return _y_factors(self.tq, np.diff(self.mesh.ys))

    @cached_property
    def _volume(self):
        """(y, w, x): y and w, and one period's abscissae x (rep, nq*nq),
        None on the flat strip."""
        mesh, domain, nq = self.mesh, self.domain, self.quad_order
        hy = np.diff(mesh.ys)
        yq = mesh.ys[:-1, None] + hy[:, None] * self.tq              # (ny, nq)
        y = np.tile(yq, nq)[:, None, :]                       # (ny, 1, nq*nq)
        w = (self.wq * self.hx)[:, None] * (self.wq * hy[:, None])[:, None, :]
        w = w.reshape(mesh.ny, 1, -1)
        if domain is None:
            return y, w, None
        x = np.repeat(self.xq[:self.rep], nq, axis=1)
        shape, flat = (mesh.ny, self.rep, nq * nq), (mesh.ny, x.size)
        y, det = _pull_points(domain, np.broadcast_to(x.reshape(1, -1), flat),
                              np.broadcast_to(y, shape))
        return y, w / det.reshape(shape), x

    # abscissae xq (nx, nq) and x (nx, nq*nq), y, w, basis bytes per row
    xq = property(lambda self: self.mesh.xs[:-1, None] + self.hx * self.tq)
    x = property(lambda self: np.repeat(self.xq, self.quad_order, axis=1))
    y = property(lambda self: self._volume[0])
    w = property(lambda self: self._volume[1])
    basis_bytes = property(lambda self: self.w[0].nbytes * 16)

    def chunks(self, row_bytes: int):
        """Slices of consecutive element rows, in ey order, whose temporaries
        of row_bytes each stay within _CHUNK_BYTES (at least one row)."""
        step = max(1, _CHUNK_BYTES // max(row_bytes, 1))
        return (slice(e, min(e + step, self.mesh.ny))
                for e in range(0, self.mesh.ny, step))

    def basis(self, tags, rows: slice) -> dict:
        """`_pull_back` of `tags` on the element rows `rows`: each tag's
        basis arrays (rows, rep, nq*nq, 16)."""
        y, _, x = self._volume
        return _pull_back(tags, self._X, [Y[rows] for Y in self._Y],
                          self.domain, x, y[rows])

    def _edge(self, comps, X, Y, x, yref):
        """Trace rows (rows * nel, npts, 16), the sum of c times the basis
        array of tag over comps {tag: c}, and det DPhi (rows, npts), at
        reference points x, yref (rows, nel, npts), a Newton row per row,
        from basis factors X and Y with a row each."""
        y, det = None, 1.0
        if self.domain is not None:
            y, det = _pull_points(self.domain, x, yref)
        B = _pull_back(tuple(comps), X, Y, self.domain, x, y)
        P = reduce(np.add, (c * B[tag] for tag, c in comps.items()))
        P = np.broadcast_to(P, x.shape + (16,))
        return P.reshape(-1, x.shape[-1], 16), det

    def edges(self, kind: FormKind):
        """Yield (P, w, gdofs) per boundary edge of `kind`, the top first:
        trace rows P (nel, nq, 16), weights w (nel, nq) and the element DOF
        indices.  Each edge inverts the layer map at its own points, a
        Newton row per element row on the sides.  A normal maps derivative
        tags to its nonzero components, so no zero term enters the sum; the
        forms square the normal derivative, so its sign is free."""
        mesh, xq, hy = self.mesh, self.xq, np.diff(self.mesh.ys)
        trace, value = kind.name == "NormalTrace", {"v": 1.0}
        # top, the graph y = g_eps(x) at y_hat = 0: normal (-g', 1) and
        # dS = sqrt(1 + g'^2) dx, so the trace carries 1/sqrt(1 + g'^2);
        # bottom, y = -1 below the layer: normal (0, 1), dS = dx
        w = np.tile(self.wq * self.hx, (mesh.nx, 1))                # (nx, nq)
        normal, w_top = {"y": 1.0}, w
        if self.domain is not None:
            gp = self.domain.spec.g(xq, 1)
            normal = {"x": -gp[:, :, None], "y": 1.0}
            s = np.sqrt(1.0 + gp ** 2)
            w_top = w / s if trace else w * s
        for t, ey, y_edge, nrm, wt in ((1.0, mesh.ny - 1, 0.0, normal, w_top),
                                       (0.0, 0, mesh.ys[0], {"y": 1.0}, w)):
            P, _ = self._edge(nrm if trace else value, self._X,
                              _y_factors(np.array([t]), hy[ey:ey + 1]),
                              xq[None], np.full((1,) + xq.shape, y_edge))
            yield P, wt, _elem_gdofs(mesh, np.arange(mesh.nx), ey)
            if kind.part == "Gamma":
                return
        # sides x = 0 and x = w_len, the element rows of each at once:
        # normal (-+1, 0), dS = dy_hat / det DPhi
        yq = (mesh.ys[:-1, None] + hy[:, None] * self.tq)[:, None, :]
        for ex, t, x_edge in ((0, 0.0, 0.0), (mesh.nx - 1, 1.0, mesh.w_len)):
            P, det = self._edge({"x": 2.0 * t - 1.0} if trace else value,
                                _x_factors(np.array([t]), self.hx), self._Y,
                                np.full_like(yq, x_edge), yq)
            yield P, (self.wq * hy[:, None]) / det, _elem_gdofs(
                mesh, ex, np.arange(mesh.ny))


def _cell(mesh: Mesh, domain: DiffeoField | None, quad_order: int | None,
          cell: CellPullBack | None) -> CellPullBack:
    """`cell` if given, after checking that it is this (mesh, domain,
    quad_order)'s; else a new one."""
    if cell is None:
        return CellPullBack(mesh, domain, quad_order)
    if (cell.mesh is not mesh or cell.domain is not domain
            or cell.quad_order != _quad_order(domain, quad_order)):
        raise ValueError("the pull-back is of another cell")
    return cell


def assemble_boundary_factor(kind: FormKind, mesh: Mesh, dofmap: DofMap,
                             domain: DiffeoField | None = None,
                             quad_order: int | None = None,
                             cell: CellPullBack | None = None) -> sp.csr_matrix:
    """Quadrature factor C of a boundary form, B = C C^T in free numbering,
    from the edges of `cell` (as in `assemble`).  Columns correspond to
    boundary quadrature points, so the form's value at a free vector u is
    ||C^T u||^2, a sum of squares that needs no n x n matrix."""
    if not kind.on_boundary:
        raise ValueError("factored assembly is for boundary forms")
    parts, col0 = [], 0
    for P, w, gdofs in _cell(mesh, domain, quad_order, cell).edges(kind):
        entries = P * np.sqrt(w)[:, :, None]          # (nel, nq, 16)
        c = col0 + np.arange(w.size).reshape(w.shape + (1,))
        r, c = np.broadcast_arrays(dofmap.free_index()[gdofs][:, None], c)
        keep = r >= 0
        parts.append((entries[keep], r[keep], c[keep]))
        col0 += w.size
    # joined as temporaries: the int64 indices go once C has its own
    vals, rows, cols = zip(*parts)
    C = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                       np.concatenate(cols))), (dofmap.n_free, col0))
    return C.tocsr()


def assemble(kind: FormKind, mesh: Mesh, dofmap: DofMap,
             domain: DiffeoField | None = None,
             quad_order: int | None = None,
             cell: CellPullBack | None = None) -> FeSystem:
    """Assemble one bilinear form over the free DOFs of `dofmap`.

    `domain=None` integrates over the flat reference strip; a DiffeoField pulls
    the form back from the perturbed domain it describes.  A volume form is
    summed in one pass over the rows of `cell`, the (mesh, domain)'s
    `CellPullBack` (built here if not given), into node-pair blocks, from
    local matrices made symmetric if the form is, and its FeSystem keeps the
    blocks.  A boundary form is C C^T, C = `assemble_boundary_factor`, so it
    is exactly symmetric; its FeSystem keeps C as `factor`, which the
    Steklov solves read.
    """
    cell = _cell(mesh, domain, quad_order, cell)
    _resolution_warning(mesh, domain)
    if kind.on_boundary:
        return FeSystem(mesh, dofmap, kind, domain, factor=(
            assemble_boundary_factor(kind, mesh, dofmap, domain, quad_order,
                                     cell)))
    S = np.zeros((mesh.nx + 1, mesh.ny + 1, 4, 3, 3, 4))
    # per row: the lower halves' sums and a few basis arrays
    for rows in cell.chunks(S[:, 0].nbytes + 4 * cell.basis_bytes):
        m = _combine(kind, cell.basis(kind.tags, rows), cell.w[rows])
        _add_rows(S, rows.start,
                  0.5 * (m + m.swapaxes(-1, -2)) if kind.symmetric else m)
    return FeSystem(mesh, dofmap, kind, domain, blocks=S)


# ---------------------------------------------------------------------------
# discrete functions

@dataclass
class FeFunction:
    """Bicubic Hermite function given by its full coefficient vector."""

    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (4 * self.mesh.n_nodes,):
            raise ValueError("coefficient vector has wrong length")

    @staticmethod
    def from_free_vector(dofmap: DofMap, mesh: Mesh, vec) -> "FeFunction":
        full = np.zeros(dofmap.n_dofs)
        full[dofmap.free] = np.asarray(vec, dtype=float)
        return FeFunction(mesh=mesh, coeffs=full)

    def eval(self, x, y, dx_order: int = 0, dy_order: int = 0):
        """Evaluate a mixed derivative; points slightly outside the mesh are
        handled by polynomial extension of the nearest element."""
        x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                                   np.atleast_1d(np.asarray(y, dtype=float)))
        mesh, xf, yf = self.mesh, x.ravel(), y.ravel()
        ix = np.clip(np.searchsorted(mesh.xs, xf, side="right") - 1, 0, mesh.nx - 1)
        iy = np.clip(np.searchsorted(mesh.ys, yf, side="right") - 1, 0, mesh.ny - 1)
        hx, hy = mesh.w_len / mesh.nx, np.diff(mesh.ys)[iy]
        X = hermite1d((xf - mesh.xs[ix]) / hx, hx, dx_order)[_X_ROWS]  # (16, npts)
        Y = hermite1d((yf - mesh.ys[iy]) / hy, hy, dy_order)[_Y_ROWS]
        out = np.zeros(xf.size)
        for term in self.coeffs[_elem_gdofs(mesh, ix, iy)].T * X * Y:
            out += term                     # local DOF order, one at a time
        return out.reshape(x.shape)

    def value(self, x, y):
        return self.eval(x, y, 0, 0)

    def with_gradient(self):
        """(u, u_x, u_y), callables of physical points."""
        return (self.value, lambda x, y: self.eval(x, y, 1, 0),
                lambda x, y: self.eval(x, y, 0, 1))


# ---------------------------------------------------------------------------
# loads and norms

def assemble_navier_load(f, mesh: Mesh, dofmap: DofMap,
                         domain: DiffeoField | None = None,
                         quad_order: int | None = None,
                         cell: CellPullBack | None = None) -> np.ndarray:
    """Load vector with entries int (f Lap(phi_i) + grad f . grad phi_i) dx.

    `f` is an FeFunction (evaluated at physical points, so on a perturbed
    domain it acts as the restriction of a function of space) or a triple of
    callables (f, f_x, f_y), evaluated on a chunk of element rows at a time,
    at points (rows, nx, nq*nq).  `cell` is as in `assemble`.
    """
    cell = _cell(mesh, domain, quad_order, cell)
    fv, fgx, fgy = f.with_gradient() if isinstance(f, FeFunction) else f
    nx = mesh.nx
    load = np.zeros((nx + 1, mesh.ny + 1, 4))
    # per row: the points, the datum's fields and the basis arrays
    for rows in cell.chunks(5 * (cell.x.nbytes + cell.basis_bytes)):
        B, w = cell.basis(_LOAD_TAGS, rows), cell.w[rows]
        y = np.tile(cell.y[rows], (1, nx // cell.y.shape[1], 1))
        x = np.broadcast_to(cell.x, y.shape).copy()
        loc = _weigh(fv(x, y), B["xx"] + B["yy"], w)
        loc += _weigh(fgx(x, y), B["x"], w)
        loc += _weigh(fgy(x, y), B["y"], w)
        # a node row adds its row below's upper half, then its own row's
        # lower half, each node of an element in local order
        for n in (2, 3, 0, 1):
            a, b = _NODE_SIDES[n]
            load[a:a + nx, rows.start + b:rows.stop + b] += (
                loc[:, :, 4 * n:4 * n + 4].swapaxes(0, 1))
    return load.reshape(-1)[dofmap.free]


def sobolev_forms(kinds, vectors, mesh: Mesh, dofmap: DofMap,
                  domain: DiffeoField | None = None,
                  quad_order: int | None = None,
                  cell: CellPullBack | None = None) -> np.ndarray:
    """Gram values v_i^T K v_j, as (len(kinds), nv, nv), of the symmetric
    volume forms K in `kinds` (Mass, GradMass and HessianEnergy are the terms
    of the H2 norm) at the free vectors v_1 .. v_nv of `dofmap`, the rows of
    `vectors`.  `cell` is as in `assemble`.

    One pass over the cell's rows that builds no matrix: per element row,
    each vector's element coefficients are read off the (nx + 1, ny + 1, 4)
    DOF grid and contracted with the basis arrays into the fields P of each
    term (P, P, factor) at the quadrature points, and each term adds factor
    times the sum of w P_i P_j, row by row.
    """
    if any(kind.on_boundary or not kind.symmetric for kind in kinds):
        raise ValueError("sobolev_forms takes symmetric volume forms")
    cell = _cell(mesh, domain, quad_order, cell)
    _resolution_warning(mesh, domain)
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    nv, nx = V.shape[0], mesh.nx
    grid = np.zeros((nv, dofmap.n_dofs))
    grid[:, dofmap.free] = V
    grid = grid.reshape(nv, nx + 1, mesh.ny + 1, 4)
    tags = frozenset().union(*(kind.tags for kind in kinds))
    out = np.zeros((len(kinds), nv, nv))
    r = cell.rep
    # per row: a term's fields, weighted, and the basis arrays
    for rows in cell.chunks(4 * nv * cell.x.nbytes + 3 * cell.basis_bytes):
        # element ex has the basis and weights of element ex % r, so vector
        # v's coefficients on it go to c[e, ex % r, :, ex // r, v] in row e
        # and its field at point q to f[e, ex % r, q, ex // r, v]
        B, w, ne = cell.basis(tags, rows), cell.w[rows], rows.stop - rows.start
        c = np.stack([grid[:, a:a + nx, rows.start + b:rows.stop + b]
                      for a, b in _NODE_SIDES], axis=3)
        c = c.reshape(nv, nx // r, r, ne, 16).transpose(3, 2, 4, 1, 0)
        c = c.reshape(ne, r, 16, -1)
        wk = np.repeat(w, nx // r, axis=-1)
        for G, kind in zip(out, kinds):
            grams = []
            for P, _, factor in kind.terms:
                f = np.matmul(_field(B, P), c).reshape(ne, r, -1, nv)
                grams.append((factor, _gram(f, f, wk)))
            # each row's sum over its elements, as a pass per row takes
            # it, then the rows in ey order
            for e in range(ne):
                for factor, g in grams:
                    G += factor * g[e].sum(axis=0)
    return out
