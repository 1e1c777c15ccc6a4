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
through one pull-back, `_pull_back`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, DofMap
from .profile_geometry import DiffeoField, GeometryError

__all__ = [
    "FormKind", "MASS", "GRAD_MASS", "LAPLACIAN_ENERGY", "HESSIAN_ENERGY",
    "MIXED_U_DELTA", "normal_trace", "boundary_mass",
    "FeSystem", "FeFunction", "assemble", "assemble_navier_load",
    "sobolev_forms", "gauss01",
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


def _tensor_basis(X, ty, hy, dy_order):
    """(nq, 16) array of local basis derivatives at the tensor Gauss points,
    point index ix * nqy + iy, from an x-factor of `_x_factors`.  It is
    C-contiguous: the contraction's summation order, and so the rounding of
    every assembled form, follows the layout."""
    Y = hermite1d(ty, hy, dy_order)[_Y_ROWS].T                  # (nqy, 16)
    return np.multiply(X[:, None, :], Y[None, :, :], order="C").reshape(-1, 16)


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
    its node-pair blocks (see `_add_row`), a boundary form its quadrature
    factor, B = C C^T.  `matrix` builds the form's CSR matrix on each read
    and keeps none; `@` and `diagonal` read a volume form's blocks."""

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
        if self.blocks is None:
            return self.matrix.diagonal()
        d = self.blocks[:, :, :, 1, 1, :].diagonal(axis1=2, axis2=3)
        return d.reshape(-1)[self.dofmap.free]

    def __matmul__(self, x):
        """A x for x of shape (n,) or (n, k), with the bits of `matrix @ x`:
        a 3 x 3 stencil on the DOF grid, a slab of node columns at a time,
        that adds each row's 36 terms to 0.0 in the CSR's column order,
        neighbour (dx, dy) lexicographically, then type.  A term that the
        CSR does not store multiplies a zero of x and leaves the sum's bits."""
        if self.blocks is None:
            return self.matrix @ x
        S, free = self.blocks, self.dofmap.free
        nxp, nyp = S.shape[:2]
        cols = np.atleast_2d(np.asarray(x, dtype=float).T)
        X = np.zeros((len(cols), self.dofmap.n_dofs))
        X[:, free] = cols
        X = np.pad(X.reshape(-1, nxp, nyp, 4), ((0, 0), (1, 1), (1, 1), (0, 0)))
        # each node's 3 x 3 window of the zero-padded grid, (dx, dy, b) last
        win = np.lib.stride_tricks.sliding_window_view(X, (3, 3), (1, 2))
        win = win.transpose(0, 1, 2, 4, 5, 3)
        y = np.zeros((len(cols), nxp, nyp, 4))
        for i0 in range(0, nxp, _SLAB):
            s = S[i0:i0 + _SLAB].reshape(-1, nyp, 4, 36)
            for w, yj in zip(win, y):
                p = s * w[i0:i0 + _SLAB].reshape(-1, nyp, 1, 36)
                for t in range(36):
                    yj[i0:i0 + _SLAB] += p[..., t]
        return y.reshape(len(cols), -1)[:, free].T.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# scatter helpers

_SLAB = 32      # node columns per slab of a pass over node-pair blocks


def _elem_gdofs(mesh: Mesh, ex_arr, ey: int) -> np.ndarray:
    """(nel, 16) global DOF indices for a row of elements."""
    nyp = mesh.ny + 1
    n0 = ex_arr * nyp + ey
    nodes = np.stack([n0, n0 + nyp, n0 + nyp + 1, n0 + 1], axis=1)  # bl br tr tl
    return (4 * nodes[:, :, None] + np.arange(4)[None, None, :]).reshape(-1, 16)


def _add_row(S, ey, local):
    """Add local matrices (rep, 16, 16) to element row ey of the node-pair
    blocks S, element ex getting local[ex % rep].  S[ix, iy, :, dx + 1, dy +
    1, :] couples node (ix, iy) to node (ix + dx, iy + dy), so S lists each
    DOF row in CSR order.  Each local node adds its four node pairs into one
    strided slice of the row's own sums, which then add to S: every entry is
    the sum of two rows' sums of at most two elements.  An entry and its
    transpose add the same terms in the same order (0 + a + b within a row,
    which commutes, and the rows in ey order), so exactly symmetric local
    matrices give an exactly symmetric S; every edit must keep that."""
    nx, rep = S.shape[0] - 1, local.shape[0]
    # local[:, n, :, c, d, :] couples local node n to the node at sides (c, d)
    local = local.reshape(rep, 4, 4, 4, 4)[:, :, :, [[0, 3], [1, 2]]]
    row = np.zeros((nx + 1, 2) + S.shape[2:])
    for n, (a, b) in enumerate(_NODE_SIDES):
        tgt = row[a:a + nx, b, :, 1 - a:3 - a, 1 - b:3 - b, :]
        tgt = tgt.reshape(nx // rep, rep, 4, 2, 2, 4)
        tgt += local[:, n]
    S[:, ey:ey + 2] += row


def _blocks_tocsr(S, dofmap: DofMap) -> sp.csr_matrix:
    """The canonical int32 CSR matrix of the node-pair blocks S over the free
    DOFs: every free DOF pair in an element, explicit zeros included."""
    nxp, nyp = S.shape[:2]
    free_idx = dofmap.free_index().astype(np.int32).reshape(nxp, nyp, 4)
    pad = np.pad(free_idx, ((1, 1), (1, 1), (0, 0)), constant_values=-1)
    cols = np.lib.stride_tricks.sliding_window_view(pad, (3, 3), (0, 1))
    cols = cols.transpose(0, 1, 3, 4, 2)[:, :, None]       # -1 off the mesh
    pattern = (free_idx[..., None, None, None] >= 0) & (cols >= 0)
    row_nnz = pattern.reshape(-1, 36).sum(axis=1)[free_idx.reshape(-1) >= 0]
    indptr = np.r_[0, np.cumsum(row_nnz)].astype(np.int32)
    A = sp.csr_matrix((S[pattern], np.broadcast_to(cols, S.shape)[pattern],
                       indptr), shape=(dofmap.n_free,) * 2)
    A.has_canonical_format = True
    return A


_LOAD_TAGS = ("x", "y", "xx", "yy")


def _gram(P, Q, w):
    """sum_q P[e, q, i] w[e, q] Q[e, q, j], as (nel, 16, 16).  These are the
    multiply and matmul that numpy 2.4's einsum("eqi,eqj,eq->eij",
    optimize=True) runs, so the bits are einsum's, without its path search
    on every call."""
    return np.matmul(np.swapaxes(P * w[:, :, None], 1, 2), Q)


def _weigh(f, P, w):
    """sum_q f[e, q] w[e, q] P[e, q, i], as (nel, 16), with P (rep, nq, 16) and
    w (rep, nq) repeated over f's nel rows: the multiply and matmul of
    einsum("eq,eqi,eq->ei", optimize=True) on the repeated arrays."""
    fw = f.reshape(-1, *w.shape) * w
    return np.matmul(fw[..., None, :], P)[..., 0, :].reshape(f.shape[0], 16)


def _field(B, tags):
    """The sum of the basis arrays B[tag] over `tags`, added in their order;
    one tag gives B[tag] itself."""
    f = B[tags[0]]
    for tag in tags[1:]:
        f = f + B[tag]
    return f


def _combine(kind: FormKind, B, w):
    """Local matrices (nel, 16, 16) of a volume form from the physical
    derivative basis arrays B (nel, nq, 16) and weights w (nel, nq)."""
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


def _chain_arrays(domain: DiffeoField, xref, yref, gs=None):
    """Physical chain-rule data at reference quadrature points; gs, if given,
    holds g_eps, g_eps' and g_eps'' at xref.ravel().

    Returns (a, b, hxx, hxy, hyy, det, y) arrays shaped like xref, where y is
    the physical ordinate of each point.
    """
    shape = xref.shape
    x = xref.ravel()
    y = domain.physical_y(x, yref.ravel(), None if gs is None else gs[0])
    _, hx, hy, hxx, hxy, hyy = domain.h_derivs(x, y, gs)
    det = 1.0 - hy
    if np.min(det) <= 0.0:
        raise GeometryError("det DPhi <= 0 at a quadrature point")
    return tuple(arr.reshape(shape) for arr in (hx, hy, hxx, hxy, hyy, det, y))


# derivative tag -> (x order, y order) of the basis arrays
_DERIVS = {"v": (0, 0), "x": (1, 0), "y": (0, 1),
           "xx": (2, 0), "xy": (1, 1), "yy": (0, 2)}


def _pull_back(domain: DiffeoField | None, tags, X, ty, hy, xref, yref,
               gs=None):
    """The one reference -> physical pull-back of every integral: (B, det, y).

    B maps each derivative tag in `tags` to the physical-derivative basis
    arrays (nel, npts, 16) of an hx-by-hy element at its tensor points
    (tx, ty), given as X = `_x_factors(tx, hx)` and ty, whose reference
    coordinates are xref and yref (nel, npts); det is det DPhi and y the
    physical ordinate there, and gs goes to `_chain_arrays`.  On the flat
    strip B is the reference basis with nel = 1, det is 1 and y is yref.
    Each reference basis array is built the first time the chain rule
    reads it.
    """
    ref = {}

    def r(tag):
        if tag not in ref:
            dx, dy = _DERIVS[tag]
            ref[tag] = _tensor_basis(X[dx], ty, hy, dy)[None, :, :]
        return ref[tag]
    if domain is None:
        return {tag: r(tag) for tag in tags}, 1.0, yref
    a, b, hxx, hxy, hyy, det, y = _chain_arrays(domain, xref, yref, gs)
    a, b, hxx, hxy, hyy = (arr[:, :, None] for arr in (a, b, hxx, hxy, hyy))
    rule = {
        "v": lambda: np.broadcast_to(r("v"), (len(a),) + r("v").shape[1:]),
        "x": lambda: r("x") - a * r("y"),
        "y": lambda: (1.0 - b) * r("y"),
        "xx": lambda: (r("xx") - 2.0 * a * r("xy") + a ** 2 * r("yy")
                       - hxx * r("y")),
        "xy": lambda: (1.0 - b) * (r("xy") - a * r("yy")) - hxy * r("y"),
        "yy": lambda: (1.0 - b) ** 2 * r("yy") - hyy * r("y"),
    }
    return {tag: rule[tag]() for tag in tags}, det, y


def _period_elements(mesh: Mesh, domain: DiffeoField | None) -> int:
    """Elements per period of g_eps if the x-mesh tiles whole periods, else nx."""
    periods = 0 if domain is None else round(mesh.w_len / domain.spec.epsilon)
    tiles = periods and mesh.nx % periods == 0 and abs(
        periods * domain.spec.epsilon - mesh.w_len) <= 1e-9 * mesh.w_len
    return mesh.nx // periods if tiles else mesh.nx


def _volume_rows(mesh: Mesh, domain: DiffeoField | None, quad_order: int,
                 tags):
    """The one quadrature/geometry pass over the mesh: per element row, yield
    (ey, B, w, x, y).

    The layer map depends on x only through the eps-periodic g_eps, so a row
    is pulled back on one period, its first rep = `_period_elements`
    elements, and element ex has the data of element ex % rep.  B maps each
    derivative tag in `tags` to physical-derivative basis arrays (rep,
    nq*nq, 16) and w (rep, nq*nq) holds the quadrature weights, 1/det DPhi
    included; x (nx, nq*nq) and y (rep, nq*nq) are the physical quadrature
    points.  On the flat strip B and w have one element and y has nx.  The
    basis x-factors and g_eps, g_eps', g_eps'' are computed once per pass.
    """
    nq = quad_order
    tq, wq = gauss01(nq)
    hx = mesh.w_len / mesh.nx
    rep = _period_elements(mesh, domain)
    xq = mesh.xs[:-1, None] + hx * tq[None, :]                       # (nx, nq)
    xref = np.repeat(xq, nq, axis=1)                              # (nx, nq*nq)
    X = _x_factors(tq, hx)
    gs = None if domain is None else [
        np.repeat(domain.spec.g(xq[:rep], k), nq, axis=1).ravel()
        for k in range(3)]
    for ey in range(mesh.ny):
        hy = mesh.hy(ey)
        w = np.outer(wq * hx, wq * hy).ravel()[None, :]
        yq = mesh.ys[ey] + hy * tq                                   # (nq,)
        yref = np.broadcast_to(np.tile(yq, nq), (rep, nq * nq))
        B, det, y = _pull_back(domain, tags, X, tq, hy, xref[:rep], yref, gs)
        yield ey, B, w / det, xref, y


def _boundary_batches(kind, mesh, domain, quad_order):
    """Yield (P, w, gdofs) per boundary batch: trace rows P (nel, nq, 16),
    quadrature weights w (nel, nq) and the element DOF indices.

    The basis goes through `_pull_back`; each edge gives only its reference
    points, 1-D weights, unnormalised normal and surface factor.  A normal
    maps derivative tags to its nonzero components, so no zero term enters
    the sum.  The forms square the normal derivative, so its sign is free:
    the bottom keeps (0, 1).
    """
    nq = quad_order
    tq, wq = gauss01(nq)
    hx = mesh.w_len / mesh.nx
    ex_all = np.arange(mesh.nx)
    xq = mesh.xs[:-1, None] + hx * tq[None, :]                       # (nx, nq)
    trace = kind.name == "NormalTrace"

    def batch(ex, ey, tx, ty, xref, yref, normal):
        """(P, det, gdofs) on the elements (ex, ey) at the points (tx, ty)."""
        comps = normal if trace else {"v": 1.0}
        B, det, _ = _pull_back(domain, tuple(comps), _x_factors(tx, hx), ty,
                               mesh.hy(ey), xref, yref)
        (tag, c), *rest = comps.items()
        P = c * B[tag]
        for tag, c in rest:
            P = P + c * B[tag]
        gdofs = _elem_gdofs(mesh, ex, ey)
        return np.broadcast_to(P, (len(ex), nq, 16)), det, gdofs

    # top, the graph y = g_eps(x) at y_hat = 0: normal (-g', 1) and
    # dS = sqrt(1 + g'^2) dx, so the trace carries 1/sqrt(1 + g'^2)
    w = np.tile(wq * hx, (mesh.nx, 1))                               # (nx, nq)
    normal, w_top = {"y": 1.0}, w
    if domain is not None:
        gp = domain.spec.g(xq, 1)
        normal = {"x": -gp[:, :, None], "y": 1.0}
        s = np.sqrt(1.0 + gp ** 2)
        w_top = w / s if trace else w * s
    P, _, gdofs = batch(ex_all, mesh.ny - 1, tq, np.ones(1), xq,
                        np.zeros_like(xq), normal)
    yield P, w_top, gdofs
    if kind.part == "Gamma":
        return
    # bottom, y = -1 below the layer: normal (0, 1), dS = dx
    P, _, gdofs = batch(ex_all, 0, tq, np.zeros(1), xq,
                        np.full_like(xq, mesh.ys[0]), {"y": 1.0})
    yield P, w, gdofs
    # sides x = 0 and x = w_len, one batch per element row: normal (-+1, 0),
    # dS = dy_hat / det DPhi
    for ex, tx, x_edge, sgn in ((0, 0.0, 0.0, -1.0),
                                (mesh.nx - 1, 1.0, mesh.w_len, 1.0)):
        for ey in range(mesh.ny):
            hy = mesh.hy(ey)
            yq = (mesh.ys[ey] + hy * tq)[None, :]
            P, det, gdofs = batch(np.array([ex]), ey, np.array([tx]), tq,
                                  np.full_like(yq, x_edge), yq, {"x": sgn})
            yield P, (wq * hy)[None, :] / det, gdofs


def assemble_boundary_factor(kind: FormKind, mesh: Mesh, dofmap: DofMap,
                             domain: DiffeoField | None = None,
                             quad_order: int | None = None) -> sp.csr_matrix:
    """Quadrature factor C of a boundary form, B = C C^T in free numbering.

    Columns correspond to boundary quadrature points, so the form's value at
    a free vector u is ||C^T u||^2, a sum of squares that needs no n x n
    matrix.
    """
    if not kind.on_boundary:
        raise ValueError("factored assembly is for boundary forms")
    quad_order = _quad_order(domain, quad_order)
    free_idx = dofmap.free_index()
    rows, cols, vals = [], [], []
    col0 = 0
    for P, w, gdofs in _boundary_batches(kind, mesh, domain, quad_order):
        nel, nq, _ = P.shape
        entries = P * np.sqrt(w)[:, :, None]          # (nel, nq, 16)
        fi = free_idx[gdofs]                          # (nel, 16)
        r = np.broadcast_to(fi[:, None, :], entries.shape).ravel()
        cidx = col0 + np.arange(nel * nq).reshape(nel, nq)
        c = np.broadcast_to(cidx[:, :, None], entries.shape).ravel()
        v = entries.ravel()
        keep = r >= 0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])
        col0 += nel * nq
    C = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dofmap.n_free, col0))
    return C.tocsr()


def assemble(kind: FormKind, mesh: Mesh, dofmap: DofMap,
             domain: DiffeoField | None = None,
             quad_order: int | None = None) -> FeSystem:
    """Assemble one bilinear form over the free DOFs of `dofmap`.

    `domain=None` integrates over the flat reference strip; a DiffeoField pulls
    the form back from the perturbed domain it describes.  A volume form is
    summed in one `_volume_rows` pass into node-pair blocks, from local
    matrices made symmetric if the form is, and its FeSystem keeps the
    blocks.  A boundary form is C C^T, C = `assemble_boundary_factor`, so it
    is exactly symmetric; its FeSystem keeps C as `factor`, which the
    Steklov solves read.
    """
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    if kind.on_boundary:
        C = assemble_boundary_factor(kind, mesh, dofmap, domain, quad_order)
        return FeSystem(mesh, dofmap, kind, domain, factor=C)
    S = np.zeros((mesh.nx + 1, mesh.ny + 1, 4, 3, 3, 4))
    for ey, B, w, _, _ in _volume_rows(mesh, domain, quad_order, kind.tags):
        m = _combine(kind, B, w)
        _add_row(S, ey, 0.5 * (m + m.swapaxes(1, 2)) if kind.symmetric else m)
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
                         quad_order: int | None = None) -> np.ndarray:
    """Load vector with entries int (f Lap(phi_i) + grad f . grad phi_i) dx.

    `f` is an FeFunction (evaluated at physical points, so on a perturbed
    domain it acts as the restriction of a function of space) or a triple of
    callables (f, f_x, f_y).
    """
    quad_order = _quad_order(domain, quad_order)
    fv, fgx, fgy = f.with_gradient() if isinstance(f, FeFunction) else f

    load = np.zeros((mesh.nx + 1, mesh.ny + 1, 4))
    for ey, B, w, x, y in _volume_rows(mesh, domain, quad_order, _LOAD_TAGS):
        y = np.tile(y, (mesh.nx // len(y), 1))
        loc = _weigh(fv(x, y), B["xx"] + B["yy"], w)
        loc += _weigh(fgx(x, y), B["x"], w)
        loc += _weigh(fgy(x, y), B["y"], w)
        for n, (a, b) in enumerate(_NODE_SIDES):
            load[a:a + mesh.nx, ey + b] += loc[:, 4 * n:4 * n + 4]
    return load.reshape(-1)[dofmap.free]


def sobolev_forms(kinds, vectors, mesh: Mesh, dofmap: DofMap,
                  domain: DiffeoField | None = None,
                  quad_order: int | None = None) -> np.ndarray:
    """Gram values v_i^T K v_j, as (len(kinds), nv, nv), of the symmetric
    volume forms K in `kinds` (Mass, GradMass and HessianEnergy are the terms
    of the H2 norm) at the free vectors v_1 .. v_nv of `dofmap`, the rows of
    `vectors`.

    One `_volume_rows` pass that builds no matrix: per element row, each
    vector's element coefficients are read off the (nx + 1, ny + 1, 4) DOF
    grid and contracted with the basis arrays into the fields P of each
    term (P, P, factor) at the quadrature points, and each term adds factor
    times the sum of w P_i P_j.
    """
    if any(kind.on_boundary or not kind.symmetric for kind in kinds):
        raise ValueError("sobolev_forms takes symmetric volume forms")
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    nv, nx = V.shape[0], mesh.nx
    grid = np.zeros((nv, dofmap.n_dofs))
    grid[:, dofmap.free] = V
    grid = grid.reshape(nv, nx + 1, mesh.ny + 1, 4)
    tags = frozenset().union(*(kind.tags for kind in kinds))
    out = np.zeros((len(kinds), nv, nv))
    for ey, B, w, _, _ in _volume_rows(mesh, domain, quad_order, tags):
        # element ex has the basis and weights of element ex % r, so vector
        # v's coefficients on it go to c[ex % r, :, ex // r, v] and its field
        # at point q to f[ex % r, q, ex // r, v]
        r = len(w)
        c = np.stack([grid[:, a:a + nx, ey + b] for a, b in _NODE_SIDES], axis=2)
        c = c.reshape(nv, nx // r, r, 16).transpose(2, 3, 1, 0).reshape(r, 16, -1)
        wk = np.repeat(w, nx // r, axis=1)
        for G, kind in zip(out, kinds):
            for P, _, factor in kind.terms:
                f = np.matmul(_field(B, P), c).reshape(r, -1, nv)
                G += factor * _gram(f, f, wk).sum(axis=0)
    return out
