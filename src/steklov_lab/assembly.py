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
    "FeSystem", "FeFunction", "assemble", "assemble_many", "assemble_navier_load",
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
    name: str
    part: str | None = None

    @property
    def symmetric(self) -> bool:
        return self.name != "MixedUDelta"

    @property
    def on_boundary(self) -> bool:
        return self.name in ("NormalTrace", "BoundaryMass")

    def __str__(self):
        return self.name if self.part is None else f"{self.name}({self.part})"


MASS = FormKind("Mass")
GRAD_MASS = FormKind("GradMass")
LAPLACIAN_ENERGY = FormKind("LaplacianEnergy")
HESSIAN_ENERGY = FormKind("HessianEnergy")
MIXED_U_DELTA = FormKind("MixedUDelta")


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
    """Assembled sparse matrix of one bilinear form in free-DOF numbering; a
    boundary form also keeps its quadrature factor, matrix = C C^T."""

    matrix: sp.csr_matrix
    mesh: Mesh
    kind: FormKind
    domain: DiffeoField | None
    factor: sp.csr_matrix | None = None

    @property
    def n_free(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# scatter helpers

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
    the sum of two rows' sums of at most two elements."""
    nx, rep = S.shape[0] - 1, local.shape[0]
    # local[:, n, :, c, d, :] couples local node n to the node at sides (c, d)
    local = local.reshape(rep, 4, 4, 4, 4)[:, :, :, [[0, 3], [1, 2]]]
    row = np.zeros((nx + 1, 2) + S.shape[2:])
    for n, (a, b) in enumerate(_NODE_SIDES):
        tgt = row[a:a + nx, b, :, 1 - a:3 - a, 1 - b:3 - b, :]
        tgt = tgt.reshape(nx // rep, rep, 4, 2, 2, 4)
        tgt += local[:, n]
    S[:, ey:ey + 2] += row


def _mirror_mean(S):
    """S <- 0.5 * (S + mirror(S)) in place, the block form of (A + A^T) * 0.5,
    where mirror(S) holds at node p and offset d the transposed block of
    node p + d at offset -d; the result is exactly symmetric."""
    nxp, nyp = S.shape[:2]
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        P = S[:nxp - dx, max(0, -dy):nyp - max(0, dy), :, 1 + dx, 1 + dy, :]
        Q = S[dx:, max(0, dy):nyp - max(0, -dy), :, 1 - dx, 1 - dy, :]
        P[...] = 0.5 * (P + Q.swapaxes(-1, -2))
        Q[...] = P.swapaxes(-1, -2)


def _blocks_tocsr(blocks, kinds, dofmap: DofMap):
    """Yield each form's canonical int32 CSR matrix over the free DOFs, popping
    its blocks: every free DOF pair in an element, explicit zeros included."""
    nxp, nyp = blocks[0].shape[:2]
    free_idx = dofmap.free_index().astype(np.int32).reshape(nxp, nyp, 4)
    pad = np.pad(free_idx, ((1, 1), (1, 1), (0, 0)), constant_values=-1)
    cols = np.lib.stride_tricks.sliding_window_view(pad, (3, 3), (0, 1))
    cols = cols.transpose(0, 1, 3, 4, 2)[:, :, None]       # -1 off the mesh
    pattern = (free_idx[..., None, None, None] >= 0) & (cols >= 0)
    row_nnz = pattern.reshape(-1, 36).sum(axis=1)[free_idx.reshape(-1) >= 0]
    for kind in kinds:
        S = blocks.pop(0)
        if kind.symmetric:
            _mirror_mean(S)
        indptr = np.r_[0, np.cumsum(row_nnz)].astype(np.int32)
        A = sp.csr_matrix((S[pattern], np.broadcast_to(cols, S.shape)[pattern],
                           indptr), shape=(dofmap.n_free,) * 2)
        A.has_canonical_format = True
        yield A


# physical derivative tags that each volume form reads from B
_FORM_TAGS = {"Mass": ("v",), "GradMass": ("x", "y"),
              "LaplacianEnergy": ("xx", "yy"), "HessianEnergy": ("xx", "xy", "yy"),
              "MixedUDelta": ("v", "xx", "yy")}
_LOAD_TAGS = ("x", "y", "xx", "yy")

# the forms that are sums of squared fields, K(u, u) = sum factor int f^2:
# (physical derivative tag, factor) of each field
_NORM_TERMS = {"Mass": (("v", 1.0),), "GradMass": (("x", 1.0), ("y", 1.0)),
               "HessianEnergy": (("xx", 1.0), ("xy", 2.0), ("yy", 1.0))}


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


def _combine(kind: FormKind, B, w):
    """Local matrices for a volume form from physical-derivative basis arrays.

    B maps derivative tags to (nel, nq, 16) arrays, w is (nel, nq).
    """
    name = kind.name
    if name in _NORM_TERMS:
        (tag, _), *rest = _NORM_TERMS[name]
        m = _gram(B[tag], B[tag], w)
        for tag, factor in rest:
            m += factor * _gram(B[tag], B[tag], w)
        return m
    if name == "LaplacianEnergy":
        P = Q = B["xx"] + B["yy"]
    elif name == "MixedUDelta":
        P, Q = B["v"], B["xx"] + B["yy"]
    else:
        raise ValueError(f"{kind} is not a volume form")
    return _gram(P, Q, w)


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


def _physical_B(Bref, tags, a, b, hxx, hxy, hyy):
    """Apply the pullback chain rule to reference-derivative basis arrays,
    for the physical derivative tags in `tags` only."""
    a_, b_ = a[:, :, None], b[:, :, None]
    rule = {
        "v": lambda: np.broadcast_to(Bref["v"], (a.shape[0],) + Bref["v"].shape[-2:]),
        "x": lambda: Bref["x"] - a_ * Bref["y"],
        "y": lambda: (1.0 - b_) * Bref["y"],
        "xx": lambda: (Bref["xx"] - 2.0 * a_ * Bref["xy"] + a_ ** 2 * Bref["yy"]
                       - hxx[:, :, None] * Bref["y"]),
        "xy": lambda: ((1.0 - b_) * (Bref["xy"] - a_ * Bref["yy"])
                       - hxy[:, :, None] * Bref["y"]),
        "yy": lambda: (1.0 - b_) ** 2 * Bref["yy"] - hyy[:, :, None] * Bref["y"],
    }
    return {tag: rule[tag]() for tag in tags}


# derivative tag -> (x order, y order) of the basis arrays
_DERIVS = {"v": (0, 0), "x": (1, 0), "y": (0, 1),
           "xx": (2, 0), "xy": (1, 1), "yy": (0, 2)}

# physical derivative tag -> the reference tags its chain rule reads
_CHAIN_READS = {"v": ("v",), "x": ("x", "y"), "y": ("y",),
                "xx": ("xx", "xy", "yy", "y"), "xy": ("xy", "yy", "y"),
                "yy": ("yy", "y")}


def _pull_back(domain: DiffeoField | None, tags, X, ty, hy, xref, yref,
               gs=None):
    """The one reference -> physical pull-back of every integral: (B, det, y).

    B maps each derivative tag in `tags` to the physical-derivative basis
    arrays (nel, npts, 16) of an hx-by-hy element at its tensor points
    (tx, ty), given as X = `_x_factors(tx, hx)` and ty, whose reference
    coordinates are xref and yref (nel, npts); det is det DPhi and y the
    physical ordinate there, and gs goes to `_chain_arrays`.  On the flat
    strip B is the reference basis with nel = 1, det is 1 and y is yref.
    """
    def basis(tag):
        dx, dy = _DERIVS[tag]
        return _tensor_basis(X[dx], ty, hy, dy)[None, :, :]
    if domain is None:
        return {tag: basis(tag) for tag in tags}, 1.0, yref
    Bref = {ref: basis(ref)
            for ref in {ref for tag in tags for ref in _CHAIN_READS[tag]}}
    a, b, hxx, hxy, hyy, det, y = _chain_arrays(domain, xref, yref, gs)
    return _physical_B(Bref, tags, a, b, hxx, hxy, hyy), det, y


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
        tags = tuple(normal) if trace else ("v",)
        B, det, _ = _pull_back(domain, tags, _x_factors(tx, hx), ty,
                               mesh.hy(ey), xref, yref)
        if trace:
            (tag, c), *rest = normal.items()
            P = c * B[tag]
            for tag, c in rest:
                P = P + c * B[tag]
        else:
            P = B["v"]
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


def _volume_systems(kinds, mesh, dofmap, domain, quad_order) -> list:
    blocks = [np.zeros((mesh.nx + 1, mesh.ny + 1, 4, 3, 3, 4)) for _ in kinds]
    tags = {tag for kind in kinds for tag in _FORM_TAGS[kind.name]}
    for ey, B, w, _, _ in _volume_rows(mesh, domain, quad_order, tags):
        for S, kind in zip(blocks, kinds):
            _add_row(S, ey, _combine(kind, B, w))
    return [FeSystem(matrix=A, mesh=mesh, kind=kind, domain=domain)
            for kind, A in zip(kinds, _blocks_tocsr(blocks, kinds, dofmap))]


def assemble_many(kinds, mesh: Mesh, dofmap: DofMap,
                  domain: DiffeoField | None = None,
                  quad_order: int | None = None) -> list:
    """Assemble several volume forms in one pass over the element rows, so
    the geometry of each row is computed once; one FeSystem per kind."""
    if any(kind.on_boundary for kind in kinds):
        raise ValueError("assemble_many takes volume forms only")
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    return _volume_systems(kinds, mesh, dofmap, domain, quad_order)


def assemble(kind: FormKind, mesh: Mesh, dofmap: DofMap,
             domain: DiffeoField | None = None,
             quad_order: int | None = None) -> FeSystem:
    """Assemble one bilinear form over the free DOFs of `dofmap`.

    `domain=None` integrates over the flat reference strip; a DiffeoField pulls
    the form back from the perturbed domain it describes.  A boundary form
    is C C^T, C = `assemble_boundary_factor`, so it is exactly symmetric; its
    FeSystem keeps C as `factor`, which the Steklov solves read.
    """
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    if not kind.on_boundary:
        return _volume_systems((kind,), mesh, dofmap, domain, quad_order)[0]
    C = assemble_boundary_factor(kind, mesh, dofmap, domain, quad_order)
    return FeSystem(matrix=(C @ C.T).sorted_indices(), mesh=mesh, kind=kind,
                    domain=domain, factor=C)


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

    @staticmethod
    def interpolate(mesh: Mesh, f, fx, fy, fxy) -> "FeFunction":
        """Hermite interpolant of f from its nodal values and derivatives."""
        pts = mesh.node_coords()
        x, y = pts[:, 0], pts[:, 1]
        coeffs = np.empty(4 * mesh.n_nodes)
        coeffs[0::4] = f(x, y)
        coeffs[1::4] = fx(x, y)
        coeffs[2::4] = fy(x, y)
        coeffs[3::4] = fxy(x, y)
        return FeFunction(mesh=mesh, coeffs=coeffs)

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
    if isinstance(f, FeFunction):
        fv = f.value
        fgx = lambda x, y: f.eval(x, y, 1, 0)
        fgy = lambda x, y: f.eval(x, y, 0, 1)
    else:
        fv, fgx, fgy = f

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
    """Gram values v_i^T K v_j, as (len(kinds), nv, nv), of the forms K in
    `kinds` (Mass, GradMass, HessianEnergy: the terms of the H2 norm) at the
    free vectors v_1 .. v_nv of `dofmap`, the rows of `vectors`.

    One `_volume_rows` pass that builds no matrix: per element row, each
    vector's element coefficients are read off the (nx + 1, ny + 1, 4) DOF
    grid and contracted with the basis arrays into the derivative fields at
    the quadrature points, and each form sums w f_i f_j over its fields.
    """
    if any(kind.name not in _NORM_TERMS for kind in kinds):
        raise ValueError("sobolev_forms takes Mass, GradMass and HessianEnergy")
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    nv, nx = V.shape[0], mesh.nx
    grid = np.zeros((nv, dofmap.n_dofs))
    grid[:, dofmap.free] = V
    grid = grid.reshape(nv, nx + 1, mesh.ny + 1, 4)
    terms = [_NORM_TERMS[kind.name] for kind in kinds]
    tags = {tag for t in terms for tag, _ in t}
    out = np.zeros((len(kinds), nv, nv))
    for ey, B, w, _, _ in _volume_rows(mesh, domain, quad_order, tags):
        # element ex has the basis and weights of element ex % r, so vector
        # v's coefficients on it go to c[ex % r, :, ex // r, v] and its field
        # at point q to f[ex % r, q, ex // r, v]
        r = len(w)
        c = np.stack([grid[:, a:a + nx, ey + b] for a, b in _NODE_SIDES], axis=2)
        c = c.reshape(nv, nx // r, r, 16).transpose(2, 3, 1, 0).reshape(r, 16, -1)
        wk = np.repeat(w, nx // r, axis=1)
        for G, t in zip(out, terms):
            for tag, factor in t:
                f = np.matmul(B[tag], c).reshape(r, -1, nv)
                G += factor * _gram(f, f, wk).sum(axis=0)
    return out
