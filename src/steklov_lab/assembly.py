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
    "e_distance", "sobolev_forms", "gauss01",
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
    """Assembled sparse matrix of one bilinear form in free-DOF numbering."""

    matrix: sp.csr_matrix
    mesh: Mesh
    kind: FormKind
    domain: DiffeoField | None

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


class _CooAccumulator:
    """COO triplets of several forms that share one scatter pattern."""

    def __init__(self, n_free, n_forms=1):
        self.n_free = n_free
        self.rows, self.cols = [], []
        self.vals = [[] for _ in range(n_forms)]

    def add(self, locals_, gdofs: np.ndarray, free_idx: np.ndarray):
        """Scatter one local matrix per form, each (nel, 16, 16) or
        broadcastable to it."""
        nel = gdofs.shape[0]
        fi = free_idx[gdofs]
        rows = np.repeat(fi, 16, axis=1).ravel()
        cols = np.tile(fi, (1, 16)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        self.rows.append(rows[keep].astype(np.int32))
        self.cols.append(cols[keep].astype(np.int32))
        for vals, local in zip(self.vals, locals_):
            local = np.broadcast_to(local, (nel, 16, 16))
            vals.append(np.ascontiguousarray(local).reshape(-1)[keep])

    def tocsr(self) -> list:
        """One CSR matrix per form.  The triplets are released as they are
        converted, so a pass over several forms peaks little above one."""
        r = np.concatenate(self.rows)
        c = np.concatenate(self.cols)
        self.rows = self.cols = None
        shape = (self.n_free, self.n_free)
        out = []
        while self.vals:
            v = np.concatenate(self.vals.pop(0))
            out.append(sp.coo_matrix((v, (r, c)), shape=shape).tocsr())
        return out


# physical derivative tags that each volume form reads from B
_FORM_TAGS = {"Mass": ("v",), "GradMass": ("x", "y"),
              "LaplacianEnergy": ("xx", "yy"), "HessianEnergy": ("xx", "xy", "yy"),
              "MixedUDelta": ("v", "xx", "yy")}
_LOAD_TAGS = ("x", "y", "xx", "yy")


def _gram(P, Q, w):
    """sum_q P[e, q, i] w[e, q] Q[e, q, j], as (nel, 16, 16).  These are the
    multiply and matmul that numpy 2.4's einsum("eqi,eqj,eq->eij",
    optimize=True) runs, so the bits are einsum's, without its path search
    on every call."""
    return np.matmul(np.swapaxes(P * w[:, :, None], 1, 2), Q)


def _weigh(f, P, w):
    """sum_q f[e, q] w[e, q] P[e, q, i], as (nel, 16): the multiply and
    matmul of einsum("eq,eqi,eq->ei", optimize=True).  On the flat strip P
    and w (1, nq) broadcast over f's element rows."""
    return np.matmul((f * w)[:, None, :], P)[:, 0, :]


def _combine(kind: FormKind, B, w):
    """Local matrices for a volume form from physical-derivative basis arrays.

    B maps derivative tags to (nel, nq, 16) arrays, w is (nel, nq).
    """
    name = kind.name
    if name == "Mass":
        P = Q = B["v"]
    elif name == "GradMass":
        return _gram(B["x"], B["x"], w) + _gram(B["y"], B["y"], w)
    elif name == "LaplacianEnergy":
        lap = B["xx"] + B["yy"]
        P = Q = lap
    elif name == "HessianEnergy":
        m = _gram(B["xx"], B["xx"], w)
        m += 2.0 * _gram(B["xy"], B["xy"], w)
        m += _gram(B["yy"], B["yy"], w)
        return m
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


def _volume_rows(mesh: Mesh, domain: DiffeoField | None, quad_order: int,
                 tags):
    """The one quadrature/geometry pass over the mesh: per element row, yield
    (gdofs, B, w, x, y).

    B maps each derivative tag in `tags` to physical-derivative basis arrays
    (nel, nq*nq, 16) and w (nel, nq*nq) holds the quadrature weights, 1/det
    DPhi included; x and y (nx, nq*nq) are the physical quadrature points.
    On the flat strip every element of a row has the same B and w, so there
    nel = 1.  What no row changes, the basis x-factors and g_eps, g_eps',
    g_eps'' at the nx * nq abscissae, is computed once per pass.
    """
    nq = quad_order
    tq, wq = gauss01(nq)
    ex_all = np.arange(mesh.nx)
    hx = mesh.w_len / mesh.nx
    xq = mesh.xs[:-1, None] + hx * tq[None, :]                       # (nx, nq)
    xref = np.repeat(xq, nq, axis=1)                              # (nx, nq*nq)
    X = _x_factors(tq, hx)
    gs = None if domain is None else [
        np.repeat(domain.spec.g(xq, k), nq, axis=1).ravel() for k in range(3)]
    for ey in range(mesh.ny):
        hy = mesh.hy(ey)
        w = np.outer(wq * hx, wq * hy).ravel()[None, :]
        yq = mesh.ys[ey] + hy * tq                                   # (nq,)
        yref = np.broadcast_to(np.tile(yq, nq), xref.shape)
        B, det, y = _pull_back(domain, tags, X, tq, hy, xref, yref, gs)
        yield _elem_gdofs(mesh, ex_all, ey), B, w / det, xref, y


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


def _systems(kinds, matrices, mesh, domain) -> list:
    out = []
    for kind, A in zip(kinds, matrices):
        if kind.symmetric:
            A = (A + A.T) * 0.5
            A.sum_duplicates()
        out.append(FeSystem(matrix=A, mesh=mesh, kind=kind, domain=domain))
    return out


def _volume_systems(kinds, mesh, dofmap, domain, quad_order) -> list:
    free_idx = dofmap.free_index()
    acc = _CooAccumulator(dofmap.n_free, len(kinds))
    tags = {tag for kind in kinds for tag in _FORM_TAGS[kind.name]}
    for gdofs, B, w, _, _ in _volume_rows(mesh, domain, quad_order, tags):
        acc.add([_combine(kind, B, w) for kind in kinds], gdofs, free_idx)
    return _systems(kinds, acc.tocsr(), mesh, domain)


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
    the form back from the perturbed domain it describes.
    """
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    if not kind.on_boundary:
        return _volume_systems((kind,), mesh, dofmap, domain, quad_order)[0]
    free_idx = dofmap.free_index()
    acc = _CooAccumulator(dofmap.n_free)
    for P, w, gdofs in _boundary_batches(kind, mesh, domain, quad_order):
        acc.add([_gram(P, P, w)], gdofs, free_idx)
    return _systems((kind,), acc.tocsr(), mesh, domain)[0]


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
    def interpolate(mesh: Mesh, f, fx=None, fy=None, fxy=None) -> "FeFunction":
        """Hermite interpolant from nodal data; missing derivatives by central
        differences with step 1e-6."""
        pts = mesh.node_coords()
        x, y = pts[:, 0], pts[:, 1]
        d = 1e-6

        def fdx(g):
            return lambda xx, yy: (g(xx + d, yy) - g(xx - d, yy)) / (2 * d)

        def fdy(g):
            return lambda xx, yy: (g(xx, yy + d) - g(xx, yy - d)) / (2 * d)

        fx = fx if fx is not None else fdx(f)
        fy = fy if fy is not None else fdy(f)
        fxy = fxy if fxy is not None else fdy(fx)
        coeffs = np.empty(4 * mesh.n_nodes)
        coeffs[0::4] = f(x, y)
        coeffs[1::4] = fx(x, y)
        coeffs[2::4] = fy(x, y)
        coeffs[3::4] = fxy(x, y)
        return FeFunction(mesh=mesh, coeffs=coeffs)

    def _locate(self, x, y):
        mesh = self.mesh
        ix = np.clip(np.searchsorted(mesh.xs, x, side="right") - 1, 0, mesh.nx - 1)
        iy = np.clip(np.searchsorted(mesh.ys, y, side="right") - 1, 0, mesh.ny - 1)
        return ix, iy

    def eval(self, x, y, dx_order: int = 0, dy_order: int = 0):
        """Evaluate a mixed derivative; points slightly outside the mesh are
        handled by polynomial extension of the nearest element."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x, y = np.broadcast_arrays(x, y)
        ix, iy = self._locate(x.ravel(), y.ravel())
        mesh = self.mesh
        hx = mesh.w_len / mesh.nx
        hys = np.diff(mesh.ys)
        tx = (x.ravel() - mesh.xs[ix]) / hx
        ty = (y.ravel() - mesh.ys[iy]) / hys[iy]
        X = hermite1d(tx, hx, dx_order)                    # (4, npts)
        Y = hermite1d(ty, hys[iy], dy_order)               # per-point height
        nyp = mesh.ny + 1
        n0 = ix * nyp + iy
        nodes = np.stack([n0, n0 + nyp, n0 + nyp + 1, n0 + 1], axis=0)  # (4, npts)
        out = np.zeros(x.size)
        for n, (a, b) in enumerate(_NODE_SIDES):
            for t, (sx, sy) in enumerate(_TYPE_SLOPES):
                c = self.coeffs[4 * nodes[n] + t]
                out += c * X[2 * a + sx] * Y[2 * b + sy]
        return out.reshape(x.shape)

    def value(self, x, y):
        return self.eval(x, y, 0, 0)


# ---------------------------------------------------------------------------
# loads and distances

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

    free_idx = dofmap.free_index()
    load = np.zeros(dofmap.n_free)
    for gdofs, B, w, x, y in _volume_rows(mesh, domain, quad_order, _LOAD_TAGS):
        loc = _weigh(fv(x, y), B["xx"] + B["yy"], w)
        loc += _weigh(fgx(x, y), B["x"], w)
        loc += _weigh(fgy(x, y), B["y"], w)
        fi = free_idx[gdofs]
        keep = fi >= 0
        np.add.at(load, fi[keep], loc[keep])
    return load


def sobolev_forms(mesh: Mesh, domain: DiffeoField | None = None,
                  quad_order: int | None = None) -> dict:
    """Full-DOF Mass / GradMass / Hessian matrices for norm evaluation."""
    systems = assemble_many((MASS, GRAD_MASS, HESSIAN_ENERGY), mesh,
                            DofMap.unconstrained(mesh), domain, quad_order)
    return {name: s.matrix for name, s in zip(("mass", "grad", "hess"), systems)}


def e_distance(u_hat: FeFunction, u: FeFunction,
               diffeo: DiffeoField | None, norm: str = "H2",
               forms: dict | None = None) -> float:
    """Sobolev distance || (u_hat - u) o Phi || over the perturbed domain.

    With E u = u o Phi this is the transplantation distance ||u_eps - E u||;
    for a trivial diffeomorphism it reduces to the plain Sobolev distance on
    the reference strip.
    """
    if u_hat.mesh is not u.mesh and (
            u_hat.mesh.nx != u.mesh.nx or u_hat.mesh.ny != u.mesh.ny
            or u_hat.mesh.grading != u.mesh.grading
            or u_hat.mesh.w_len != u.mesh.w_len):
        raise ValueError("functions live on different meshes")
    if norm not in ("L2", "H1", "H2"):
        raise ValueError("norm must be 'L2', 'H1' or 'H2'")
    if forms is None:
        forms = sobolev_forms(u_hat.mesh, diffeo)
    w = u_hat.coeffs - u.coeffs
    val = w @ (forms["mass"] @ w)
    if norm in ("H1", "H2"):
        val += w @ (forms["grad"] @ w)
    if norm == "H2":
        val += w @ (forms["hess"] @ w)
    return float(np.sqrt(max(val, 0.0)))
