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
(-g', 1)/sqrt(1 + g'^2).
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


def hermite1d(t: np.ndarray, h: float, deriv: int) -> np.ndarray:
    """Cubic Hermite basis on an interval of length h at normalized points t.

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


def _tensor_basis(tx, ty, hx, hy, dx_order, dy_order):
    """(nq, 16) array of local basis derivatives at the tensor Gauss points."""
    X = hermite1d(tx, hx, dx_order)
    Y = hermite1d(ty, hy, dy_order)
    nqx, nqy = tx.size, ty.size
    out = np.empty((nqx * nqy, 16))
    for n, (a, b) in enumerate(_NODE_SIDES):
        for t, (sx, sy) in enumerate(_TYPE_SLOPES):
            out[:, 4 * n + t] = np.outer(X[2 * a + sx], Y[2 * b + sy]).ravel()
    return out


def _edge_basis(t, h_edge, h_other, edge, dx_order, dy_order):
    """Trace of the local basis on one element edge at normalized points t.

    edge is "top"/"bottom" (t runs in x) or "left"/"right" (t runs in y).
    """
    if edge in ("top", "bottom"):
        tx, ty = t, np.array([1.0 if edge == "top" else 0.0])
        hx, hy = h_edge, h_other
    else:
        tx, ty = np.array([0.0 if edge == "left" else 1.0]), t
        hx, hy = h_other, h_edge
    return _tensor_basis(tx, ty, hx, hy, dx_order, dy_order)


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
    dofmap: DofMap
    kind: FormKind
    domain: DiffeoField | None
    quad_order: int

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


def _combine(kind: FormKind, B, w):
    """Local matrices for a volume form from physical-derivative basis arrays.

    B maps derivative tags to (nel, nq, 16) arrays, w is (nel, nq).
    """
    name = kind.name
    if name == "Mass":
        P = Q = B["v"]
    elif name == "GradMass":
        m = np.einsum("eqi,eqj,eq->eij", B["x"], B["x"], w, optimize=True)
        m += np.einsum("eqi,eqj,eq->eij", B["y"], B["y"], w, optimize=True)
        return m
    elif name == "LaplacianEnergy":
        lap = B["xx"] + B["yy"]
        P = Q = lap
    elif name == "HessianEnergy":
        m = np.einsum("eqi,eqj,eq->eij", B["xx"], B["xx"], w, optimize=True)
        m += 2.0 * np.einsum("eqi,eqj,eq->eij", B["xy"], B["xy"], w, optimize=True)
        m += np.einsum("eqi,eqj,eq->eij", B["yy"], B["yy"], w, optimize=True)
        return m
    elif name == "MixedUDelta":
        P, Q = B["v"], B["xx"] + B["yy"]
    else:
        raise ValueError(f"{kind} is not a volume form")
    return np.einsum("eqi,eqj,eq->eij", P, Q, w, optimize=True)


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


def _chain_arrays(domain: DiffeoField, xref, yref):
    """Physical chain-rule data at reference quadrature points.

    Returns (a, b, hxx, hxy, hyy, det, y) arrays shaped like xref, where y is
    the physical ordinate of each point.
    """
    shape = xref.shape
    x = xref.ravel()
    y = domain.physical_y(x, yref.ravel())
    _, hx, hy, hxx, hxy, hyy = domain.h_derivs(x, y)
    det = 1.0 - hy
    if np.min(det) <= 0.0:
        raise GeometryError("det DPhi <= 0 at a quadrature point")
    return tuple(arr.reshape(shape) for arr in (hx, hy, hxx, hxy, hyy, det, y))


def _physical_B(Bref, a, b, hxx, hxy, hyy):
    """Apply the pullback chain rule to reference-derivative basis arrays."""
    BX, BY = Bref["x"], Bref["y"]
    BXX, BXY, BYY = Bref["xx"], Bref["xy"], Bref["yy"]
    a_, b_ = a[:, :, None], b[:, :, None]
    out = {
        "v": np.broadcast_to(Bref["v"], (a.shape[0],) + Bref["v"].shape[-2:]),
        "x": BX - a_ * BY,
        "y": (1.0 - b_) * BY,
        "xx": BXX - 2.0 * a_ * BXY + a_ ** 2 * BYY - hxx[:, :, None] * BY,
        "xy": (1.0 - b_) * (BXY - a_ * BYY) - hxy[:, :, None] * BY,
        "yy": (1.0 - b_) ** 2 * BYY - hyy[:, :, None] * BY,
    }
    return out


# derivative tag -> (x order, y order) of the basis arrays
_DERIVS = {"v": (0, 0), "x": (1, 0), "y": (0, 1),
           "xx": (2, 0), "xy": (1, 1), "yy": (0, 2)}


def _volume_rows(mesh: Mesh, domain: DiffeoField | None, quad_order: int):
    """The one quadrature/geometry pass over the mesh: per element row, yield
    (gdofs, B, w, x, y).

    B maps derivative tags to physical-derivative basis arrays (nel, nq*nq,
    16) and w (nel, nq*nq) holds the quadrature weights, 1/det DPhi included;
    x and y (nx, nq*nq) are the physical quadrature points.  On the flat
    strip every element of a row has the same B and w, so there nel = 1.
    """
    nq = quad_order
    tq, wq = gauss01(nq)
    ex_all = np.arange(mesh.nx)
    hx = mesh.w_len / mesh.nx
    xq = mesh.xs[:-1, None] + hx * tq[None, :]                       # (nx, nq)
    xref = np.repeat(xq[:, :, None], nq, axis=2).reshape(mesh.nx, nq * nq)
    for ey in range(mesh.ny):
        hy = mesh.hy(ey)
        Bref = {tag: _tensor_basis(tq, tq, hx, hy, *orders)[None, :, :]
                for tag, orders in _DERIVS.items()}
        w = np.outer(wq * hx, wq * hy).ravel()[None, :]
        yq = mesh.ys[ey] + hy * tq                                   # (nq,)
        yref = np.broadcast_to(np.tile(yq, nq), xref.shape)
        gdofs = _elem_gdofs(mesh, ex_all, ey)
        if domain is None:
            yield gdofs, Bref, w, xref, yref
        else:
            a, b, hxx, hxy, hyy, det, y = _chain_arrays(domain, xref, yref)
            yield gdofs, _physical_B(Bref, a, b, hxx, hxy, hyy), w / det, xref, y


def _boundary_edges(kind_part: str):
    if kind_part == "Gamma":
        return ("top",)
    return ("top", "bottom", "left", "right")


def _boundary_batches(kind, mesh, domain, quad_order):
    """Yield (P, w, gdofs) per boundary batch: trace rows P (nel, nq, 16),
    quadrature weights w (nel, nq) and the element DOF indices."""
    nq = quad_order
    tq, wq = gauss01(nq)
    hx = mesh.w_len / mesh.nx
    ex_all = np.arange(mesh.nx)
    for edge in _boundary_edges(kind.part):
        if edge in ("top", "bottom"):
            ey = mesh.ny - 1 if edge == "top" else 0
            hy = mesh.hy(ey)
            T0 = _edge_basis(tq, hx, hy, edge, 0, 0)
            TX = _edge_basis(tq, hx, hy, edge, 1, 0)
            TY = _edge_basis(tq, hx, hy, edge, 0, 1)
            gdofs = _elem_gdofs(mesh, ex_all, ey)
            xq = mesh.xs[:-1, None] + hx * tq[None, :]               # (nx, nq)
            if domain is None or edge == "bottom":
                # bottom always sits in the identity region of the layer map
                P = (TY if kind.name == "NormalTrace" else T0)[None, :, :]
                P = np.broadcast_to(P, (mesh.nx,) + T0.shape)
                w = np.broadcast_to(wq * hx, xq.shape)
            else:
                spec = domain.spec
                g = spec.g(xq)
                gp = spec.g(xq, 1)
                _, a, b, *_ = domain.h_derivs(xq.ravel(), g.ravel())
                a = a.reshape(xq.shape)[:, :, None]
                b = b.reshape(xq.shape)[:, :, None]
                if kind.name == "NormalTrace":
                    ux = TX[None, :, :] - a * TY[None, :, :]
                    uy = (1.0 - b) * TY[None, :, :]
                    P = -gp[:, :, None] * ux + uy
                    w = (wq * hx)[None, :] / np.sqrt(1.0 + gp ** 2)
                else:
                    P = np.broadcast_to(T0, (mesh.nx,) + T0.shape)
                    w = (wq * hx)[None, :] * np.sqrt(1.0 + gp ** 2)
            yield P, np.ascontiguousarray(np.broadcast_to(w, xq.shape)), gdofs
        else:
            x_edge = 0.0 if edge == "left" else mesh.w_len
            ex = 0 if edge == "left" else mesh.nx - 1
            sgn = -1.0 if edge == "left" else 1.0
            for ey in range(mesh.ny):
                hy = mesh.hy(ey)
                L0 = _edge_basis(tq, hy, hx, edge, 0, 0)
                LX = _edge_basis(tq, hy, hx, edge, 1, 0)
                gdofs = _elem_gdofs(mesh, np.array([ex]), ey)
                yq = mesh.ys[ey] + hy * tq
                if domain is None:
                    P = (sgn * LX if kind.name == "NormalTrace" else L0)[None, :, :]
                    w = (wq * hy)[None, :]
                else:
                    xr = np.full_like(yq, x_edge)
                    a, b, _, _, _, det, _ = _chain_arrays(domain, xr[None, :],
                                                          yq[None, :])
                    if kind.name == "NormalTrace":
                        LY = _edge_basis(tq, hy, hx, edge, 0, 1)
                        P = sgn * (LX[None, :, :] - a[:, :, None] * LY[None, :, :])
                    else:
                        P = L0[None, :, :]
                    w = (wq * hy)[None, :] / det
                yield P, np.ascontiguousarray(w), gdofs


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


def _systems(kinds, matrices, mesh, dofmap, domain, quad_order) -> list:
    out = []
    for kind, A in zip(kinds, matrices):
        if kind.symmetric:
            A = (A + A.T) * 0.5
            A.sum_duplicates()
        out.append(FeSystem(matrix=A, mesh=mesh, dofmap=dofmap, kind=kind,
                            domain=domain, quad_order=quad_order))
    return out


def assemble_many(kinds, mesh: Mesh, dofmap: DofMap,
                  domain: DiffeoField | None = None,
                  quad_order: int | None = None) -> list:
    """Assemble several volume forms in one pass over the element rows, so
    the geometry of each row is computed once; one FeSystem per kind."""
    if any(kind.on_boundary for kind in kinds):
        raise ValueError("assemble_many takes volume forms only")
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    free_idx = dofmap.free_index()
    acc = _CooAccumulator(dofmap.n_free, len(kinds))
    for gdofs, B, w, _, _ in _volume_rows(mesh, domain, quad_order):
        acc.add([_combine(kind, B, w) for kind in kinds], gdofs, free_idx)
    return _systems(kinds, acc.tocsr(), mesh, dofmap, domain, quad_order)


def assemble(kind: FormKind, mesh: Mesh, dofmap: DofMap,
             domain: DiffeoField | None = None,
             quad_order: int | None = None) -> FeSystem:
    """Assemble one bilinear form over the free DOFs of `dofmap`.

    `domain=None` integrates over the flat reference strip; a DiffeoField pulls
    the form back from the perturbed domain it describes.
    """
    if not kind.on_boundary:
        return assemble_many((kind,), mesh, dofmap, domain, quad_order)[0]
    quad_order = _quad_order(domain, quad_order)
    _resolution_warning(mesh, domain)
    free_idx = dofmap.free_index()
    acc = _CooAccumulator(dofmap.n_free)
    for P, w, gdofs in _boundary_batches(kind, mesh, domain, quad_order):
        acc.add([np.einsum("eqi,eqj,eq->eij", P, P, w, optimize=True)],
                gdofs, free_idx)
    return _systems((kind,), acc.tocsr(), mesh, dofmap, domain, quad_order)[0]


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
    def interpolate(mesh: Mesh, f, fx=None, fy=None, fxy=None,
                    fd_step: float = 1e-6) -> "FeFunction":
        """Hermite interpolant from nodal data; missing derivatives by central FD."""
        pts = mesh.node_coords()
        x, y = pts[:, 0], pts[:, 1]
        d = fd_step

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
        # vertical element size varies with grading: rescale the unit-size basis
        Y = hermite1d(ty, 1.0, dy_order).copy()
        hy_pt = hys[iy]
        if dy_order == 0:
            Y[1] *= hy_pt
            Y[3] *= hy_pt
        elif dy_order == 1:
            Y[0] /= hy_pt
            Y[2] /= hy_pt
        else:
            Y[0] /= hy_pt ** 2
            Y[2] /= hy_pt ** 2
            Y[1] /= hy_pt
            Y[3] /= hy_pt
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

    def grad(self, x, y):
        return self.eval(x, y, 1, 0), self.eval(x, y, 0, 1)

    def hess(self, x, y):
        return (self.eval(x, y, 2, 0), self.eval(x, y, 1, 1),
                self.eval(x, y, 0, 2))


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
    for gdofs, B, w, x, y in _volume_rows(mesh, domain, quad_order):
        # spread the flat strip's shared row arrays over the elements: einsum
        # may sum in another order over a size-1 element axis
        shape = x.shape + (16,)
        B = {tag: np.broadcast_to(B[tag], shape) for tag in ("x", "y", "xx", "yy")}
        w = np.broadcast_to(w, x.shape)
        lap = B["xx"] + B["yy"]
        loc = np.einsum("eq,eqi,eq->ei", fv(x, y), lap, w, optimize=True)
        loc += np.einsum("eq,eqi,eq->ei", fgx(x, y), B["x"], w, optimize=True)
        loc += np.einsum("eq,eqi,eq->ei", fgy(x, y), B["y"], w, optimize=True)
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
               quad_order: int | None = None, forms: dict | None = None) -> float:
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
        forms = sobolev_forms(u_hat.mesh, diffeo, quad_order)
    w = u_hat.coeffs - u.coeffs
    val = w @ (forms["mass"] @ w)
    if norm in ("H1", "H2"):
        val += w @ (forms["grad"] @ w)
    if norm == "H2":
        val += w @ (forms["hess"] @ w)
    return float(np.sqrt(max(val, 0.0)))
