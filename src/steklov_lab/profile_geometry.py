"""Oscillating boundary profiles, layer diffeomorphisms and the sharp convergence check.

The perturbed domain is the subgraph

    Omega_eps = {(x, y) : 0 < x < w_len, -1 < y < g_eps(x)},
    g_eps(x) = eps**alpha * b(x / eps),

with b a nonnegative 1-periodic profile.  The flat reference domain is
Omega = (0, w_len) x (-1, 0).  A diffeomorphism Phi(x, y) = (x, y - h(x, y))
flattens Omega_eps onto Omega; h vanishes below a blending layer and rises
cubically to g_eps at the top, so Phi is C^{1,1} and maps the oscillating
graph exactly onto y = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "ProfileError",
    "GeometryError",
    "BoundaryProfile",
    "DomainSpec",
    "KappaLayer",
    "DiffeoField",
    "AssumptionReport",
    "eval_profile",
    "build_diffeo",
    "fit_kappa_layer",
    "default_kappa",
    "check_assumptions",
]

_PERIOD_SAMPLES = 4096

# slope of g_eps that the floor count of elements per period resolves: 2.5
# keeps the floor for the default profile at alpha >= 3/2, eps <= 1/8 (slope
# <= 2.22), and gives alpha = 1 (slope 2 pi) three times the floor, where
# lambda_1 lies within 0.5% of its value at twice that count
_SLOPE_PER_FLOOR = 2.5


class ProfileError(ValueError):
    """Invalid boundary profile or layer parameters."""


class GeometryError(RuntimeError):
    """The requested map is not a diffeomorphism (det DPhi <= 0 somewhere)."""


@dataclass(frozen=True)
class BoundaryProfile:
    """Periodic profile b on the unit cell Y = (-1/2, 1/2) plus the exponent alpha.

    Two representations are supported: a finite cosine series (exact
    derivatives) and values sampled on a uniform grid of Y (periodic cubic
    interpolation, so derivatives up to second order exist).
    """

    kind: str                      # "fourier" | "sampled"
    alpha: float
    coefficients: tuple = ()       # cosine coefficients c_0 .. c_K
    samples: tuple = ()            # values on a uniform grid of Y
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def fourier_cosine(coefficients, alpha) -> "BoundaryProfile":
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ProfileError("need at least the constant coefficient c_0")
        p = BoundaryProfile(kind="fourier", alpha=float(alpha), coefficients=coeffs)
        p._validate()
        return p

    @staticmethod
    def sampled(values, alpha) -> "BoundaryProfile":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise ProfileError("sampled profile needs >= 4 values on the period cell")
        # close the period: grid -1/2 .. 1/2 with matching endpoints
        grid = np.linspace(-0.5, 0.5, vals.size + 1)
        closed = np.append(vals, vals[0])
        spline = CubicSpline(grid, closed, bc_type="periodic")
        p = BoundaryProfile(kind="sampled", alpha=float(alpha),
                            samples=tuple(float(v) for v in vals))
        object.__setattr__(p, "_spline", spline)
        p._validate()
        return p

    def _validate(self):
        if self.alpha <= 0:
            raise ProfileError("alpha must be positive")
        y = np.linspace(-0.5, 0.5, _PERIOD_SAMPLES, endpoint=False)
        vals = self.eval(y)
        if np.min(vals) < -1e-12:
            raise ProfileError("profile must be nonnegative on the period cell")
        per_gap = float(np.abs(self.eval(np.array([0.23]))
                               - self.eval(np.array([1.23])))[0])
        if per_gap > 1e-9 * (1.0 + float(np.max(np.abs(vals)))):
            raise ProfileError("profile is not 1-periodic")

    def eval(self, y, order: int = 0):
        """D^order b at points y (1-periodic continuation)."""
        if order not in (0, 1, 2):
            raise ProfileError(f"unsupported derivative order {order}")
        y = np.asarray(y, dtype=float)
        if self.kind == "fourier":
            out = np.zeros_like(y)
            if order == 0:
                out += self.coefficients[0]
            for k, c in enumerate(self.coefficients):
                if k == 0 or c == 0.0:
                    continue
                w = 2.0 * np.pi * k
                if order == 0:
                    out += c * np.cos(w * y)
                elif order == 1:
                    out += -c * w * np.sin(w * y)
                else:
                    out += -c * w * w * np.cos(w * y)
            return out
        # sampled: wrap into the period cell of the spline
        yy = (y + 0.5) % 1.0 - 0.5
        return self._spline(yy, nu=order)

    def sup_norm(self, order: int = 0) -> float:
        y = np.linspace(-0.5, 0.5, _PERIOD_SAMPLES, endpoint=False)
        return float(np.max(np.abs(self.eval(y, order))))

    @property
    def nonconstant(self) -> bool:
        y = np.linspace(-0.5, 0.5, _PERIOD_SAMPLES, endpoint=False)
        vals = self.eval(y)
        return float(np.max(vals) - np.min(vals)) > 0.0

    def min_value(self) -> float:
        y = np.linspace(-0.5, 0.5, _PERIOD_SAMPLES, endpoint=False)
        return float(np.min(self.eval(y)))


@dataclass(frozen=True)
class DomainSpec:
    """Reference strip (0, w_len) x (-1, 0) and its oscillating perturbation."""

    epsilon: float
    profile: BoundaryProfile
    w_len: float = 1.0
    periodic_fit: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ProfileError("epsilon must be positive")
        if self.w_len <= 0:
            raise ProfileError("w_len must be positive")
        if self.periodic_fit:
            periods = self.w_len / self.epsilon
            if abs(periods - round(periods)) > 1e-9 * max(1.0, periods):
                raise ProfileError(
                    f"w_len/epsilon = {periods} is not an integer cell count")
        if self.sup_g() >= 1.0:
            raise ProfileError("g_eps must stay below the meshing headroom g < 1")

    def g(self, x, order: int = 0):
        return eval_profile(self, x, order)

    def sup_g(self, order: int = 0) -> float:
        return self.epsilon ** (self.profile.alpha - order) * self.profile.sup_norm(order)

    def elements_per_period(self, floor: int = 8) -> int:
        """x-elements per oscillation period that resolve the graph g_eps.

        `floor` while the slope sup|g_eps'| = eps^(alpha-1) sup|b'| stays
        within 2.5, one more multiple of `floor` for each further 2.5.  For
        alpha <= 1 the slope does not shrink with eps, and a fixed count per
        period leaves the eigenvalues far from mesh convergence.
        """
        return floor * max(1, math.ceil(self.sup_g(1) / _SLOPE_PER_FLOOR))

    @property
    def alpha(self) -> float:
        return self.profile.alpha


def eval_profile(spec: DomainSpec, x, order: int = 0):
    """g_eps(x) or its x-derivative: eps**(alpha-order) * (D^order b)(x/eps)."""
    if order not in (0, 1, 2):
        raise ProfileError(f"unsupported derivative order {order}")
    x = np.asarray(x, dtype=float)
    a = spec.profile.alpha
    return spec.epsilon ** (a - order) * spec.profile.eval(x / spec.epsilon, order)


@dataclass(frozen=True)
class KappaLayer:
    """Blending layer of depth k_hat * kappa_eps below the oscillating graph."""

    kappa_eps: float
    k_hat: float = 8.0


@dataclass
class DiffeoField:
    """Evaluable layer map h, the flattening diffeomorphism Phi and their derivatives.

    Phi(x, y) = (x, y - h(x, y)) sends Omega_eps onto the reference strip,
    equals the identity below the layer and maps (x, g_eps(x)) to (x, 0).
    """

    spec: DomainSpec
    layer: KappaLayer
    det_min: float = 1.0
    det_max: float = 1.0

    def layer_bottom(self, x):
        """Physical height below which the map is the identity."""
        return self.spec.g(x) - self.layer.k_hat * self.layer.kappa_eps

    def h_derivs(self, x, y):
        """h, h_x, h_y, h_xx, h_xy, h_yy at physical points (vectorized)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g = self.spec.g(x)
        gp = self.spec.g(x, 1)
        gpp = self.spec.g(x, 2)
        d = self.layer.k_hat * self.layer.kappa_eps
        t = (y - (g - d)) / d
        t = np.clip(t, 0.0, None)
        t2, t3 = t * t, t * t * t
        h = g * t3
        hx = gp * t3 - 3.0 * g * gp * t2 / d
        hy = 3.0 * g * t2 / d
        hxx = (gpp * t3 - 6.0 * gp * gp * t2 / d
               + 6.0 * g * gp * gp * t / d ** 2 - 3.0 * g * gpp * t2 / d)
        hxy = 3.0 * gp * t2 / d - 6.0 * g * gp * t / d ** 2
        hyy = 6.0 * g * t / d ** 2
        return h, hx, hy, hxx, hxy, hyy

    def h(self, x, y):
        return self.h_derivs(x, y)[0]

    def phi(self, x, y):
        """Reference image (x, y - h(x, y)) of a physical point."""
        return np.asarray(x, dtype=float), np.asarray(y, dtype=float) - self.h(x, y)

    def det(self, x, y):
        _, _, hy, *_ = self.h_derivs(x, y)
        return 1.0 - hy

    def physical_y(self, x, yhat, tol=1e-13, max_iter=60):
        """Invert y - h(x, y) = yhat for y (vectorized safeguarded Newton).

        y -> y - h(x, y) is strictly increasing (det DPhi > 0), so the root is
        unique in [yhat, g_eps(x)].
        """
        x = np.asarray(x, dtype=float)
        yhat = np.asarray(yhat, dtype=float)
        lo = self.layer_bottom(x)
        below = yhat <= lo
        y = np.where(below, yhat, np.minimum(self.spec.g(x), yhat + self.spec.sup_g()))
        scale = 1.0 + self.spec.sup_g()
        for _ in range(max_iter):
            h, _, hy, *_ = self.h_derivs(x, y)
            f = y - h - yhat
            if np.max(np.abs(f)) < tol * scale:
                break
            step = f / np.maximum(1.0 - hy, 1e-3)
            y = y - step
            y = np.minimum(y, self.spec.g(x))
            y = np.where(below, yhat, y)
        else:
            h = self.h(x, y)
            resid = float(np.max(np.abs(y - h - yhat)))
            if resid > 1e-9 * scale:
                raise GeometryError(f"layer map inversion stalled, residual {resid:.2e}")
        return np.where(below, yhat, y)


def default_kappa(alpha: float, eps: float) -> float:
    """Layer-scale rule kappa_eps = eps**(2*atilde/3).

    For alpha > 3/2 the exponent uses the midpoint atilde = (3/2 + alpha)/2 of
    the admissible interval; at or below the critical exponent it falls back
    to atilde = alpha.
    """
    atilde = 0.5 * (1.5 + alpha) if alpha > 1.5 else alpha
    return eps ** (2.0 * atilde / 3.0)


def build_diffeo(spec: DomainSpec, layer: KappaLayer,
                 n_sample: int = 200) -> DiffeoField:
    """Build the flattening diffeomorphism and certify det DPhi > 0 on a sample grid."""
    if not isinstance(layer, KappaLayer):
        raise ProfileError(f"unknown layer kind {layer!r}")
    if layer.k_hat <= 6.0:
        raise ProfileError(f"k_hat = {layer.k_hat} must exceed 6")
    if layer.kappa_eps <= spec.sup_g():
        raise ProfileError(
            f"layer too thin: kappa_eps = {layer.kappa_eps:.4g} "
            f"<= sup g_eps = {spec.sup_g():.4g}")
    depth = layer.k_hat * layer.kappa_eps
    if depth >= 1.0 + spec.epsilon ** spec.alpha * spec.profile.min_value():
        raise ProfileError(
            f"layer too deep: k_hat*kappa_eps = {depth:.4g} reaches the bottom")

    field_ = DiffeoField(spec=spec, layer=layer)
    xs = np.linspace(0.0, spec.w_len, n_sample)
    dets = []
    for x in xs:
        lo = float(field_.layer_bottom(np.array([x]))[0])
        hi = float(spec.g(np.array([x]))[0])
        ys = np.linspace(max(lo, -1.0), hi, n_sample)
        dets.append(field_.det(np.full_like(ys, x), ys))
    dets = np.concatenate(dets)
    field_.det_min = float(np.min(dets))
    field_.det_max = float(np.max(dets))
    if field_.det_min <= 0.0:
        raise GeometryError(
            f"det DPhi = {field_.det_min:.4g} <= 0: layer map is not a diffeomorphism")
    return field_


def fit_kappa_layer(spec: DomainSpec, kappa: float | None = None,
                    k_hat: float = 8.0, depth_cap: float = 0.999) -> KappaLayer:
    """Pick (kappa_eps, k_hat) for a valid blending layer, shrinking defaults if needed.

    Starts from the kappa rule and the given k_hat and reduces first k_hat
    (toward its lower bound 6), then kappa (toward sup g_eps), so the layer
    fits above the bottom of the strip.  Raises if no admissible pair exists,
    which happens once sup g_eps approaches 1/6.
    """
    sup_g = spec.sup_g()
    cap = depth_cap * (1.0 + spec.epsilon ** spec.alpha * spec.profile.min_value())
    kap = kappa if kappa is not None else default_kappa(spec.alpha, spec.epsilon)
    kap = max(kap, 1.002 * sup_g) if sup_g > 0 else kap
    if k_hat * kap > cap:
        k_hat = cap / kap
    if k_hat < 6.005:
        k_hat = 6.005
        kap = cap / k_hat
    if kap <= sup_g:
        raise ProfileError(
            f"no admissible blending layer: sup g_eps = {sup_g:.4g} too large "
            f"for the unit-depth strip (needs sup g_eps < {cap / 6.005:.4g})")
    return KappaLayer(kappa_eps=kap, k_hat=k_hat)


@dataclass
class AssumptionReport:
    """Decay check for the sharp layer condition.

    For each |beta| in {0, 1, 2} the ratio r_beta(eps) =
    ||D^beta g_eps||_inf / kappa_eps**(3/2 - |beta|) must vanish along the
    eps sequence, kappa_eps must decrease to 0 and dominate ||g_eps||_inf.
    """

    eps_seq: np.ndarray
    kappa: np.ndarray
    sup_norms: np.ndarray          # shape (3, n_eps), rows |beta| = 0, 1, 2
    ratios: np.ndarray             # shape (3, n_eps)
    decaying: tuple                # per |beta|
    kappa_ok: bool
    dominates: bool
    verdict: str                   # "Satisfied" | "Violated"
    slack: float = 0.10

    def __str__(self):
        lines = [f"verdict: {self.verdict}"]
        for b in range(3):
            lines.append(
                f"  |beta|={b}: ratios "
                + " ".join(f"{r:.3e}" for r in self.ratios[b])
                + ("  (decaying)" if self.decaying[b] else "  (NOT decaying)"))
        return "\n".join(lines)


def _trend_decaying(r: np.ndarray, slack: float) -> bool:
    if np.max(r) == 0.0:
        return True
    upticks_ok = bool(np.all(r[1:] <= (1.0 + slack) * r[:-1] + 1e-300))
    net_decay = r[-1] <= (1.0 - slack) * r[0]
    return upticks_ok and net_decay


def check_assumptions(profile: BoundaryProfile, eps_seq, kappa_rule=None,
                      slack: float = 0.10) -> AssumptionReport:
    """Evaluate the layer condition along a strictly decreasing eps sequence."""
    eps_seq = np.asarray(list(eps_seq), dtype=float)
    if eps_seq.size == 0:
        raise ValueError("eps sequence must be nonempty")
    if np.any(np.diff(eps_seq) >= 0):
        raise ValueError("eps sequence must be strictly decreasing")
    rule = kappa_rule if kappa_rule is not None else default_kappa
    kappa = np.array([rule(profile.alpha, e) for e in eps_seq])

    sup_b = np.array([profile.sup_norm(order=b) for b in range(3)])
    sup_norms = np.empty((3, eps_seq.size))
    ratios = np.empty((3, eps_seq.size))
    for b in range(3):
        sup_norms[b] = eps_seq ** (profile.alpha - b) * sup_b[b]
        ratios[b] = sup_norms[b] / kappa ** (1.5 - b)

    kappa_ok = bool(np.all(np.diff(kappa) < 0)) if eps_seq.size > 1 else kappa[0] < 1.0
    dominates = bool(np.all(sup_norms[0] < kappa))
    decaying = tuple(_trend_decaying(ratios[b], slack) for b in range(3))
    verdict = "Satisfied" if (kappa_ok and dominates and all(decaying)) else "Violated"
    return AssumptionReport(eps_seq=eps_seq, kappa=kappa, sup_norms=sup_norms,
                            ratios=ratios, decaying=decaying, kappa_ok=kappa_ok,
                            dominates=dominates, verdict=verdict, slack=slack)
