"""Experiment runners: spectral trichotomy, DBS stability, degeneration and
Navier sweeps, with deterministic CSV/SVG reports and a small CLI.

Report schema
-------------
Every report is a list of rows `alpha,eps,nx,ny,n,value,reference,gap,verdict`.
Rows with n > 0 are data (eigenvalues, norms, distances; eps = 0 marks
reference solves); rows with n <= 0 are metric rows whose verdict is
`Satisfied` iff value <= reference, so each verdict is recomputable from the
row itself.  The metric legend and the acceptance thresholds are echoed as
`#` comments in the CSV header.
"""

from __future__ import annotations

import argparse
import numbers
import sys
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

# perfbench/tracer.py times this module's calls to other layers by wrapping
# the names imported here: assemble, assemble_boundary_factor and
# sobolev_forms (every norm pass), and assemble_navier_load, which has no
# caller here but stays importable from lab_cli for that tracer site
from .assembly import (GRAD_MASS, HESSIAN_ENERGY, LAPLACIAN_ENERGY, MASS,
                       CellPullBack, assemble, assemble_boundary_factor,
                       assemble_navier_load, normal_trace, sobolev_forms)
from .cell_problem import solve_cell
from .mesh import Mesh, build_mesh, graded_rows, mark_essential
from .navier import solve_navier
from .profile_geometry import (BoundaryProfile, DomainSpec, GeometryError,
                               ProfileError, build_diffeo, check_assumptions,
                               default_kappa, fit_kappa_layer)
from .spectral import (NoSteklovEigenvalues, SpectralConvergenceError,
                       factor_spd, solve_steklov)

__all__ = ["ExperimentConfig", "ReportRow", "ExperimentReport",
           "run_trichotomy", "run_dbs_convergence", "run_degeneration",
           "run_navier_stability", "emit", "main", "ConfigError",
           "AssumptionViolatedError"]

EXPERIMENTS = ("trichotomy", "dbs-convergence", "degeneration",
               "navier-stability")

THRESHOLDS = {
    "stable_rel_gap": 0.02,      # relative eigenvalue gap at the finest eps
    "monotone": 1.0,             # max successive gap ratio for 'decreasing'
    "critical_halving": 0.5,     # gap(eps_min) / gap(eps_max) at alpha = 3/2
    "divergence_factor": 2.0,    # lam(eps_min) >= factor * lam(eps_max)
    "edist_halving": 0.5,        # eigenfunction E-distance reduction
    "norm_halving": 0.5,         # Navier error-norm reduction over the sweep
    "trace_factor": 1.0 / 3.0,   # normal-trace reduction in the flat regime
    "gamma_residual": 0.05,      # residual in the curvature-shifted equation
    "degeneration_gap": 0.05,    # final relative gap to the clamped spectrum
}


class ConfigError(ValueError):
    pass


class AssumptionViolatedError(RuntimeError):
    """Raised when a run requires the sharp layer condition but it fails."""

    def __init__(self, report):
        super().__init__(f"layer condition violated:\n{report}")
        self.report = report


# ---------------------------------------------------------------------------
# configuration

def _eps_label(eps: float) -> str:
    """eps as the fraction it stands for: 1/8, or 3/10 for 0.3."""
    return str(Fraction(eps).limit_denominator())


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    coefficients: tuple = (1.0, 1.0)       # cosine profile, b = 1 + cos(2 pi y)
    alpha: float = 2.0                     # single-exponent experiments
    alphas: tuple = (2.0, 1.5, 1.2)        # trichotomy / modified-Navier sweep
    eps_list: tuple = (0.125, 0.0625, 0.03125)
    per_period: int = 8                    # min x-elements per oscillation period
    ny: int = 32
    grading: float = 0.7
    w_len: float = 1.0
    k: int = 2
    quad_order: int = 6
    reference_nx: int = 64
    k_hat: float = 8.0
    kappa_exponent: float = 0.0            # 0 -> built-in kappa rule
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if (len(self.eps_list) < 2 or np.any(np.diff(self.eps_list) >= 0)
                or self.eps_list[-1] <= 0):
            raise ConfigError("eps_list must be positive and strictly "
                              "decreasing, length >= 2")
        if self.w_len <= 0:
            raise ConfigError("w_len must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.per_period < 8:
            raise ConfigError("mesh rule requires >= 8 elements per period")
        for key in ("k", "reference_nx"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        try:    # the rows of every mesh of the run, whatever its nx
            graded_rows(self.ny, self.grading)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.quad_order < 6:
            # every experiment assembles pulled-back cells with quad_order
            raise ConfigError("quad_order must be >= 6 (pulled-back assembly)")
        if self.k_hat <= 6:
            raise ConfigError("k_hat must exceed 6 (blending layer depth)")
        if self.kappa_exponent < 0:
            raise ConfigError("kappa_exponent must be >= 0 (0: built-in kappa rule)")
        if not self.alphas:
            raise ConfigError("alphas must hold at least one exponent")
        for a in (self.alpha, *self.alphas):
            try:   # validated uncached: `profile` caches what a runner reads
                BoundaryProfile.fourier_cosine(self.coefficients, a)
            except ProfileError as exc:
                raise ConfigError(f"profile at alpha = {a}: {exc}") from None
        for e in self.eps_list:
            periods = self.w_len / e
            if abs(periods - round(periods)) > 1e-9:
                raise ConfigError(f"eps = {e} does not tile w_len = {self.w_len}")

    @cached_property
    def _profiles(self) -> dict:
        """This config's profiles by alpha, each built once, on first use."""
        return {}

    def profile(self, alpha: float) -> BoundaryProfile:
        if alpha not in self._profiles:
            self._profiles[alpha] = BoundaryProfile.fourier_cosine(
                self.coefficients, alpha)
        return self._profiles[alpha]

    def spec(self, alpha: float, eps: float) -> DomainSpec:
        return DomainSpec(epsilon=eps, profile=self.profile(alpha),
                          w_len=self.w_len)

    def mesh_for(self, alpha: float, eps: float) -> Mesh:
        """Reference mesh of one (alpha, eps) cell: at least `per_period`
        x-elements per period, more where the oscillating graph is steep."""
        per = self.spec(alpha, eps).elements_per_period(self.per_period)
        nx = int(round(per * self.w_len / eps))
        return build_mesh(nx, self.ny, self.grading, self.w_len)

    def reference_mesh(self) -> Mesh:
        return build_mesh(self.reference_nx, self.ny, self.grading, self.w_len)

    def kappa(self, alpha: float, eps: float) -> float:
        """kappa_eps = eps**kappa_exponent, or the built-in rule if that is 0."""
        if self.kappa_exponent > 0:
            return eps ** self.kappa_exponent
        return default_kappa(alpha, eps)

    def diffeo(self, alpha: float, eps: float):
        spec = self.spec(alpha, eps)
        try:
            layer = fit_kappa_layer(spec, kappa=self.kappa(alpha, eps),
                                    k_hat=self.k_hat)
            return build_diffeo(spec, layer)
        except ProfileError as exc:
            cell = f"alpha = {alpha:g}, eps = {_eps_label(eps)}"
            raise ProfileError(f"cell {cell}: {exc}") from None


def _parse_scalar(tok: str):
    """An int, a float, a fraction p/q of two numbers, or else the string."""
    tok = tok.strip()
    num, slash, den = tok.partition("/")
    if slash:
        try:
            return float(num) / float(den)
        except ValueError:
            return tok
        except ZeroDivisionError:
            raise ConfigError(f"{tok!r} divides by zero") from None
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            pass
    return tok


def parse_config_text(text: str) -> dict:
    """One `key = value` per line, `#` comments, arrays comma-separated."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if "," in val:
            out[key] = tuple(_parse_scalar(t) for t in val.split(",") if t.strip())
        else:
            out[key] = _parse_scalar(val)
    return out


def _checked(name, value, default):
    """A config value checked against the type of its key's default; an
    array key given one value becomes an array of one."""
    if isinstance(default, tuple):
        items = value if isinstance(value, tuple) else (value,)
        for v in items:
            _checked(name, v, 0.0)
        return items
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "text"
    elif isinstance(default, int):
        ok, kind = isinstance(value, numbers.Integral), "an integer"
    else:
        # fails inf, nan (1e999 reads as inf) and an int past float range,
        # on which math.isfinite would raise
        ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
        kind = "a finite number"
    if not ok or isinstance(value, bool):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def load_config(experiment: str, path: str | None = None, **overrides) -> ExperimentConfig:
    values = dict(EXPERIMENT_DEFAULTS.get(experiment, {}))
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        values.update(parse_config_text(text))
    values.update({k: v for k, v in overrides.items() if v is not None})
    values["experiment"] = experiment
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for name, fld in ExperimentConfig.__dataclass_fields__.items():
        if name in values and fld.default is not MISSING:
            values[name] = _checked(name, values[name], fld.default)
    return ExperimentConfig(**values)


EXPERIMENT_DEFAULTS = {
    "trichotomy": {"alphas": (2.0, 1.5, 1.2)},
    "dbs-convergence": {"alpha": 2.0},
    # alpha = 1 admits no blending layer at eps = 1/8 (sup g_eps = 1/4 > 1/6)
    # and the spectrum overshoots before settling, so the sweep starts deeper
    "degeneration": {"alpha": 1.0,
                     "eps_list": (0.03125, 0.015625, 0.0078125)},
    # a deeper layer (kappa = eps^{3/2}) keeps the transplant's own
    # second-order defect below the error norms it is supposed to measure
    "navier-stability": {"alpha": 2.0, "alphas": (2.0, 1.5, 1.2),
                         "kappa_exponent": 1.5},
}


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ReportRow:
    alpha: float
    eps: float
    nx: int
    ny: int
    n: int
    value: float
    reference: float
    gap: float
    verdict: str


@dataclass
class ExperimentReport:
    experiment: str
    header: tuple = ()
    rows: list = field(default_factory=list)

    def add(self, alpha, eps, nx, ny, n, value, reference, gap, verdict):
        self.rows.append(ReportRow(float(alpha), float(eps), int(nx), int(ny),
                                   int(n), float(value), float(reference),
                                   float(gap), str(verdict)))

    def data(self, alpha, eps, mesh, n0, values, refs=None):
        """Info rows n0, n0 + 1, ... of one cell, gap = |value - reference|;
        without `refs` every reference is 0."""
        refs = [0.0] * len(values) if refs is None else refs
        for n, (v, ref) in enumerate(zip(values, refs), start=n0):
            self.add(alpha, eps, mesh.nx, mesh.ny, n, v, ref, abs(v - ref),
                     "Info")

    def metric(self, alpha, n, value, reference):
        verdict = "Satisfied" if value <= reference else "Violated"
        self.add(alpha, 0.0, 0, 0, n, value, reference, value - reference, verdict)

    @property
    def metric_rows(self):
        return [r for r in self.rows if r.n <= 0 and r.verdict != "Info"]

    @property
    def all_satisfied(self) -> bool:
        return all(r.verdict == "Satisfied" for r in self.metric_rows)

    def to_csv(self) -> str:
        lines = [f"# {h}" for h in self.header]
        lines.append("alpha,eps,nx,ny,n,value,reference,gap,verdict")
        for r in self.rows:
            lines.append(",".join([repr(r.alpha), repr(r.eps), str(r.nx),
                                   str(r.ny), str(r.n), repr(r.value),
                                   repr(r.reference), repr(r.gap), r.verdict]))
        return "\n".join(lines) + "\n"


def _svg(report: ExperimentReport) -> str:
    """Minimal deterministic SVG: one polyline of value vs eps per (alpha, n)."""
    pts = {}
    for r in report.rows:
        if r.n > 0 and r.eps > 0:
            pts.setdefault((r.alpha, r.n), []).append((r.eps, r.value))
    W, H, ml, mb, mt, mr = 640, 420, 70, 50, 30, 160
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{ml}" y="20" font-size="14">{report.experiment}: '
            f'value vs eps</text>']
    if pts:
        eps_all = sorted({e for ser in pts.values() for e, _ in ser}, reverse=True)
        vals = [v for ser in pts.values() for _, v in ser]
        vmin, vmax = min(vals), max(vals)
        if vmax <= vmin:
            vmax = vmin + 1.0
        pad = 0.05 * (vmax - vmin)
        vmin, vmax = vmin - pad, vmax + pad
        xs = {e: ml + (W - ml - mr) * i / max(1, len(eps_all) - 1)
              for i, e in enumerate(eps_all)}

        def ypix(v):
            return mt + (H - mt - mb) * (vmax - v) / (vmax - vmin)

        body.append(f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" '
                    f'stroke="black"/>')
        body.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" '
                    f'stroke="black"/>')
        for e in eps_all:
            body.append(f'<text x="{xs[e]:.1f}" y="{H - mb + 18}" font-size="11" '
                        f'text-anchor="middle">{_eps_label(e)}</text>')
        for frac in (0.0, 0.5, 1.0):
            v = vmin + frac * (vmax - vmin)
            body.append(f'<text x="{ml - 6}" y="{ypix(v):.1f}" font-size="11" '
                        f'text-anchor="end">{v:.4g}</text>')
        colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                  "#8c564b", "#17becf", "#7f7f7f")
        for i, key in enumerate(sorted(pts)):
            series = sorted(pts[key], reverse=True)
            col = colors[i % len(colors)]
            path = " ".join(f"{xs[e]:.1f},{ypix(v):.1f}" for e, v in series)
            body.append(f'<polyline points="{path}" fill="none" stroke="{col}" '
                        f'stroke-width="1.5"/>')
            body.append(f'<text x="{W - mr + 8}" y="{mt + 14 * (i + 1)}" '
                        f'font-size="11" fill="{col}">alpha={key[0]:g} '
                        f'n={key[1]}</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def emit(report: ExperimentReport, fmt: str, out_dir: str) -> Path:
    """Write the report as CSV or SVG; byte-deterministic for fixed inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out / f"{report.experiment}.csv"
        path.write_text(report.to_csv(), encoding="utf-8")
    elif fmt == "svg":
        path = out / f"{report.experiment}.svg"
        path.write_text(_svg(report), encoding="utf-8")
    else:
        raise ValueError("format must be 'csv' or 'svg'")
    return path


# ---------------------------------------------------------------------------
# shared solve helpers

def _sweep(cfg, alphas, solve):
    """`{(alpha, eps): (mesh, solve(mesh, diffeo, (alpha, eps)))}` for every
    cell of the sweep, solved in order.  Every cell's mesh and layer map is
    built before the first cell is solved, so a cell without an admissible
    layer fails before any is."""
    cells = [(a, e) for a in alphas for e in cfg.eps_list]
    setups = [(cfg.mesh_for(*cell), cfg.diffeo(*cell), cell) for cell in cells]
    return {cell: (mesh, solve(mesh, dif, cell)) for mesh, dif, cell in setups}


def _steklov_cell(cfg, mesh, bc, forms, part, domain):
    """The Steklov solve of each volume form in `forms` against
    NormalTrace(part), in order: the pencils share one DOF map, one trace
    factor B and one pull-back of the cell, and each A goes straight into
    its solve, so that no A outlives it."""
    dm = mark_essential(mesh, bc)
    cell = CellPullBack(mesh, domain, cfg.quad_order)
    B = assemble(normal_trace(part), mesh, dm, domain, cfg.quad_order, cell)
    return [solve_steklov(assemble(form, mesh, dm, domain, cfg.quad_order,
                                   cell), B, k=cfg.k, seed=cfg.seed)
            for form in forms]


def _base_header(cfg: ExperimentConfig):
    eps = ", ".join(_eps_label(e) for e in cfg.eps_list)
    return [
        f"experiment: {cfg.experiment}",
        f"profile: cosine coefficients {list(cfg.coefficients)}",
        f"eps sweep: {eps}; k={cfg.k}; seed={cfg.seed}",
        f"mesh: ny={cfg.ny} grading={cfg.grading}; at least {cfg.per_period} "
        "x-elements per period, refined where the graph is steep; each row's "
        "nx gives its mesh",
        "rows: n > 0 data (eps = 0 marks reference solves); n <= 0 metric "
        "rows, Satisfied iff value <= reference",
    ]


def _ratio(first, last):
    return last / max(first, 1e-300)


def _trend_metrics(report, alpha, gaps, ref, n, rel_bound):
    """Metric n, the final gap relative to `ref`, and metric n - 1, the
    largest successive gap ratio of one eigenvalue sweep; a ratio of two gaps
    below the noise floor 1e-9 |ref| counts as converged (0)."""
    report.metric(alpha, n, gaps[-1] / abs(ref), rel_bound)
    floor = 1e-9 * abs(ref)
    ratios = [0.0 if max(a, b) <= floor else _ratio(a, b)
              for a, b in zip(gaps, gaps[1:])]
    report.metric(alpha, n - 1, max(ratios, default=0.0), THRESHOLDS["monotone"])


# ---------------------------------------------------------------------------
# experiment 1: trichotomy

def run_trichotomy(config: ExperimentConfig) -> ExperimentReport:
    """Eigenvalues of the curvature-form problem with a clamped lower frame
    and the spectral trace on the oscillating top edge, across the three
    exponent regimes."""
    cfg = config
    report = ExperimentReport("trichotomy", tuple(_base_header(cfg) + [
        f"alphas: {list(cfg.alphas)}",
        "metric legend: n=-1 final relative gap; n=-2 max successive gap "
        "ratio; n=-3 critical gap halving; n=-4 divergence "
        "(2*lam1(eps_max)/lam1(eps_min))",
        f"thresholds: rel_gap<={THRESHOLDS['stable_rel_gap']}, "
        f"halving<={THRESHOLDS['critical_halving']}, "
        f"divergence factor>={THRESHOLDS['divergence_factor']}",
        "n=0 row carries the strange curvature gamma",
    ]))
    mesh0 = cfg.reference_mesh()
    lam0 = _steklov_cell(cfg, mesh0, "DirichletAll+ClampSigma",
                         (HESSIAN_ENERGY,), "Gamma", None)[0].eigenvalues
    gamma = solve_cell(cfg.profile(1.5)).gamma
    report.add(0.0, 0.0, mesh0.nx, mesh0.ny, 0, gamma, 0.0, 0.0, "Info")
    report.data(0.0, 0.0, mesh0, 1, lam0, lam0)

    cells = _sweep(cfg, cfg.alphas, lambda mesh, dif, _: _steklov_cell(
        cfg, mesh, "DirichletAll+ClampSigma", (HESSIAN_ENERGY,), "Gamma",
        dif)[0].eigenvalues)
    for a in cfg.alphas:
        targets = lam0 + gamma if abs(a - 1.5) < 1e-12 else lam0
        for e in cfg.eps_list:
            mesh, lam = cells[a, e]
            report.data(a, e, mesh, 1, lam, targets)
        lam1 = [cells[a, e][1][0] for e in cfg.eps_list]
        gaps = [abs(v - targets[0]) for v in lam1]
        if a > 1.5 + 1e-12:
            _trend_metrics(report, a, gaps, targets[0], -1,
                           THRESHOLDS["stable_rel_gap"])
        elif abs(a - 1.5) < 1e-12:
            report.metric(a, -3, _ratio(gaps[0], gaps[-1]),
                          THRESHOLDS["critical_halving"])
        else:
            value = THRESHOLDS["divergence_factor"] * lam1[0]
            report.metric(a, -4, value / lam1[-1], 1.0)
    return report


# ---------------------------------------------------------------------------
# experiment 2: DBS spectral convergence (alpha > 3/2)

def run_dbs_convergence(config: ExperimentConfig) -> ExperimentReport:
    """Both Steklov pencils on the perturbed strip against the flat reference,
    plus the transplanted H2 distance of the first eigenfunction."""
    cfg = config
    if cfg.alpha <= 1.5:
        raise ConfigError("DBS convergence requires alpha > 3/2")
    prof = cfg.profile(cfg.alpha)
    assumption = check_assumptions(prof, cfg.eps_list, kappa_rule=cfg.kappa)
    if assumption.verdict != "Satisfied":
        raise AssumptionViolatedError(assumption)

    report = ExperimentReport("dbs-convergence", tuple(_base_header(cfg) + [
        f"alpha: {cfg.alpha}",
        "rows: n=1..k bending-form eigenvalues d_n(eps) vs d_n(0); "
        "n=101..100+k curvature-form delta_n; n=201 H2 E-distance of mode 1",
        "metric legend: n=-1/-101 final relative gaps; n=-2/-102 max "
        "successive gap ratios; n=-201 E-distance halving",
    ]))

    def solve(mesh, dif, _):
        # both forms' pencils on each domain, perturbed then flat
        lap, hess = zip(*(_steklov_cell(
            cfg, mesh, "DirichletAll", (LAPLACIAN_ENERGY, HESSIAN_ENERGY),
            "All", d) for d in (dif, None)))
        # transplanted H2 distance of the leading bending-form eigenfunction,
        # the norm of w = q_eps - s q_ref with s the sign of the Mass cross
        # term q_eps^T M q_ref.  One quadrature pass takes both candidates
        # q_eps -+ q_ref; by polarization s = -1 iff q_eps + q_ref has the
        # smaller L2 norm.  w vanishes on the constrained DOFs of the map
        q_eps, q_ref = (s.modes[:, 0] for s in lap)
        grams = sobolev_forms((MASS, GRAD_MASS, HESSIAN_ENERGY),
                              (q_eps - q_ref, q_eps + q_ref), mesh,
                              mark_essential(mesh, "DirichletAll"), dif,
                              cfg.quad_order)
        norms = grams.diagonal(axis1=1, axis2=2)
        val = norms[:, int(norms[0, 1] < norms[0, 0])].sum()
        return {"lap": lap, "hess": hess}, float(np.sqrt(max(val, 0.0)))

    cells = _sweep(cfg, (cfg.alpha,), solve)
    for tag, base in (("lap", 0), ("hess", 100)):
        gaps = []
        for e in cfg.eps_list:
            mesh, (spectra, _) = cells[cfg.alpha, e]
            lam, ref = (s.eigenvalues for s in spectra[tag])
            report.data(cfg.alpha, e, mesh, base + 1, lam, ref)
            gaps.append(max(abs(lam[0] - ref[0]), 1e-300))
        _trend_metrics(report, cfg.alpha, gaps, ref[0], -1 - base,
                       THRESHOLDS["stable_rel_gap"])

    for e in cfg.eps_list:
        mesh, (_, dist) = cells[cfg.alpha, e]
        report.data(cfg.alpha, e, mesh, 201, [dist])
    dists = [cells[cfg.alpha, e][1][1] for e in cfg.eps_list]
    ratio = 0.0 if max(dists) <= 1e-9 else _ratio(dists[0], dists[-1])
    report.metric(cfg.alpha, -201, ratio, THRESHOLDS["edist_halving"])
    return report


# ---------------------------------------------------------------------------
# experiment 3: degeneration toward the clamped top edge (alpha < 3/2)

def run_degeneration(config: ExperimentConfig) -> ExperimentReport:
    """Curvature-form eigenvalues on the perturbed strip against the clamped
    reference spectrum they degenerate to."""
    cfg = config
    if not (1.0 - 1e-12 <= cfg.alpha < 1.5):
        raise ConfigError("degeneration requires alpha in [1, 3/2)")
    report = ExperimentReport("degeneration", tuple(_base_header(cfg) + [
        f"alpha: {cfg.alpha}",
        "rows: n=1..k eigenvalues vs the clamped-top reference; "
        "n=301..300+k clamped (value) vs unclamped (reference) spectra",
        f"metric legend: n=-1 final relative gap (<= "
        f"{THRESHOLDS['degeneration_gap']}); n=-2 max successive gap ratio",
    ]))
    mesh0 = cfg.reference_mesh()
    clamp, plain = (_steklov_cell(cfg, mesh0, bc, (HESSIAN_ENERGY,), "All",
                                  None)[0].eigenvalues
                    for bc in ("DirichletAll+ClampGamma", "DirichletAll"))
    report.data(0.0, 0.0, mesh0, 301, clamp, plain)

    cells = _sweep(cfg, (cfg.alpha,), lambda mesh, dif, _: _steklov_cell(
        cfg, mesh, "DirichletAll", (HESSIAN_ENERGY,), "All",
        dif)[0].eigenvalues)
    for e in cfg.eps_list:
        mesh, lam = cells[cfg.alpha, e]
        report.data(cfg.alpha, e, mesh, 1, lam, clamp)
    gaps = [abs(cells[cfg.alpha, e][1][0] - clamp[0]) for e in cfg.eps_list]
    _trend_metrics(report, cfg.alpha, gaps, clamp[0], -1,
                   THRESHOLDS["degeneration_gap"])
    return report


# ---------------------------------------------------------------------------
# experiment 4: Navier stability and the modified-Navier regimes

def _trace_lift(cfg):
    w = cfg.w_len
    fv = lambda x, y: np.sin(np.pi * x / w)
    fx = lambda x, y: (np.pi / w) * np.cos(np.pi * x / w)
    fy = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return fv, fx, fy


def run_navier_stability(config: ExperimentConfig) -> ExperimentReport:
    """Hinged-plate sweeps: the bending-form problem is stable, the
    curvature-form problem shows the three regimes."""
    cfg = config
    thr = THRESHOLDS
    report = ExperimentReport("navier-stability", tuple(_base_header(cfg) + [
        f"bending-form alpha: {cfg.alpha}; curvature-form alphas: "
        f"{list(cfg.alphas)}",
        "rows: n=1..3 bending-form error norms (L2, gradient, laplacian); "
        "n=11..13 curvature-form error norms (L2, gradient, hessian); "
        "n=14 normal-trace norm on the oscillating edge",
        "metric legend: n=-1..-3 bending norm halving; n=-11..-13 "
        "curvature-form norm convergence trend (alpha > 3/2); n=-14 trace "
        f"reduction (<= {thr['trace_factor']:.6g}); n=-15 relative H1 "
        "distance of the empirical limit to the curvature-shifted discrete "
        f"solution (<= {thr['gamma_residual']}); n=-16 first-order "
        "convergence trend at the critical exponent",
    ]))
    f_triple = _trace_lift(cfg)
    gamma = solve_cell(cfg.profile(1.5)).gamma

    def flat_solutions(alphas, form):
        """The flat-strip solve on each distinct mesh of a sweep, by nx."""
        meshes = {m.nx: m for m in (cfg.mesh_for(a, e) for a in alphas
                                    for e in cfg.eps_list)}
        flat = {}
        for nx, mesh in meshes.items():
            flat[nx] = solve_navier(mesh, f_triple, form=form, domain=None)
            flat[nx].factor = None      # never solved with again
        return flat

    def error_norms(mesh, dif, form, sol_0):
        """The solve's DOF map and free solution vector, and the pulled-back
        L2, gradient and energy norms of w = u_eps - u_0, the energy form
        being the solved one (bending or curvature); the solve and the norms
        read one pull-back of the cell.  w is taken in defect form,
        A_eps^{-1} (F_eps - A_eps u_0), on the solve's factor, so that the
        factor's rounding enters it relative to w, not to the two solutions
        whose difference it is."""
        cell = CellPullBack(mesh, dif, cfg.quad_order)
        sol_e = solve_navier(mesh, f_triple, form=form, domain=dif,
                             quad_order=cfg.quad_order, cell=cell)
        dm, A, u_eps = sol_e.dofmap, sol_e.system, sol_e.u_free
        w = sol_e.factor.solve(sol_e.load - A @ sol_0.u_free)
        del sol_e           # its factor is freed before the mass/gradient pass
        # w vanishes on the constrained DOFs, so its free-DOF norms are its
        # full-DOF norms; L2 and gradient by quadrature, energy on A
        mass, grad = sobolev_forms((MASS, GRAD_MASS), w, mesh, dm, dif,
                                   cfg.quad_order, cell)[:, 0, 0]
        return dm, u_eps, tuple(float(np.sqrt(v)) for v in (
            mass, grad, w @ (A @ w)))

    def gamma_residual(mesh, dm, u_eps):
        """Does the empirical limit satisfy the curvature-shifted flat
        equation?  Measured as the relative first-order distance to the
        discrete solution of that equation (the raw residual vector has no
        scale on a graded mesh, and only first-order norms converge in this
        regime)."""
        sol_0 = flat[mesh.nx]
        # A_gam = A_0 + gamma C C^T, C the flat Gamma trace factor, is
        # factored from A_0's blocks and C, and multiplied through them
        A_0, C = sol_0.system, assemble_boundary_factor(normal_trace("Gamma"),
                                                        mesh, dm)
        factor_gam = factor_spd(A_0, C, -gamma)
        u_gam = factor_gam.solve(sol_0.load)
        # u_eps - u_gam in defect form, A_gam^{-1} (A_gam u_eps - F_0), so
        # that the factor's rounding enters relative to the difference
        w_free = factor_gam.solve(A_0 @ u_eps + gamma * (C @ (C.T @ u_eps))
                                  - sol_0.load)
        del factor_gam          # freed before the mass/gradient pass
        mass, grad = sobolev_forms((MASS, GRAD_MASS), (w_free, u_gam), mesh,
                                   dm).diagonal(axis1=1, axis2=2)
        h1 = np.sqrt(mass + grad)                   # of w_free, of u_gam
        return h1[0] / h1[1]

    e0, e1 = cfg.eps_list[0], cfg.eps_list[-1]

    # bending form: stable sweep
    flat = flat_solutions((cfg.alpha,), LAPLACIAN_ENERGY)
    cells = _sweep(cfg, (cfg.alpha,), lambda mesh, dif, _: error_norms(
        mesh, dif, LAPLACIAN_ENERGY, flat[mesh.nx])[2])
    for e in cfg.eps_list:
        mesh, vals = cells[cfg.alpha, e]
        report.data(cfg.alpha, e, mesh, 1, vals)
    first, last = cells[cfg.alpha, e0][1], cells[cfg.alpha, e1][1]
    for i in range(3):
        report.metric(cfg.alpha, -1 - i, _ratio(first[i], last[i]),
                      thr["norm_halving"])
    del flat            # the bending form's flat solutions are not read again

    # curvature form: the three regimes; norms are (L2, gradient, hessian),
    # then the normal trace on the oscillating edge
    flat = flat_solutions(cfg.alphas, HESSIAN_ENERGY)

    def curvature_cell(mesh, dif, key):
        dm, u_eps, nrm = error_norms(mesh, dif, HESSIAN_ENERGY, flat[mesh.nx])
        # the factor pulls back the top edge alone
        trace = float(np.linalg.norm(assemble_boundary_factor(
            normal_trace("Gamma"), mesh, dm, dif, cfg.quad_order).T @ u_eps))
        # metric n = -15 is read off the critical cell at eps_min alone
        critical = abs(key[0] - 1.5) < 1e-12 and key[1] == e1
        return nrm + (trace,), (gamma_residual(mesh, dm, u_eps) if critical
                                else None)

    cells = _sweep(cfg, cfg.alphas, curvature_cell)
    for a in cfg.alphas:
        for e in cfg.eps_list:
            mesh, (vals, _) = cells[a, e]
            report.data(a, e, mesh, 11, vals)
        first, last = cells[a, e0][1][0], cells[a, e1][1][0]
        if a > 1.5 + 1e-12:
            # convergence in all norms up to second order; no rate is implied
            # for the curvature-form problem, so the trend test is monotone
            for i in range(3):
                report.metric(a, -11 - i, _ratio(first[i], last[i]),
                              thr["monotone"])
        elif abs(a - 1.5) < 1e-12:
            report.metric(a, -16, _ratio(first[1], last[1]), 1.0)
            report.metric(a, -15, cells[a, e1][1][1], thr["gamma_residual"])
        else:
            report.metric(a, -14, _ratio(first[3], last[3]), thr["trace_factor"])
    return report


# ---------------------------------------------------------------------------
# CLI

RUNNERS = {
    "trichotomy": run_trichotomy,
    "dbs-convergence": run_dbs_convergence,
    "degeneration": run_degeneration,
    "navier-stability": run_navier_stability,
}

ALIASES = {"dbs": "dbs-convergence", "navier": "navier-stability"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="steklov-lab",
        description="Finite-element experiments for biharmonic Steklov "
                    "problems on oscillating-boundary strips")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + sorted(ALIASES))
    parser.add_argument("--config", default=None, help="key = value file")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    name = ALIASES.get(args.experiment, args.experiment)
    try:
        cfg = load_config(name, args.config, out_dir=args.out)
        report = RUNNERS[name](cfg)
    except (ConfigError, AssumptionViolatedError, ProfileError) as exc:
        parser.error(" ".join(str(exc).split()))      # one line, exit code 2
    except (GeometryError, SpectralConvergenceError, NoSteklovEigenvalues,
            MemoryError, LinAlgError) as exc:
        # a factor over budget or not positive definite: not a Violated row
        parser.exit(3, f"{parser.prog}: run failed: "
                       f"{' '.join(str(exc).split())}\n")
    csv_path = emit(report, "csv", cfg.out_dir)
    emit(report, "svg", cfg.out_dir)

    for row in report.metric_rows:
        print(f"[{row.verdict:9s}] alpha={row.alpha:g} metric n={row.n}: "
              f"value={row.value:.6g} threshold={row.reference:.6g}")
    print(f"report: {csv_path}")
    ok = report.all_satisfied
    print("overall:", "Satisfied" if ok else "Violated")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
