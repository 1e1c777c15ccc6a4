"""Strange curvature from the microscopic biharmonic problem on a half strip.

The periodic cell problem on Y x (-inf, 0) asks for a biharmonic V with top
trace V(y', 0) = b(y'), vanishing second vertical derivative at the top and
finite bending energy.  Per trigonometric mode with frequency w = 2*pi*k the
decaying solution is V_k(y) = (A + B y) e^{w y} with

    A = beta_k              (trace condition)
    B = -w A / 2            (w^2 A + 2 w B = 0 at the top)

and the cell-averaged energy of the mode is

    gamma_k = 1/2 * int_{-inf}^0 [w^4 V^2 + 2 w^2 V'^2 + V''^2] dy
            = 3/4 * w^3 * beta_k^2,

the factor 1/2 being the Y-average of cos^2 or sin^2.  The constant mode
extends to a constant and contributes nothing.  The total shift is
gamma = sum_k gamma_k, positive exactly when b is nonconstant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profile_geometry import BoundaryProfile, ProfileError

__all__ = ["CellMode", "CellSolution", "solve_cell", "mode_energy_closed_form"]


@dataclass(frozen=True)
class CellMode:
    k: int
    omega: float
    beta: float           # trig amplitude of the profile mode
    A: float              # = beta
    B: float              # = -omega * A / 2
    gamma: float

    def v(self, y, order: int = 0):
        """Vertical factor (A + B y) e^{w y} and its derivatives."""
        y = np.asarray(y, dtype=float)
        w, A, B = self.omega, self.A, self.B
        if order == 0:
            poly = A + B * y
        elif order == 1:
            poly = B + w * (A + B * y)
        elif order == 2:
            poly = 2 * w * B + w * w * (A + B * y)
        else:
            raise ValueError("order must be 0, 1 or 2")
        return poly * np.exp(w * y)


@dataclass(frozen=True)
class CellSolution:
    modes: tuple
    gamma: float

    def mode(self, k: int) -> CellMode | None:
        for m in self.modes:
            if m.k == k:
                return m
        return None


def mode_energy_closed_form(omega: float, beta: float) -> float:
    """gamma_k = 3/4 w^3 beta^2 (antiderivatives of the per-mode integrand)."""
    return 0.75 * omega ** 3 * beta ** 2


def _fourier_amplitudes(profile: BoundaryProfile):
    """Per-frequency trig amplitudes beta_k = |c_k| of the cosine series."""
    return {k: abs(c) for k, c in enumerate(profile.coefficients)
            if k >= 1 and c != 0.0}


def solve_cell(profile: BoundaryProfile) -> CellSolution:
    """Semi-analytic cell solution: one decaying mode per profile frequency."""
    if not isinstance(profile, BoundaryProfile):
        raise ProfileError("solve_cell expects a periodic BoundaryProfile")
    modes = []
    total = 0.0
    for k, beta in sorted(_fourier_amplitudes(profile).items()):
        w = 2.0 * np.pi * k
        A = beta
        B = -0.5 * w * A
        g = mode_energy_closed_form(w, beta)
        modes.append(CellMode(k=k, omega=w, beta=beta, A=A, B=B, gamma=g))
        total += g
    return CellSolution(modes=tuple(modes), gamma=total)
