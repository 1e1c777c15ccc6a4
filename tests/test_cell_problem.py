import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from steklov_lab.cell_problem import mode_energy_closed_form, solve_cell
from steklov_lab.lab_cli import load_config
from steklov_lab.profile_geometry import BoundaryProfile

from oracles import solve_cell_fem


def cos_profile(coeffs=(1.0, 1.0)):
    return BoundaryProfile.fourier_cosine(coeffs, alpha=1.5)


def quad_oracle(omega, A, B, lower):
    """Adaptive quadrature of the per-mode energy integrand."""
    v = lambda y: (A + B * y) * np.exp(omega * y)
    vp = lambda y: (B + omega * (A + B * y)) * np.exp(omega * y)
    vpp = lambda y: (2 * omega * B + omega ** 2 * (A + B * y)) * np.exp(omega * y)
    dens = lambda y: 0.5 * (omega ** 4 * v(y) ** 2 + 2 * omega ** 2 * vp(y) ** 2
                            + vpp(y) ** 2)
    val, _ = quad(dens, lower, 0.0, limit=400)
    return val


def test_single_mode_matches_adaptive_quadrature():
    sol = solve_cell(cos_profile())
    assert len(sol.modes) == 1
    m = sol.mode(1)
    assert m.A == pytest.approx(1.0)
    assert m.B == pytest.approx(-np.pi)
    oracle = quad_oracle(m.omega, m.A, m.B, -40.0 / m.omega)
    assert sol.gamma == pytest.approx(oracle, rel=1e-8)
    assert sol.gamma == pytest.approx(6.0 * np.pi ** 3, rel=1e-12)


def test_top_conditions():
    m = solve_cell(cos_profile()).mode(1)
    assert m.v(0.0) == pytest.approx(m.beta)        # trace
    assert abs(m.v(0.0, 2)) < 1e-12                 # flat second derivative


def test_constant_profile_has_zero_energy():
    assert solve_cell(BoundaryProfile.fourier_cosine([1.0], 1.5)).gamma == 0.0


def test_every_profile_mode_counts():
    # the config takes any number of coefficients and b(y) uses them all, so
    # gamma sums every mode: 3/4 (2 pi)^3 (0.5^2 + 17^3 * 0.01^2) = 137.91
    coeffs = (1.0, 0.5) + (0.0,) * 15 + (0.01,)
    sol = solve_cell(load_config("trichotomy", coefficients=coeffs).profile(1.5))
    assert [m.k for m in sol.modes] == [1, 17]
    expected = 0.75 * (2 * np.pi) ** 3 * (0.5 ** 2 + 17 ** 3 * 0.01 ** 2)
    assert sol.gamma == pytest.approx(expected, rel=1e-12)
    assert sol.gamma == pytest.approx(137.91, abs=5e-3)


def test_quadratic_scaling():
    g1 = solve_cell(cos_profile((1.0, 1.0))).gamma
    g2 = solve_cell(cos_profile((2.0, 2.0))).gamma
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_energy_density_integrates_to_gamma():
    # distinct frequencies are orthogonal over Y, so gamma is the sum of the
    # per-mode energies
    sol = solve_cell(cos_profile((1.5, 0.7, 0.3)))
    assert len(sol.modes) == 2
    val = sum(quad_oracle(m.omega, m.A, m.B, -12.0) for m in sol.modes)
    assert val == pytest.approx(sol.gamma, rel=1e-7)


def test_truncation_depth_error_bound():
    # tail of the energy integral decays like e^(-2wL) with a polynomial
    # prefactor; the (1 + wL)^2 factor makes the bound provable
    sol = solve_cell(cos_profile())
    m = sol.mode(1)
    w = m.omega
    # top density: V'' vanishes there, V' = w A + B
    d0 = 0.5 * (w ** 4 * m.A ** 2 + 2 * w ** 2 * (w * m.A + m.B) ** 2)
    for L in (1.0, 2.0, 3.0):
        gL = quad_oracle(m.omega, m.A, m.B, -L)
        tail = abs(sol.gamma - gL)
        bound = np.exp(-2 * w * L) * d0 / (2 * w) * (1 + w * L) ** 2
        assert tail <= bound
        assert tail <= 2e-4 * sol.gamma  # truncation at L >= 1 is already tiny


def test_fem_strip_cross_check():
    p = cos_profile((1.0, 0.8, 0.3))
    closed = solve_cell(p).gamma
    fem = solve_cell_fem(p, depth=3.0, n_elements=360)
    assert fem == pytest.approx(closed, rel=1e-6)
    # conforming truncation approaches from above
    assert fem >= closed * (1.0 - 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                min_size=1, max_size=4))
def test_gamma_positive_iff_nonconstant(tail):
    coeffs = [1.0 + sum(tail)] + tail   # keeps b nonnegative
    p = BoundaryProfile.fourier_cosine(coeffs, alpha=1.5)
    g = solve_cell(p).gamma
    if p.nonconstant:
        assert g > 0.0
        expected = sum(mode_energy_closed_form(2 * np.pi * k, c)
                       for k, c in enumerate(coeffs) if k >= 1)
        assert g == pytest.approx(expected, rel=1e-12)
    else:
        assert g == 0.0
