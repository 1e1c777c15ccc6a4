import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklov_lab.lab_cli import EXPERIMENT_DEFAULTS, load_config
from steklov_lab.profile_geometry import (BoundaryProfile, DiffeoField,
                                          DomainSpec, KappaLayer, ProfileError,
                                          check_assumptions, default_kappa,
                                          fit_kappa_layer)

from oracles import det_sample


def cos_profile(alpha, coeffs=(1.0, 1.0)):
    return BoundaryProfile.fourier_cosine(coeffs, alpha)


def spec_for(alpha, eps, coeffs=(1.0, 1.0)):
    return DomainSpec(epsilon=eps, profile=cos_profile(alpha, coeffs))


# ---------------------------------------------------------------------------
# profile evaluation

def test_eval_profile_at_cell_origin():
    # b(0) = 2, eps^alpha = 1/16
    spec = spec_for(alpha=2.0, eps=0.25)
    assert spec.g(np.array([0.0]), 0)[0] == pytest.approx(0.125, abs=1e-15)


def test_eval_profile_first_derivative_vanishes_at_peak():
    spec = spec_for(alpha=1.5, eps=0.125)
    # peaks of b(x/eps) sit at integer multiples of eps
    x = np.array([0.0, 0.125, 0.25])
    assert np.max(np.abs(spec.g(x, 1))) < 1e-12


def test_eval_profile_second_derivative_vs_finite_differences():
    spec = spec_for(alpha=1.5, eps=0.125)
    x = 1.0 / 16.0
    d = 1e-5
    fd = (spec.g(x + d, 0) - 2 * spec.g(x, 0)
          + spec.g(x - d, 0)) / d ** 2
    exact = spec.g(x, 2)
    assert abs(fd - exact) <= 1e-6 * abs(exact)


def test_eval_profile_rejects_high_order():
    spec = spec_for(2.0, 0.125)
    with pytest.raises(ProfileError):
        spec.g(0.1, 3)


def test_profile_must_be_nonnegative():
    with pytest.raises(ProfileError):
        BoundaryProfile.fourier_cosine([0.0, 1.0], alpha=2.0)  # cos dips below 0


def test_nonconstant_flag():
    assert cos_profile(2.0).nonconstant
    assert not BoundaryProfile.fourier_cosine([1.0], 2.0).nonconstant
    assert not BoundaryProfile.fourier_cosine([0.0], 2.0).nonconstant


def test_domain_spec_periodic_fit():
    with pytest.raises(ProfileError):
        DomainSpec(epsilon=0.3, profile=cos_profile(2.0))


def test_domain_spec_headroom():
    # amplitude 2 * eps^alpha must stay below 1
    with pytest.raises(ProfileError):
        DomainSpec(epsilon=0.5, profile=cos_profile(0.2))


# ---------------------------------------------------------------------------
# diffeomorphism

def h(dif, x, y):
    """The layer map h, whose flattening map is Phi(x, y) = (x, y - h)."""
    return dif.h_derivs(x, y)[0]


def test_identity_below_layer():
    spec = spec_for(2.0, 0.125)
    dif = DiffeoField(spec, KappaLayer(kappa_eps=0.1, k_hat=8.0))
    x = np.linspace(0, 1, 40)
    y = np.full_like(x, -0.95)
    assert np.max(np.abs(h(dif, x, y))) == 0.0
    assert np.max(np.abs(dif.det(x, y) - 1.0)) == 0.0


def test_graph_maps_to_flat_top():
    spec = spec_for(2.0, 0.125)
    dif = DiffeoField(spec, KappaLayer(kappa_eps=0.1, k_hat=8.0))
    x = np.linspace(0, 1, 33)
    g = spec.g(x)
    assert np.max(np.abs(g - h(dif, x, g))) < 1e-14


def test_jacobian_bounds_inside_certified_window():
    # alpha = 2, kappa = eps^(4/3), k_hat = 8: det within [1/2, 3/2]
    for eps in (0.125, 0.0625):
        spec = spec_for(2.0, eps)
        dif = DiffeoField(spec, KappaLayer(kappa_eps=eps ** (4.0 / 3.0), k_hat=8.0))
        dets = det_sample(dif)
        assert 0.5 <= dif.det_min <= np.min(dets)
        assert np.max(dets) <= dif.det_max <= 1.5


def test_layer_parameter_errors():
    spec = spec_for(2.0, 0.125)
    with pytest.raises(ProfileError, match="must exceed 6"):
        DiffeoField(spec, KappaLayer(kappa_eps=0.1, k_hat=6.0))
    with pytest.raises(ProfileError, match="layer too thin"):
        DiffeoField(spec, KappaLayer(kappa_eps=spec.sup_g() * 0.5, k_hat=8.0))
    with pytest.raises(ProfileError, match="layer too deep"):
        DiffeoField(spec, KappaLayer(kappa_eps=0.13, k_hat=8.0))


def _layer_points(spec, dif, n, rng):
    x = rng.uniform(0.0, spec.w_len, n)
    lo = np.maximum(spec.g(x) - dif.layer.depth, -1.0)
    hi = spec.g(x)
    y = lo + rng.uniform(0.02, 0.98, n) * (hi - lo)
    return x, y


@pytest.mark.parametrize("layer", [KappaLayer(kappa_eps=0.1, k_hat=8.0)])
def test_h_bounds_and_top_match(layer):
    spec = spec_for(2.0, 0.125)
    dif = DiffeoField(spec, layer)
    rng = np.random.default_rng(3)
    x, y = _layer_points(spec, dif, 500, rng)
    assert np.max(np.abs(h(dif, x, y))) <= spec.sup_g() + 1e-15
    g = spec.g(x)
    assert np.max(np.abs(h(dif, x, g) - g)) < 1e-15


def _fd2(f, x, y, which, d=2e-5):
    """Fourth-order central second differences (the oscillating coefficient
    makes plain three-point stencils too inaccurate at certifiable steps)."""
    if which == "xx":
        m2, m1, c0, p1, p2 = (f(x + s * d, y) for s in (-2, -1, 0, 1, 2))
        return (-p2 + 16 * p1 - 30 * c0 + 16 * m1 - m2) / (12 * d * d)
    if which == "yy":
        m2, m1, c0, p1, p2 = (f(x, y + s * d) for s in (-2, -1, 0, 1, 2))
        return (-p2 + 16 * p1 - 30 * c0 + 16 * m1 - m2) / (12 * d * d)

    def cross(step):
        return (f(x + step, y + step) - f(x + step, y - step)
                - f(x - step, y + step) + f(x - step, y - step)) / (4 * step * step)

    return (4.0 * cross(d) - cross(2 * d)) / 3.0  # Richardson to O(d^4)


@pytest.mark.parametrize("layer", [KappaLayer(kappa_eps=0.1, k_hat=8.0)])
def test_second_derivatives_match_finite_differences(layer):
    spec = spec_for(2.0, 0.125)
    dif = DiffeoField(spec, layer)
    rng = np.random.default_rng(7)
    x, y = _layer_points(spec, dif, 1000, rng)
    _, _, _, hxx, hxy, hyy = dif.h_derivs(x, y)
    for exact, which in ((hxx, "xx"), (hxy, "xy"), (hyy, "yy")):
        fd = _fd2(lambda x, y: h(dif, x, y), x, y, which)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - fd)) <= 1e-5 * scale


def test_hessian_scale_decays_when_condition_holds():
    # max |D^2 h| * kappa^(1/2) shrinks along the sweep for alpha > 3/2
    rng = np.random.default_rng(11)
    vals = []
    for eps in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        spec = spec_for(2.0, eps)
        kap = default_kappa(2.0, eps)
        dif = DiffeoField(spec, KappaLayer(kappa_eps=kap, k_hat=8.0))
        x, y = _layer_points(spec, dif, 4000, rng)
        _, _, _, hxx, hxy, hyy = dif.h_derivs(x, y)
        size = np.sqrt(hxx ** 2 + 2 * hxy ** 2 + hyy ** 2)
        vals.append(np.max(size) * np.sqrt(kap))
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_physical_y_inverts_the_map():
    spec = spec_for(2.0, 0.125)
    dif = DiffeoField(spec, KappaLayer(kappa_eps=0.1, k_hat=8.0))
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, 400)
    yhat = rng.uniform(-1.0, 0.0, 400)
    y = dif.physical_y(x, yhat)
    assert np.max(np.abs(y - h(dif, x, y) - yhat)) < 1e-12
    # at or below the layer bottom the map is the identity: yhat comes back
    # exactly; the flat top yhat = 0 comes back as the graph g_eps(x)
    lo = spec.g(x) - dif.layer.depth
    yhat = np.concatenate([lo, lo - rng.uniform(0.0, 1.0 + lo)])
    xx = np.concatenate([x, x])
    assert np.array_equal(dif.physical_y(xx, yhat), yhat)
    top = dif.physical_y(x, np.zeros_like(x))
    assert np.max(np.abs(top - spec.g(x))) < 1e-13


def test_physical_y_stops_each_row_on_its_own():
    # rows stacked into one call take the Newton steps, and so give the bits,
    # of one call per row: a row below the layer (no step), rows that start
    # at the top, on a steep graph, and inside the layer, which converge
    # after different step counts, and a one-point row; and with leading
    # axes that flatten into rows
    spec = spec_for(1.2, 0.125)
    dif = DiffeoField(spec, fit_kappa_layer(spec))
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (4, 30))
    lo = spec.g(x) - dif.layer.depth
    yhat = np.stack([lo[0] - rng.uniform(0.0, 0.5, 30), np.zeros(30),
                     -rng.uniform(0.0, 0.02, 30),
                     lo[3] + rng.uniform(0.0, 1.0, 30) * (0.0 - lo[3])])
    one = [dif.physical_y(xr, yr) for xr, yr in zip(x, yhat)]
    got = dif.physical_y(x, yhat)
    assert got.shape == yhat.shape
    assert np.array_equal(got.view(np.uint64), np.stack(one).view(np.uint64))
    stacked = dif.physical_y(x.reshape(2, 2, 30), yhat.reshape(2, 2, 30))
    assert np.array_equal(stacked.reshape(4, 30), np.stack(one))
    # one point per row, and a row broadcast against its abscissae
    assert np.array_equal(dif.physical_y(x[:, :1], yhat[:, :1]),
                          np.stack([r[:1] for r in one]))
    row = dif.physical_y(x[2], yhat[2])
    assert np.array_equal(dif.physical_y(x[2], np.broadcast_to(yhat[2], (3, 30))),
                          np.broadcast_to(row, (3, 30)))


def _default_layer_maps():
    """{(experiment, alpha, eps): layer map} for every distinct cell that
    the four experiments sweep at their default configs."""
    maps = {}
    for name in EXPERIMENT_DEFAULTS:
        cfg = load_config(name)
        alphas = ((cfg.alpha,) if name in ("dbs-convergence", "degeneration")
                  else {cfg.alpha, *cfg.alphas})
        for a in alphas:
            for e in cfg.eps_list:
                maps[name, a, e] = cfg.diffeo(a, e)
    return maps


def test_det_bounds_contain_the_sampled_det():
    # det DPhi = 1 - 3 g_eps t^2 / d is smallest at the crest top and 1 at
    # the layer bottom.  The 200 x 200 sample reaches both on the default
    # profile (a crest at x = 0), so there the closed form is its extremes
    maps = _default_layer_maps()
    assert len(maps) == 24
    for key, dif in maps.items():
        dets = det_sample(dif)
        assert dif.det_min == np.min(dets), key
        assert dif.det_max == np.max(dets) == 1.0, key
    lowest = min(maps, key=lambda k: maps[k].det_min)
    assert lowest[1:] == (1.2, 0.125)
    assert maps[lowest].det_min == pytest.approx(0.50469, abs=5e-6)
    # b = 1 - cos(2 pi y) / 2 crests at x = (j + 1/2) eps, between the
    # sampled columns x = i / 36
    spec = spec_for(2.0, 0.125, coeffs=(1.0, -0.5))
    dif = DiffeoField(spec, fit_kappa_layer(spec))
    dets = det_sample(dif, 37)
    assert 0.5 < dif.det_min < np.min(dets)
    assert np.max(dets) <= dif.det_max


# ---------------------------------------------------------------------------
# the sharp convergence condition

def test_assumption_verdicts():
    eps_seq = [2.0 ** -k for k in range(3, 8)]
    assert check_assumptions(cos_profile(2.0), eps_seq).verdict == "Satisfied"
    assert check_assumptions(cos_profile(1.0), eps_seq).verdict == "Violated"
    rep = check_assumptions(cos_profile(1.5), eps_seq)
    assert rep.verdict == "Violated"
    # the second-derivative ratio has exponent 4*alpha/3 - 2 = 0: flat
    r2 = rep.ratios[2]
    assert not rep.decaying[2]
    assert np.max(np.abs(r2 / r2[0] - 1.0)) < 0.01


def test_assumption_checker_argument_errors():
    with pytest.raises(ValueError):
        check_assumptions(cos_profile(2.0), [])
    with pytest.raises(ValueError):
        check_assumptions(cos_profile(2.0), [0.1, 0.1])


def test_constant_profile_satisfies_condition():
    rep = check_assumptions(BoundaryProfile.fourier_cosine([0.0], 2.0),
                            [1 / 8, 1 / 16, 1 / 32])
    assert rep.verdict == "Satisfied"


def test_fit_kappa_layer_feasibility():
    lay = fit_kappa_layer(spec_for(1.2, 0.125))
    assert lay.k_hat > 6.0
    assert lay.kappa_eps > spec_for(1.2, 0.125).sup_g()
    with pytest.raises(ProfileError):
        fit_kappa_layer(spec_for(1.0, 0.125))   # sup g = 1/4 > 1/6


def test_fit_kappa_layer_keeps_the_rule_when_it_raises_k_hat():
    # k_hat = 6.001 is raised to 6.005; the rule's layer fits, so kappa
    # stays eps^(7/6), not the depth cap's 0.999 / 6.005
    spec = spec_for(2.0, 1 / 32)
    lay = fit_kappa_layer(spec, k_hat=6.001)
    assert lay.k_hat == 6.005
    assert lay.kappa_eps == default_kappa(2.0, 1 / 32)
    assert lay.kappa_eps == pytest.approx(0.01754, abs=5e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(1.1, 3.0), st.integers(3, 6))
def test_profile_periodicity_property(alpha, j):
    eps = 2.0 ** -j
    spec = spec_for(alpha, eps)
    x = np.linspace(0.0, 1.0 - eps, 17)
    a = spec.g(x, 0)
    b = spec.g(x + eps, 0)
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))
