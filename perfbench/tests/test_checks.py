"""Each report check passes on the workload's own report and fails when one
value of that report is perturbed."""

import copy

import pytest

from checks import REPORT_CHECKS, read_report
from workloads import WORKLOADS, config_text


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def report(request, tmp_path_factory):
    from steklov_lab.lab_cli import RUNNERS, emit, load_config
    experiment = request.param
    out = tmp_path_factory.mktemp(request.param)
    cfg_path = out / "bench.cfg"
    cfg_path.write_text(config_text(request.param, 0))
    cfg = load_config(experiment, str(cfg_path))
    path = emit(RUNNERS[experiment](cfg), "csv", str(out))
    return experiment, cfg, read_report(path)


def _perturbed(rows, alpha, eps, n, **changes):
    """Copy of the report with the fields of one row changed; a callable
    change gets the old value."""
    out = copy.deepcopy(rows)
    hits = [r for r in out if r["n"] == n and r["eps"] == eps
            and abs(r["alpha"] - alpha) < 1e-12]
    assert len(hits) == 1
    for key, val in changes.items():
        hits[0][key] = val(hits[0][key]) if callable(val) else val
    return out



def _get(rows, alpha, eps, n):
    return next(r for r in rows if r["n"] == n and r["eps"] == eps
                and abs(r["alpha"] - alpha) < 1e-12)


def _cases(experiment, cfg, rows):
    e0, e1 = cfg.eps_list[0], cfg.eps_list[-1]
    if experiment == "trichotomy":
        lam0 = _get(rows, 0.0, 0.0, 1)["value"]
        gamma = _get(rows, 0.0, 0.0, 0)["value"]
        gap2 = abs(_get(rows, 2.0, e0, 1)["value"] - lam0)
        gap32 = abs(_get(rows, 1.5, e0, 1)["value"] - lam0 - gamma)
        lam12 = _get(rows, 1.2, e0, 1)["value"]
        return {
            "!= 6 pi^3": _perturbed(rows, 0.0, 0.0, 0, value=lambda v: v * (1 + 1e-6)),
            "!= lambda0 + gamma": _perturbed(
                rows, 1.5, e1, 1, reference=lambda v: v * (1 + 1e-6)),
            "alpha=2.0: gap to lambda0 does not shrink": _perturbed(
                rows, 2.0, e1, 1, value=lam0 + 1.01 * gap2),
            "gap to lambda0 + gamma does not shrink": _perturbed(
                rows, 1.5, e1, 1, value=lam0 + gamma - 1.01 * gap32),
            "does not double": _perturbed(rows, 1.2, e1, 1, value=1.99 * lam12),
            "lambda1 > lambda2": _perturbed(
                rows, 2.0, e0, 1, value=_get(rows, 2.0, e0, 2)["value"] * 1.001),
            "nonpositive eigenvalue": _perturbed(rows, 2.0, e0, 1, value=-1.0),
            "verdict": _perturbed(rows, 2.0, 0.0, -1, verdict="Satisfied"),
        }
    if experiment == "navier-stability":
        return {
            "falls less than half": _perturbed(
                rows, cfg.alpha, e1, 1,
                value=0.51 * _get(rows, cfg.alpha, e0, 1)["value"]),
            "n=12 does not fall": _perturbed(
                rows, 2.0, e1, 12, value=1.01 * _get(rows, 2.0, e0, 12)["value"]),
            "trace reduction": _perturbed(
                rows, 1.2, e1, 14, value=0.34 * _get(rows, 1.2, e0, 14)["value"]),
            "residual": _perturbed(
                rows, 1.5, 0.0, -15, value=0.051, verdict="Violated"),
        }
    clamp = _get(rows, 0.0, 0.0, 301)
    return {
        "below unclamped": _perturbed(
            rows, 0.0, 0.0, 301, value=clamp["reference"] * (1 - 1e-6)),
        "final relative gap": _perturbed(rows, cfg.alpha, e1, 1,
                                          value=clamp["value"] * 1.051),
        "nonpositive eigenvalue": _perturbed(rows, cfg.alpha, e0, 2, value=-1.0),
    }


def test_report_passes(report):
    experiment, cfg, rows = report
    assert REPORT_CHECKS[experiment](rows, cfg) == []


def test_each_perturbation_fails(report):
    """Keys of `_cases` are fragments of the failure each perturbation must
    raise, so a case cannot pass by tripping some other check."""
    experiment, cfg, rows = report
    missed = [fragment for fragment, bad in _cases(experiment, cfg, rows).items()
              if not any(fragment in msg
                         for msg in REPORT_CHECKS[experiment](bad, cfg))]
    assert missed == []
