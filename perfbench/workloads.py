"""The benchmark's workloads: each is the experiment of the same name, with
the config keys that shrink it to fit the benchmark's time budget.  Every key not named here keeps
the experiment's default (`lab_cli.EXPERIMENT_DEFAULTS` and
`ExperimentConfig`); `seed` is set per run from `--seed`.

The defaults take 60-140 s per experiment on a 2-core machine, and the
benchmark makes 70 runs in under an hour, so each workload narrows the strip
(`w_len`, with `reference_nx` scaled to keep the reference mesh size h) and
uses fewer vertical elements (`ny`).  Trichotomy keeps ny = 24 so that every
one of its pencils stays above the dense cutoff (2000 free DOFs) and takes
the range route, as at the defaults.  README.md gives each workload's nx per
cell, free DOFs and solver route.
"""

WORKLOADS = {
    # range-route eigen solves, all three exponent regimes
    "trichotomy": {
        "w_len": "1/2", "reference_nx": 32, "ny": 24, "eps_list": "1/8, 1/16"},
    # pulled-back assembly, layer-map inversion and factorizations; no eigen solve
    "navier-stability": {"w_len": "1/2", "ny": 16},
    # Lanczos on the largest factors; the memory peak
    "degeneration": {"w_len": "1/4", "reference_nx": 16, "ny": 16},
}


def config_text(workload: str, seed: int) -> str:
    lines = [f"{k} = {v}" for k, v in WORKLOADS[workload].items()]
    lines.append(f"seed = {int(seed)}")
    return "\n".join(lines) + "\n"
