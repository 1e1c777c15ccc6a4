"""Benchmark of steklov-lab, run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One operation is one experiment run (see workloads.py) in a fresh process,
as `steklov-lab <experiment> --config <file> --out <dir>` runs it.  It fails
if the process raises or if any check on its report fails (checks.py).  A run
first times set-up alone in a few fresh processes, then repeats operations
until `--seconds` have passed, and reports medians.

With `--trace 0` it prints the end-to-end metrics (`wall_s`, `peak_rss_mb`,
`setup_s`).  With `--trace 1` each round is one untraced and one traced
operation, and it prints the per-layer metrics from the traced ones, the
traced checks' errors and the tracing overhead.  The last line of standard
output is one JSON object; metric names and units come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
SETUP_PROBES = 4
OP_TIMEOUT_S = 90

sys.path.insert(0, HERE)
from checks import REPORT_CHECKS, read_report, traced_failures  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def child_env() -> dict:
    """The lab's defaults (one worker thread) and single-threaded BLAS, so
    that run-to-run spread on a shared machine stays small."""
    env = dict(os.environ)
    env.pop("STEKLOV_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def one_op(experiment, cfg_path, op_dir, mode):
    """Run child.py once; its result dict, or None if the process failed."""
    os.makedirs(op_dir)
    result = os.path.join(op_dir, "result.json")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(os.path.join(op_dir, "log.txt"), "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), experiment,
                 cfg_path, op_dir, result, repr(t_spawn), mode],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not os.path.exists(result):
        return None
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "steklov_lab", "lab_cli.py")) \
            or not os.path.exists(bench_path):
        print(f"no steklov-lab source tree and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from steklov_lab.lab_cli import load_config

    experiment = args.workload
    run_dir = os.path.join(RUNS, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "bench.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(config_text(args.workload, args.seed))
    cfg = load_config(experiment, cfg_path)

    n_ops = 0
    setups = []
    for _ in range(SETUP_PROBES):
        n_ops += 1
        r = one_op(experiment, cfg_path, os.path.join(run_dir, f"op{n_ops:03d}"),
                   "setup")
        if r is None:
            print("set-up probe failed; see its log.txt under", run_dir,
                  file=sys.stderr)
            return 1
        setups.append(r["setup_s"])

    modes = ("run", "trace") if args.trace else ("run",)
    done = {m: [] for m in modes}
    attempted = failed = 0
    start = time.monotonic()
    while True:
        for mode in modes:
            n_ops += 1
            attempted += 1
            op_dir = os.path.join(run_dir, f"op{n_ops:03d}")
            r = one_op(experiment, cfg_path, op_dir, mode)
            if r is None:
                problems = [f"process failed; see {op_dir}/log.txt"]
            else:
                rows = read_report(os.path.join(op_dir, f"{experiment}.csv"))
                problems = REPORT_CHECKS[experiment](rows, cfg)
                if mode == "trace":
                    problems += traced_failures(r["traced_checks"], experiment)
            if problems:
                failed += 1
                for p in problems:
                    print(f"op{n_ops:03d} FAILED: {p}", file=sys.stderr)
                continue
            done[mode].append(r)
            setups.append(r["setup_s"])
        if time.monotonic() - start >= args.seconds:
            break

    def median(key, mode="run"):
        vals = [r[key] for r in done[mode]]
        return statistics.median(vals) if vals else 0.0

    if args.trace:
        specs = bench["per_layer"]
        traced = done["trace"]
        values = {}
        for spec in specs:
            name = spec["name"]
            vals = [r["layers"].get(name, r["traced_checks"].get(name)) or 0
                    for r in traced]
            values[name] = statistics.median(vals) if vals else 0.0
        values["trace.wall_s"] = median("wall_s", "trace")
        values["trace.untraced_wall_s"] = median("wall_s")
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        values["trace.self_sum_s"] = median("self_sum_s", "trace")
        values["trace.spans"] = median("spans", "trace")
    else:
        specs = bench["end_to_end"]
        values = {"wall_s": median("wall_s"), "peak_rss_mb": median("peak_rss_mb"),
                  "setup_s": statistics.median(setups)}
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']:40s} {values[spec['name']]:14.6g} {spec['unit']}")
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
