#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and record the result.

Usage: python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W
           --seeds S [S ...] --label L [--seconds 20] [--out DIR]
       python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --default E
           --pairs P --label L [--out DIR]
       python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --tier1
           --pairs P --label L [--out DIR]

For each seed, runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, one after the other; which
side goes first alternates from pair to pair, so a drift of the machine's
speed falls on both sides alike.  Each run's end-to-end metrics (those of
CHANGE_ROOT's BENCHMARK.json) are read from its last output line.

With `--default E` each run is instead `steklov-lab E` at its default
config, `python -m steklov_lab.lab_cli E --out TMP` on the checkout's src/,
in a fresh process with one BLAS thread, P alternating pairs.  A run records
its wall time, the child's CPU time (user + system) and the child's peak
RSS.  Each pair compares the two sides' CSVs as scripts/compare_reports.py
does and records each column's largest relative change and every verdict
that flips.  A run fails if it exits with a code other than 0 (every metric
Satisfied) or 1 (one is not).

With `--tier1` each run is instead the tier-1 suite, `python -m pytest -q
--continue-on-collection-errors` in the checkout with its src/ on the path
and one BLAS thread, P alternating pairs.  A run records the same three
metrics and its counts of passed and failed tests; it fails if pytest exits
with a code other than 0 (every test passed) or 1 (some failed).

Writes BENCH_<L>.json under DIR (default: CHANGE_ROOT).  The file holds one
entry per workload, under "workloads", one per default experiment, under
"defaults", and the tier-1 entry, under "tier1" as "pytest", so runs of
others with the same label add to it.  An entry holds
each pair's values, each side's median and quartiles per metric, the number
of pairs the change won (it did better than the parent), and each side's
attempted and failed operations.  The file also records the machine: CPU
model and count, and the Python, numpy and scipy versions.  Exits 1 if any
run fails or reports a failed operation.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

from compare_reports import csv_changes

SIDES = ("parent", "change")
DEFAULT_SPECS = [{"name": "wall_s", "unit": "s", "better": "lower"},
                 {"name": "cpu_s", "unit": "s", "better": "lower"},
                 {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def run_once(root, workload, seed, seconds) -> dict:
    """perfbench's result object for one run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench failed in {root} (seed {seed}):\n{proc.stderr}")
    return json.loads(lines[-1])


def one_thread_env(root) -> dict:
    """The environment of a run on the checkout's src/, with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed_child(cmd, root, stdout) -> dict:
    """Wall time, child CPU time and child peak RSS of one run of cmd in the
    checkout at root, and its exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=one_thread_env(root),
                            stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,     # ru_maxrss is in KiB
            "exit": os.waitstatus_to_exitcode(status)}


def run_default(root, experiment, out_dir) -> dict:
    """One default-config run of the experiment in the checkout at root."""
    return timed_child([sys.executable, "-m", "steklov_lab.lab_cli",
                        experiment, "--out", out_dir], root, subprocess.DEVNULL)


def run_tier1(root) -> dict:
    """One tier-1 run in the checkout at root, with its test counts."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        res = timed_child([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider",
                           "--continue-on-collection-errors"], root, out)
        out.seek(0)
        tail = out.read().strip().splitlines()[-1:]
    for word in ("passed", "failed"):
        found = re.search(rf"(\d+) {word}", tail[0]) if tail else None
        res[word] = int(found.group(1)) if found else 0
    return res


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {"cpu": cpu_model(), "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def quartiles(vals) -> list:
    """[q1, median, q3] (inclusive method)."""
    if len(vals) < 2:
        return [vals[0]] * 3
    return statistics.quantiles(vals, n=4, method="inclusive")


def summarize(pairs, specs) -> dict:
    out = {}
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {side: [p[side][name] for p in pairs] for side in SIDES}
        q = {side: quartiles(vals[side]) for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(vals["parent"], vals["change"]))
        iqr = q["parent"][2] - q["parent"][0]
        diff = q["change"][1] - q["parent"][1]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "median": {side: q[side][1] for side in SIDES},
            "quartiles": q,
            "median_rel_change": diff / q["parent"][1] if q["parent"][1] else 0.0,
            "change_wins": wins, "pairs": len(pairs),
            "median_shift_exceeds_parent_iqr": abs(diff) > iqr,
        }
    return out


def workload_pairs(roots, args):
    """Alternating perfbench pairs: (pairs, operations, ok)."""
    pairs, ops, ok = [], {side: [0, 0] for side in SIDES}, True
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed, "first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            res = run_once(roots[side], args.workload, seed, args.seconds)
            pair[side] = {n: m["value"] for n, m in res["metrics"].items()}
            ops[side][0] += res["attempted"]
            ops[side][1] += res["failed"]
            ok &= bool(res["correct"])
        pairs.append(pair)
        print(f"seed {seed}: " + "  ".join(
            f"{n} {pair['parent'][n]:.4g} -> {pair['change'][n]:.4g}"
            for n in pair["parent"]), flush=True)
    return pairs, ops, ok


def default_pairs(roots, args):
    """Alternating default-config pairs, each with its CSV comparison:
    (pairs, operations, ok)."""
    pairs, ops, ok = [], {side: [0, 0] for side in SIDES}, True
    csv_name = f"{args.default}.csv"
    for i in range(args.pairs):
        pair = {"first": SIDES[i % 2]}
        with tempfile.TemporaryDirectory() as tmp:
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                res = run_default(roots[side], args.default,
                                  os.path.join(tmp, side))
                failed = res.pop("exit") not in (0, 1)
                pair[side] = res
                ops[side][0] += 1
                ops[side][1] += failed
                ok &= not failed
            paths = [os.path.join(tmp, side, csv_name) for side in SIDES]
            if all(os.path.exists(p) for p in paths):
                pair["csv"] = csv_changes(*paths)
            else:
                pair["csv"] = None
                ok = False
        pairs.append(pair)
        csv = pair["csv"] or {}
        largest = ", ".join(f"{col} {c['largest']:.2g}"
                            for col, c in csv.get("columns", {}).items())
        print(f"pair {i}: " + "  ".join(
            f"{n} {pair['parent'][n]:.4g} -> {pair['change'][n]:.4g}"
            for n in pair["parent"]) + f"  largest CSV change: {largest}; "
            f"{len(csv.get('flips', []))} verdicts flip", flush=True)
    return pairs, ops, ok


def tier1_pairs(roots, args):
    """Alternating tier-1 pairs: (pairs, operations, ok)."""
    pairs, ops, ok = [], {side: [0, 0] for side in SIDES}, True
    for i in range(args.pairs):
        pair = {"first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            res = run_tier1(roots[side])
            failed = res.pop("exit") not in (0, 1)
            pair[side] = res
            ops[side][0] += 1
            ops[side][1] += failed
            ok &= not failed
        pairs.append(pair)
        print(f"pair {i}: " + "  ".join(
            f"{n} {pair['parent'][n]:.4g} -> {pair['change'][n]:.4g}"
            for n in pair["parent"]), flush=True)
    return pairs, ops, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--default", metavar="EXPERIMENT")
    what.add_argument("--tier1", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    if args.workload:
        if not args.seeds:
            parser.error("--workload needs --seeds")
        with open(os.path.join(roots["change"], "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            specs = json.load(fh)["end_to_end"]
        pairs, ops, ok = workload_pairs(roots, args)
        entry = {"date": time.strftime("%Y-%m-%d"), "seconds": args.seconds}
        group, name = "workloads", args.workload
    else:
        specs, entry = DEFAULT_SPECS, {"date": time.strftime("%Y-%m-%d")}
        if args.default:
            pairs, ops, ok = default_pairs(roots, args)
            group, name = "defaults", args.default
        else:
            pairs, ops, ok = tier1_pairs(roots, args)
            group, name = "tier1", "pytest"

    entry.update({"operations": {side: {"attempted": a, "failed": f}
                                 for side, (a, f) in ops.items()},
                  "metrics": summarize(pairs, specs), "pairs": pairs})
    for metric, m in entry["metrics"].items():
        print(f"{metric}: median {m['median']['parent']:.4g} -> "
              f"{m['median']['change']:.4g} ({100 * m['median_rel_change']:+.1f}%), "
              f"change better in {m['change_wins']} of {m['pairs']} pairs")

    path = os.path.join(args.out or roots["change"], f"BENCH_{args.label}.json")
    record = {"label": args.label, "machine": machine(), "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record.update({k: v for k, v in json.load(fh).items()
                           if k in ("workloads", "defaults", "tier1")})
    record.setdefault(group, {})[name] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
