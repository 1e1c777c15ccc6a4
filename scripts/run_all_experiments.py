#!/usr/bin/env python3
"""Run the four experiments with default settings and collect the reports.

Usage: python scripts/run_all_experiments.py [outdir]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from steklov_lab.lab_cli import EXPERIMENTS, main as lab_main  # noqa: E402


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "out"
    overall_ok = True
    for name in EXPERIMENTS:
        t0 = time.time()
        ok = lab_main([name, "--out", out]) == 0
        overall_ok &= ok
        print(f"{name:18s} {'Satisfied' if ok else 'Violated ':9s} "
              f"[{time.time() - t0:6.1f}s]")
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
