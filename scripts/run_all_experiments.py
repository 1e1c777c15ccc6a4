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
    worst = 0
    for name in EXPERIMENTS:
        t0 = time.time()
        try:
            code = lab_main([name, "--out", out])
        except SystemExit as exc:       # a usage error (2) or a failed run (3)
            code = exc.code
        worst = max(worst, code)
        verdict = {0: "Satisfied", 1: "Violated"}.get(code, f"Failed ({code})")
        print(f"{name:18s} {verdict:10s} [{time.time() - t0:6.1f}s]")
    return worst


if __name__ == "__main__":
    sys.exit(main())
