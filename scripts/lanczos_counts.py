#!/usr/bin/env python3
"""Count the banded solves of each Steklov eigen solve of one experiment run.

Usage: python scripts/lanczos_counts.py ROOT EXPERIMENT [--config FILE]

Runs EXPERIMENT, at its default config or at FILE's, in this process with
the steklov_lab of the source tree ROOT (ROOT/src), and prints one line per
Steklov solve, in the run's order: the free DOFs, the products (the banded
solves of one vector, made inside ARPACK; the final block solve of the
modes is not counted), the shift sigma of the Lanczos retry and its
back-offs (0 on a tree without the retry), the solve's wall time and d_1.
The last line sums the products and the back-offs.  Run it on two
checkouts to compare their solves pencil by pencil; set
OPENBLAS_NUM_THREADS=1 for times comparable with scripts/bench_pairs.py.
"""

import argparse
import os
import sys
import time

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root")
    parser.add_argument("experiment")
    parser.add_argument("--config", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from steklov_lab import lab_cli, spectral

    products = [0]
    solve = spectral.SpdFactor.solve

    def counted(self, b):
        products[0] += np.ndim(b) == 1
        return solve(self, b)

    spectral.SpdFactor.solve = counted
    steklov, rows = lab_cli.solve_steklov, []

    def timed(A, B, **kwargs):
        products[0], t0 = 0, time.perf_counter()
        s = steklov(A, B, **kwargs)
        rows.append((A.shape[0], int(products[0]), getattr(s, "shift", 0.0),
                     getattr(s, "backoffs", 0), time.perf_counter() - t0,
                     s.eigenvalues[0]))
        return s

    lab_cli.solve_steklov = timed
    cfg = lab_cli.load_config(args.experiment, args.config)
    lab_cli.RUNNERS[cfg.experiment](cfg)
    print("free_dofs products shift backoffs time_s d_1")
    for row in rows:
        print("%d %d %.9g %d %.3f %.12g" % row)
    print(f"total: {len(rows)} solves, {sum(r[1] for r in rows)} products, "
          f"{sum(r[3] for r in rows)} back-offs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
