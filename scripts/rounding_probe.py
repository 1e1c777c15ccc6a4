#!/usr/bin/env python3
"""Run one experiment with every assembled array nudged by one ulp.

Usage: python scripts/rounding_probe.py ROOT EXPERIMENT [--config CFG]
           --out DIR --seed S

ROOT is a checkout that holds src/steklov_lab.  The script wraps the
assembly names where `lab_cli` and `navier` import them (`assemble`,
`assemble_boundary_factor`, `sobolev_forms`, `assemble_navier_load`), the
way perfbench/tracer.py wraps its sites, and runs `steklov-lab EXPERIMENT
--config CFG --out DIR`.  Every matrix, load and array of Gram values those
calls return has a seeded half of its stored entries moved by one ulp, up
or down: a volume FeSystem's node-pair blocks at the entries of its CSR
matrix, and a boundary FeSystem's factor.  Which entries move, and which
way, is a hash of the seed and the entry's (row, column) or flat array
index, so a matrix that was exactly symmetric stays exactly symmetric, and
the nudges do not depend on the order of the calls.  A boundary form's
matrix C C^T is built from its nudged factor.

Assembly rounding is all such a change makes, so comparing the reports with
those of an unperturbed run,

    python scripts/compare_reports.py PLAIN_DIR DIR

gives each CSV column's rounding floor: the largest relative change that a
change in summation order alone can cause.  The exit code is the
experiment's.
"""

import argparse
import importlib
import os
import sys

import numpy as np

# (module, names) whose calls are wrapped
SITES = (
    ("steklov_lab.lab_cli", ("assemble", "assemble_boundary_factor",
                             "sobolev_forms", "assemble_navier_load")),
    ("steklov_lab.navier", ("assemble", "assemble_boundary_factor",
                            "assemble_navier_load")),
)


class Nudger:
    """Moves a seeded half of an array's entries by one ulp."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # odd multipliers and an offset of a multiply-shift hash
        self.a, self.b, self.c = rng.integers(0, 2**64, size=3,
                                              dtype=np.uint64) | np.uint64(1)

    def _bits(self, i, j):
        """Two hash bits per entry key (i, j): (selected, upward)."""
        i = np.asarray(i, dtype=np.uint64)
        j = np.asarray(j, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = (i * self.a + j * self.b + self.c) * self.a >> np.uint64(40)
        return (h & np.uint64(1)).astype(bool), (h & np.uint64(2)).astype(bool)

    def _move(self, values, selected, upward):
        target = np.where(upward, np.inf, -np.inf)
        values[selected] = np.nextafter(values[selected], target[selected])

    def vector(self, v):
        """A nudged copy of an array of any shape, keyed by flat index."""
        v = np.array(v, dtype=float)
        flat = v.reshape(-1)                    # a view of the fresh copy
        selected, upward = self._bits(np.arange(flat.size), 0)
        self._move(flat, selected, upward)
        return v

    def _entry_bits(self, A):
        """_bits of the stored entries of the CSR matrix A, keyed by the
        unordered pair {row, column} when A is exactly symmetric."""
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        cols = A.indices
        if A.shape[0] == A.shape[1] and (A != A.T).nnz == 0:
            rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        return self._bits(rows, cols)

    def matrix(self, A):
        """A copy of the CSR matrix A with its stored entries nudged."""
        A = A.tocsr(copy=True)
        self._move(A.data, *self._entry_bits(A))
        return A

    def blocks(self, system):
        """A copy of a volume FeSystem's node-pair blocks whose entries in
        its CSR matrix are nudged as `matrix` nudges that matrix: the CSR
        of the blocks' flat indices gives each stored entry's place."""
        from steklov_lab.assembly import _blocks_tocsr
        S = system.blocks.copy()
        where = np.arange(S.size, dtype=float).reshape(S.shape)
        at = _blocks_tocsr(where, system.dofmap).data.astype(np.intp)
        flat = S.reshape(-1)                    # a view of the fresh copy
        values = flat[at]
        self._move(values, *self._entry_bits(system.matrix))
        flat[at] = values
        return S

    def __call__(self, out):
        """The nudged copy of anything an assembly function returns."""
        if isinstance(out, np.ndarray):
            return self.vector(out)
        if hasattr(out, "blocks"):             # FeSystem
            if out.blocks is not None:
                out.blocks = self.blocks(out)
            if out.factor is not None:
                out.factor = self.matrix(out.factor)
            return out
        return self.matrix(out)


def install(nudge):
    """Wrap every name of SITES so that its result goes through nudge."""
    for module, names in SITES:
        owner = importlib.import_module(module)
        for name in names:
            fn = getattr(owner, name)
            setattr(owner, name,
                    lambda *a, _fn=fn, **k: nudge(_fn(*a, **k)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root")
    parser.add_argument("experiment")
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    install(Nudger(args.seed))
    from steklov_lab.lab_cli import main as lab_main
    cli = [args.experiment, "--out", args.out]
    if args.config:
        cli += ["--config", args.config]
    return lab_main(cli)


if __name__ == "__main__":
    sys.exit(main())
