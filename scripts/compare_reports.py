#!/usr/bin/env python3
"""Compare two experiment CSV reports row by row.

Usage: python scripts/compare_reports.py OLD.csv NEW.csv

The row keys (alpha, eps, nx, ny, n) and the verdicts must be identical, row
for row.  The script prints the largest relative change in each of the
`value`, `reference` and `gap` columns, and exits 1 if the keys or verdicts
differ or if any change exceeds 1e-9, the tolerance within which a change
that should not move the numbers must reproduce them.  `#` header lines are
not compared.
"""

import csv
import sys

TOLERANCE = 1e-9
KEYS = ("alpha", "eps", "nx", "ny", "n")
COLUMNS = ("value", "reference", "gap")


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def rel_change(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale > 0 else 0.0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (read_rows(p) for p in argv)
    keys_old = [tuple(r[k] for k in KEYS) for r in old]
    keys_new = [tuple(r[k] for k in KEYS) for r in new]
    if keys_old != keys_new:
        print(f"row keys differ ({len(old)} rows against {len(new)})")
        return 1
    flipped = [k for k, a, b in zip(keys_old, old, new) if a["verdict"] != b["verdict"]]
    if flipped:
        print(f"verdicts differ at {len(flipped)} rows, first (alpha, eps, nx, "
              f"ny, n) = {flipped[0]}")
        return 1
    ok = True
    for col in COLUMNS:
        changes = [rel_change(float(a[col]), float(b[col])) for a, b in zip(old, new)]
        i = max(range(len(changes)), key=changes.__getitem__, default=None)
        worst = changes[i] if i is not None else 0.0
        where = f" at (alpha, eps, nx, ny, n) = {keys_old[i]}" if worst > 0 else ""
        print(f"{col}: largest relative change {worst:.3g}{where}")
        ok &= worst <= TOLERANCE
    print(f"rows: {len(old)}; keys and verdicts identical; "
          f"{'within' if ok else 'EXCEEDS'} {TOLERANCE:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
