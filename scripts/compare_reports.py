#!/usr/bin/env python3
"""Compare experiment CSV reports row by row.

Usage: python scripts/compare_reports.py OLD.csv NEW.csv
       python scripts/compare_reports.py OLD_DIR NEW_DIR

The row keys (alpha, eps, nx, ny, n) and the verdicts must be identical, row
for row.  The script prints the largest relative change in each of the
`value`, `reference` and `gap` columns, and exits 1 if the keys or verdicts
differ or if any change exceeds 1e-9, the tolerance within which a change
that should not move the numbers must reproduce them.  `#` header lines are
not compared.

Given two output directories, it checks each `*.csv` found in either one
this way, and says for each `*.csv` and `*.svg` whether the two files are
byte-identical; it exits 1 if a file is missing from one side or a CSV fails
the check.
"""

import csv
import filecmp
import os
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


def compare_csv(old_path, new_path, indent="") -> bool:
    """Print the comparison of two reports; True if they pass the check."""
    old, new = read_rows(old_path), read_rows(new_path)
    keys_old = [tuple(r[k] for k in KEYS) for r in old]
    keys_new = [tuple(r[k] for k in KEYS) for r in new]
    if keys_old != keys_new:
        print(f"{indent}row keys differ ({len(old)} rows against {len(new)})")
        return False
    flipped = [k for k, a, b in zip(keys_old, old, new) if a["verdict"] != b["verdict"]]
    if flipped:
        print(f"{indent}verdicts differ at {len(flipped)} rows, first (alpha, "
              f"eps, nx, ny, n) = {flipped[0]}")
        return False
    ok = True
    for col in COLUMNS:
        changes = [rel_change(float(a[col]), float(b[col])) for a, b in zip(old, new)]
        i = max(range(len(changes)), key=changes.__getitem__, default=None)
        worst = changes[i] if i is not None else 0.0
        where = f" at (alpha, eps, nx, ny, n) = {keys_old[i]}" if worst > 0 else ""
        print(f"{indent}{col}: largest relative change {worst:.3g}{where}")
        ok &= worst <= TOLERANCE
    print(f"{indent}rows: {len(old)}; keys and verdicts identical; "
          f"{'within' if ok else 'EXCEEDS'} {TOLERANCE:g}")
    return ok


def compare_dirs(old_dir, new_dir) -> bool:
    """Compare every report and figure of two output directories."""
    names = sorted(n for d in (old_dir, new_dir) for n in os.listdir(d)
                   if n.endswith((".csv", ".svg")))
    ok = True
    for name in dict.fromkeys(names):
        old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
        missing = [d for d, p in ((old_dir, old), (new_dir, new))
                   if not os.path.exists(p)]
        if missing:
            print(f"{name}: missing from {missing[0]}")
            ok = False
            continue
        same = filecmp.cmp(old, new, shallow=False)
        print(f"{name}: {'byte-identical' if same else 'bytes differ'}")
        if name.endswith(".csv"):
            ok &= compare_csv(old, new, indent="  ")
    return ok


def main(argv) -> int:
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    if all(os.path.isdir(p) for p in argv):
        return 0 if compare_dirs(*argv) else 1
    return 0 if compare_csv(*argv) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
