#!/usr/bin/env python3
"""Compare the forms that two source trees assemble, bit by bit and entry by
entry.

Usage: python scripts/compare_forms.py OLD_ROOT NEW_ROOT

Each root is a checkout that holds src/steklov_lab.  The cells are each
default (alpha, eps) cell of the four experiments, on the mesh and layer map
that the experiment's config gives it, plus one 32x6 mesh graded with
q = 0.7 under the alpha = 2, eps = 1/4 layer map.  For each cell, each tree
is imported in its own subprocess, which assembles on the cell's mesh, on the
flat strip and pulled back through the layer map:

- every volume form (`assemble`)
- NormalTrace and BoundaryMass on Gamma and on the whole boundary, as forms
  (`assemble`) and as factors (`assemble_boundary_factor`)
- the Navier load of a fixed smooth datum (`assemble_navier_load`)

and saves every array: indptr, indices and data of each matrix, and each
load vector.  For every array that differs the script prints its number of
differing bits.  For every matrix or load that differs it prints its largest
entry change relative to the largest entry of the same matrix row, or of the
load; where the two patterns differ, it compares the two as sparse matrices.
It prints one line per cell and a grand total, and exits 1 if any bit
differs, if an array is missing on one side, or if a matrix or load changes
its shape.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import scipy.sparse as sp

# the experiments that sweep `alphas`; the others sweep their one `alpha`
SWEEPS_ALPHAS = ("trichotomy", "navier-stability")
EXTRA_CELL = {"label": "32x6 q=0.7", "alpha": 2.0, "eps": 0.25,
              "nx": 32, "ny": 6, "grading": 0.7}


def cells():
    """The cells to compare, as JSON-able dicts; a cell that two experiments
    share (same mesh and layer map) is compared once, under both names."""
    from steklov_lab.lab_cli import EXPERIMENTS, load_config
    out = {}
    for name in EXPERIMENTS:
        cfg = load_config(name)
        alphas = cfg.alphas if name in SWEEPS_ALPHAS else (cfg.alpha,)
        for a in alphas:
            for e in cfg.eps_list:
                mesh = cfg.mesh_for(a, e)
                key = (mesh.nx, mesh.ny, cfg.grading, cfg.w_len, a, e,
                       cfg.kappa(a, e), cfg.k_hat)
                cell = out.setdefault(key, {"names": [], "experiment": name,
                                            "alpha": a, "eps": e})
                cell["names"].append(name)
    for cell in out.values():
        names = ", ".join(cell.pop("names"))
        cell["label"] = f"{names} alpha={cell['alpha']:g} eps=1/{round(1 / cell['eps'])}"
    return list(out.values()) + [EXTRA_CELL]


def mesh_and_diffeo(cell):
    from steklov_lab.lab_cli import load_config
    from steklov_lab.mesh import build_mesh
    cfg = load_config(cell.get("experiment", "trichotomy"))
    if "nx" in cell:
        mesh = build_mesh(cell["nx"], cell["ny"], cell["grading"])
    else:
        mesh = cfg.mesh_for(cell["alpha"], cell["eps"])
    return mesh, cfg.diffeo(cell["alpha"], cell["eps"]), cfg.quad_order


def dump(cell, out_dir):
    """Assemble every form of one cell and save its arrays under out_dir."""
    from steklov_lab.assembly import (GRAD_MASS, HESSIAN_ENERGY, LAPLACIAN_ENERGY,
                                      MASS, MIXED_U_DELTA, assemble,
                                      assemble_boundary_factor,
                                      assemble_navier_load, boundary_mass,
                                      normal_trace)
    from steklov_lab.mesh import DofMap
    mesh, dif, quad = mesh_and_diffeo(cell)
    dm = DofMap.unconstrained(mesh)
    datum = (lambda x, y: np.sin(np.pi * x) * np.exp(y),
             lambda x, y: np.pi * np.cos(np.pi * x) * np.exp(y),
             lambda x, y: np.sin(np.pi * x) * np.exp(y))

    def save(name, arr):
        np.save(os.path.join(out_dir, name + ".npy"), arr)

    def save_matrix(name, A):
        for part in ("indptr", "indices", "data"):
            save(f"{name}.{part}", getattr(A, part))

    for side, domain in (("flat", None), ("pulled", dif)):
        for kind in (MASS, GRAD_MASS, LAPLACIAN_ENERGY, HESSIAN_ENERGY,
                     MIXED_U_DELTA):
            save_matrix(f"{side}.{kind}", assemble(kind, mesh, dm, domain,
                                                   quad).matrix)
        for make in (normal_trace, boundary_mass):
            for part in ("Gamma", "All"):
                kind = make(part)
                save_matrix(f"{side}.{kind}", assemble(kind, mesh, dm, domain,
                                                       quad).matrix)
                save_matrix(f"{side}.{kind}.factor", assemble_boundary_factor(
                    kind, mesh, dm, domain, quad))
        save(f"{side}.NavierLoad", assemble_navier_load(datum, mesh, dm, domain,
                                                        quad))
    return f"{mesh.nx}x{mesh.ny}"


def differing_bits(a, b) -> int | None:
    """Bits in which two arrays differ; None if shape or dtype differ."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return None
    u = np.dtype(f"u{a.dtype.itemsize}")
    return int(np.bitwise_count(a.view(u) ^ b.view(u)).sum(dtype=np.int64))


def run_child(root, cell, out_dir) -> str:
    """Dump one cell's arrays from the tree at root; the mesh size it used."""
    os.makedirs(out_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", root,
         json.dumps(cell), out_dir], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"assembly failed in {root}:\n{proc.stderr}")
    return proc.stdout.strip()


def row_relative_change(old, new) -> float:
    """Largest |new - old| entry of each row over the largest |old| entry
    of that row, maximised over the rows; a 1-D array is one row."""
    if old.ndim == 1:
        scale = np.max(np.abs(old), initial=0.0)
        return float(np.max(np.abs(new - old), initial=0.0) / max(scale, 1e-300))
    diff = abs(new - old).max(axis=1).toarray().ravel()
    scale = abs(old).max(axis=1).toarray().ravel()
    return float(np.max(diff / np.maximum(scale, 1e-300), initial=0.0))


def load_entry(directory, name, parts):
    """The saved vector of a load (parts empty), or the saved parts of a
    matrix; None if one is missing."""
    paths = [os.path.join(directory, f"{name}.{p}.npy" if p else f"{name}.npy")
             for p in parts or ("",)]
    if not all(os.path.exists(p) for p in paths):
        return None
    arrays = [np.load(p) for p in paths]
    return arrays if parts else arrays[0]


def compare_entry(old_dir, new_dir, name, parts):
    """(differing bits, row-relative change, problem) of one matrix or load;
    problem names what makes the two incomparable, else None."""
    old, new = load_entry(old_dir, name, parts), load_entry(new_dir, name, parts)
    if old is None or new is None:
        return 0, 0.0, "missing on one side"
    if not parts:
        bits = differing_bits(old, new)
        if bits is None:
            return 0, 0.0, "shape or dtype differs"
        return bits, row_relative_change(old, new) if bits else 0.0, None
    bits = [differing_bits(a, b) for a, b in zip(old, new)]
    for part, b in zip(parts, bits):
        if b:
            print(f"  {name}.{part}: {b} differing bits")
    if not any(b is None or b for b in bits):
        return 0, 0.0, None
    if len(old[0]) != len(new[0]):
        return 0, 0.0, "row count differs"
    n_rows = len(old[0]) - 1
    n_cols = max(int(np.max(a[1], initial=-1)) for a in (old, new)) + 1
    mats = [sp.csr_matrix((a[2], a[1], a[0]), shape=(n_rows, n_cols))
            for a in (old, new)]
    return sum(b or 0 for b in bits), row_relative_change(*mats), None


def entries(directory):
    """{name: parts} of the saved matrices and loads."""
    out = {}
    for fname in os.listdir(directory):
        stem = fname[:-4]
        name, _, part = stem.rpartition(".")
        if part in ("indptr", "indices", "data"):
            out.setdefault(name, []).append(part)
        else:
            out[stem] = []
    return {name: tuple(p for p in ("indptr", "indices", "data") if p in parts)
            for name, parts in out.items()}


def compare(old_root, new_root) -> int:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--cells",
                           new_root], capture_output=True, text=True, check=True)
    total = {"entries": 0, "bits": 0, "differ": 0, "bad": 0, "rel": 0.0}
    scratch = tempfile.mkdtemp(prefix="compare_forms_")
    try:
        for cell in json.loads(proc.stdout):
            old_dir = os.path.join(scratch, "old")
            new_dir = os.path.join(scratch, "new")
            size = run_child(old_root, cell, old_dir)
            run_child(new_root, cell, new_dir)
            names = {**entries(old_dir), **entries(new_dir)}
            cell_bits = cell_rel = 0.0
            for name in sorted(names):
                bits, rel, problem = compare_entry(old_dir, new_dir, name,
                                                   names[name])
                if problem:
                    print(f"  {name}: {problem}")
                    total["bad"] += 1
                    continue
                if bits:
                    print(f"  {name}: largest change {rel:.3g} of its row's "
                          "largest entry")
                    total["differ"] += 1
                cell_bits += bits
                cell_rel = max(cell_rel, rel)
            print(f"{cell['label']} ({size}): {len(names)} matrices and loads, "
                  f"{int(cell_bits)} differing bits, largest row-relative "
                  f"change {cell_rel:.3g}")
            total["entries"] += len(names)
            total["bits"] += int(cell_bits)
            total["rel"] = max(total["rel"], cell_rel)
            shutil.rmtree(old_dir)
            shutil.rmtree(new_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"total: {total['entries']} matrices and loads, {total['differ']} "
          f"differ, {total['bits']} differing bits, largest row-relative "
          f"change {total['rel']:.3g}")
    return 1 if total["bad"] or total["differ"] else 0


def main(argv) -> int:
    if argv[:1] == ["--cells"] and len(argv) == 2:
        sys.path.insert(0, os.path.join(argv[1], "src"))
        print(json.dumps(cells()))
        return 0
    if argv[:1] == ["--dump"] and len(argv) == 4:
        sys.path.insert(0, os.path.join(argv[1], "src"))
        print(dump(json.loads(argv[2]), argv[3]))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    return compare(*(os.path.abspath(p) for p in argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
