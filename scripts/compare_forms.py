#!/usr/bin/env python3
"""Check that two source trees assemble every form to the same bits.

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
load vector.  The script prints the number of differing bits of every array
that differs, one total per cell and a grand total.  It exits 1 if any bit
differs or if an array is missing, shaped or typed differently on one side.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

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


def compare(old_root, new_root) -> int:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--cells",
                           new_root], capture_output=True, text=True, check=True)
    total_arrays = total_bits = bad_arrays = 0
    scratch = tempfile.mkdtemp(prefix="compare_forms_")
    try:
        for cell in json.loads(proc.stdout):
            old_dir = os.path.join(scratch, "old")
            new_dir = os.path.join(scratch, "new")
            size = run_child(old_root, cell, old_dir)
            run_child(new_root, cell, new_dir)
            names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
            cell_bits = cell_bad = 0
            for name in names:
                paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
                if not all(os.path.exists(p) for p in paths):
                    print(f"  {name[:-4]}: missing on one side")
                    cell_bad += 1
                    continue
                bits = differing_bits(*(np.load(p, mmap_mode="r") for p in paths))
                if bits is None:
                    print(f"  {name[:-4]}: shape or dtype differs")
                    cell_bad += 1
                elif bits:
                    print(f"  {name[:-4]}: {bits} differing bits")
                    cell_bad += 1
                    cell_bits += bits
            print(f"{cell['label']} ({size}): {len(names)} arrays, "
                  f"{cell_bits} differing bits")
            total_arrays += len(names)
            total_bits += cell_bits
            bad_arrays += cell_bad
            shutil.rmtree(old_dir)
            shutil.rmtree(new_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"total: {total_arrays} arrays, {bad_arrays} differ, "
          f"{total_bits} differing bits")
    return 1 if bad_arrays else 0


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
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return compare(*(os.path.abspath(p) for p in argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
