#!/usr/bin/env python3
"""Mesh the ``contour_fuzz`` masks of a seed range and list every failure.

For each seed S in [A, B] the masks are built by ``ccbench/inputs.py``'s
``contour_fuzz`` generator (16 masks, or 4 with ``--small``), each mask is
taken through the benchmark's recipe (``smooth_mask`` with the pixel size as
sigma, ``extract_contour`` of the padded field at 0.5) and meshed with
``triangulate`` at every max_area of the workload (0.5, 0.25 and 0.1 mm²).
Every mesh that raises is printed as ``seed S mNNN @AREA: message``; the
last line counts the failures and ends with one SHA-256 over the ``to_off()``
text of every mesh made, in sweep order, so two checkouts mesh alike when
they print the same last line. The exit code is 1 if any mesh failed:

    PYTHONPATH=src python3 scripts/mesh_sweep.py --seeds 100 129

``--json FILE`` also writes each failing contour with its area, AC/PC and
nominal thickness, keyed ``seed<S>_m<NNN>@<AREA>``, in the entry format of
``tests/data/fuzz_contours.json``.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ccmorph.contour import Mask2D, extract_contour, smooth_mask
from ccmorph.triangulate import triangulate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "ccbench"))
from inputs import FUZZ_AREAS_MM2, build_contour_fuzz  # noqa: E402


def fuzz_contours(seed: int, small: bool = False):
    """(mask name, contour, masks.json entry) of every mask of ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        build_contour_fuzz(seed, Path(tmp), small)
        meta = json.loads((Path(tmp) / "masks.json").read_text())
        with np.load(Path(tmp) / "masks.npz") as z:
            masks = [z[f"m{k:03d}"] for k in range(len(meta["masks"]))]
    px = float(meta["pixel_mm"])
    for k, (mask, m) in enumerate(zip(masks, meta["masks"])):
        field = smooth_mask(Mask2D(mask, (px, px)), px)
        yield f"m{k:03d}", extract_contour(np.pad(field, 1), 0.5, pixel_size=(px, px), origin=(-px, -px)), m


def sweep(seeds, small: bool = False) -> dict:
    """Mesh every contour of ``seeds`` at every area; returns the failures by key."""
    failures = {}
    total = 0
    digest = hashlib.sha256()
    for seed in seeds:
        for name, contour, m in fuzz_contours(seed, small):
            for area in FUZZ_AREAS_MM2:
                total += 1
                try:
                    digest.update(triangulate(contour, area).to_off().encode())
                except Exception as e:  # noqa: BLE001 - every failure is reported
                    print(f"seed {seed} {name} @{area}: {e}", flush=True)
                    failures[f"seed{seed}_{name}@{area}"] = {
                        "seed": seed,
                        "mask": name,
                        "max_area_mm2": area,
                        "thickness_mm": m["thickness"],
                        "ac": m["ac"],
                        "pc": m["pc"],
                        "error": str(e),
                        "contour": contour.points.tolist(),
                    }
    print(f"{len(failures)} of {total} meshes failed; meshes sha256 {digest.hexdigest()}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"), help="first and last seed")
    ap.add_argument("--small", action="store_true", help="the generator's 4-mask size")
    ap.add_argument("--json", help="write the failing contours here")
    args = ap.parse_args(argv)
    failures = sweep(range(args.seeds[0], args.seeds[1] + 1), args.small)
    if args.json:
        Path(args.json).write_text(json.dumps(failures, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
