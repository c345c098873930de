#!/usr/bin/env python3
"""Seeded input generators for the three benchmark workloads.

Run as a script, this is one timed set-up: it imports ccmorph, builds the
inputs of one workload from a seed and writes them to a directory. The time
from just before ``import ccmorph`` to the last byte written is the
``setup_s`` sample; the SHA-256 digest of every written file is taken after
the clock stops, so a fixed seed can be checked to give identical inputs.

    python3 ccbench/inputs.py --workload arch_cohort --seed 3 --out DIR [--small]

The last line of standard output is a JSON object with ``setup_s`` and
``digests``. Importing this module starts nothing and imports no ccmorph or
NumPy code at module level, so the clock sees the whole import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

# Full-size and reduced (--small) parameters. The reduced sizes only serve
# the benchmark's own smoke test; the numbers a run reports use the full set.
SIZES = {
    "full": {"brain_dim": 256, "arch_cases": 16, "arch_inplane": 256, "fuzz_masks": 16},
    "small": {"brain_dim": 128, "arch_cases": 8, "arch_inplane": 160, "fuzz_masks": 4},
}

CC_LABEL = 251
FUZZ_PIXEL_MM = 0.5
FUZZ_AREAS_MM2 = (0.5, 0.25, 0.1)
FUZZ_THICKNESS_ORDER = (2, 0, 3, 1)  # thickness level paired with each radius level
FUZZ_ROUND = len(FUZZ_THICKNESS_ORDER)  # fuzzed masks per group of design levels
ANNULUS = (22.0, 30.0, 600)  # r_in, r_out, n_arc of half_annulus_contour


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _level(i, n, lo, hi, rng, jitter=0.5):
    """Midpoint of stratum i of n equal strata of [lo, hi], jittered by up to
    +-jitter mm. The levels fix the mix of case sizes; the seed moves each
    case a little, so the work per round is alike from seed to seed."""
    return lo + (hi - lo) * (i + 0.5) / n + float(rng.uniform(-jitter, jitter))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# --------------------------------------------------------------------------
# wholebrain_template


def _rotation(axis, angle_rad):
    import numpy as np

    a = np.asarray(axis, dtype=float)
    a /= np.linalg.norm(a)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle_rad) * K + (1.0 - np.cos(angle_rad)) * (K @ K)


def _brain_shapes(rng, dim):
    """Template-space shapes (label, bbox_lo, bbox_hi, inside(q)) in world mm.

    World coordinates put the grid center at the origin. The brain mask is an
    ellipsoid; 40 balls of distinct labels sit inside it, away from the
    mid-sagittal plane x = 0 where the CC arch lies; the arch is drawn last.
    """
    import numpy as np

    s = dim / 256.0
    semi = np.array([68.0, 84.0, 62.0]) * s
    shapes = [
        (
            2,
            -semi,
            semi,
            lambda q, semi=semi: ((q / semi) ** 2).sum(axis=-1) <= 1.0,
        )
    ]
    centers = []
    label = 10
    while len(centers) < 40:
        r = float(rng.uniform(4.0, 8.0)) * s
        c = rng.uniform(-1.0, 1.0, 3) * (semi - r - 2.0 * s)
        if ((c / (semi - r)) ** 2).sum() > 1.0 or abs(c[0]) < r + 12.0 * s:
            continue
        if any(np.linalg.norm(c - c2) < r + r2 + 1.0 for c2, r2 in centers):
            continue
        centers.append((c, r))
        shapes.append(
            (
                label,
                c - r,
                c + r,
                lambda q, c=c, r=r: ((q - c) ** 2).sum(axis=-1) <= r * r,
            )
        )
        label += 1
    # the arch keeps its adult size at every grid size, so its 1 mm
    # voxelization error stays that of the full-size workload
    r_in, r_out, half_w, z0 = 22.0, 30.0, 8.0, 6.0

    def arch(q):
        y, z = q[..., 1], q[..., 2] - z0
        rr = np.sqrt(y * y + z * z)
        return (np.abs(q[..., 0]) <= half_w) & (rr >= r_in) & (rr <= r_out) & (z >= 0)

    shapes.append((CC_LABEL, np.array([-half_w, -r_out, z0]), np.array([half_w, r_out, z0 + r_out]), arch))
    arch_geom = {"r_in": r_in, "r_out": r_out, "z0": z0}
    return shapes, arch_geom


def _paint(dim, shapes, R):
    """Label volume of the shapes rotated by R about the grid center.

    Each shape is evaluated only inside the bounding box of its rotated
    template box, which keeps the 256^3 build to a fraction of a second.
    """
    import numpy as np

    data = np.zeros((dim, dim, dim), dtype=np.int32)
    half = (dim - 1) / 2.0
    for label, lo, hi, inside in shapes:
        corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        rc = corners @ R.T
        i0 = np.maximum(np.floor(rc.min(axis=0) + half).astype(int) - 1, 0)
        i1 = np.minimum(np.ceil(rc.max(axis=0) + half).astype(int) + 2, dim)
        axes = [np.arange(i0[a], i1[a], dtype=float) - half for a in range(3)]
        p = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        q = p @ R  # template coordinates of each subject voxel: R^T p
        m = inside(q)
        data[i0[0] : i1[0], i0[1] : i1[1], i0[2] : i1[2]][m] = label
    return data


def build_wholebrain(seed: int, out: Path, small: bool = False) -> list:
    import numpy as np

    from ccmorph import Landmarks, Plane, Volume, save_volume

    dim = SIZES["small" if small else "full"]["brain_dim"]
    rng = np.random.default_rng([seed % 2**64, 1])  # any int seed
    shapes, arch = _brain_shapes(rng, dim)
    axis = rng.normal(size=3)
    angle_deg = float(rng.uniform(4.0, 12.0))
    R = _rotation(axis, np.deg2rad(angle_deg))

    half = (dim - 1) / 2.0
    affine = np.diag([1.0, 1.0, 1.0, 1.0])
    affine[:3, 3] = -half
    files = []
    for name, rot in (("template.nii", np.eye(3)), ("subject.nii", R)):
        save_volume(Volume(_paint(dim, shapes, rot), (1.0, 1.0, 1.0), affine), out / name)
        files.append(out / name)

    rm = (arch["r_in"] + arch["r_out"]) / 2.0
    ac = np.array([0.0, rm, arch["z0"] - 6.0])
    pc = np.array([0.0, -rm, arch["z0"] - 6.0])
    (out / "template_plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    (out / "subject_lm.json").write_text(Landmarks(R @ ac, R @ pc).to_json())
    _write_json(
        out / "truth.json",
        {"normal": list(R @ np.array([1.0, 0.0, 0.0])), "angle_deg": angle_deg, **arch},
    )
    return files + [out / n for n in ("template_plane.json", "subject_lm.json", "truth.json")]


# --------------------------------------------------------------------------
# arch_cohort


def build_arch_cohort(seed: int, out: Path, small: bool = False) -> list:
    import numpy as np

    from ccmorph import Plane, save_volume
    from ccmorph.phantoms import arch_mask_volume

    size = SIZES["small" if small else "full"]
    rng = np.random.default_rng([seed % 2**64, 2])  # any int seed
    scale = size["arch_inplane"] / 256.0
    (out / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    files = [out / "plane.json"]
    cases = []
    rows = ["case_id,group,age,sex,tbv"]
    # a 4 x 4 design of inner radius x thickness, each cell jittered
    for k in range(size["arch_cases"]):
        cid = f"case{k:03d}"
        r_in = _level(k // 4, 4, 18.0, 26.0, rng) * scale
        r_out = r_in + _level(k % 4, 4, 5.0, 10.0, rng) * scale
        vol, lm = arch_mask_volume(
            n_inplane=size["arch_inplane"], r_in=r_in, r_out=r_out, label=CC_LABEL
        )
        save_volume(vol, out / f"{cid}.nii")
        (out / f"{cid}_lm.json").write_text(lm.to_json())
        files += [out / f"{cid}.nii", out / f"{cid}_lm.json"]
        cases.append({"id": cid, "r_in": r_in, "r_out": r_out})
        group = "patient" if (k // 4 + k) % 2 else "control"
        sex = "f" if rng.random() < 0.5 else "m"
        rows.append(f"{cid},{group},{rng.uniform(25, 80):.1f},{sex},{rng.normal(1.3e6, 1e5):.0f}")
    (out / "table.csv").write_text("\n".join(rows) + "\n")
    _write_json(out / "truth.json", {"cases": cases})
    return files + [out / "table.csv", out / "truth.json"]


# --------------------------------------------------------------------------
# contour_fuzz


def fuzz_mask(rng, r_in: float, thick: float, pixel: float = FUZZ_PIXEL_MM):
    """One noisy half-annulus mask and its nominal geometry.

    The arch has inner radius ``r_in`` and thickness ``thick`` (mm), its two
    ends are cut at random angles, and pixels within one pixel of the
    boundary flip with probability 0.15 (salt noise). Pixel (i, j) sits at
    (i * pixel, j * pixel) mm, as in ``ccmorph.Mask2D``.
    """
    import numpy as np

    r_out = r_in + thick
    cut0, cut1 = (float(v) for v in rng.uniform(0.0, 0.3, 2))
    margin = 4.0
    cx = r_out + margin
    cy = margin + 2.0
    nx = int(np.ceil((2 * r_out + 2 * margin) / pixel))
    ny = int(np.ceil((r_out + 2 * margin + 2.0) / pixel))
    x = np.arange(nx) * pixel - cx
    y = np.arange(ny) * pixel - cy
    xx, yy = np.meshgrid(x, y, indexing="ij")
    rr = np.hypot(xx, yy)
    th = np.arctan2(yy, xx)
    inside = (rr >= r_in) & (rr <= r_out) & (th >= cut0) & (th <= np.pi - cut1)
    near = (np.abs(rr - r_in) < pixel) | (np.abs(rr - r_out) < pixel)
    flip = near & (th >= cut0 - 0.05) & (th <= np.pi - cut1 + 0.05) & (rng.random(rr.shape) < 0.15)
    mask = (inside ^ flip).astype(np.uint8)

    rm = (r_in + r_out) / 2.0
    a0, a1 = cut0, np.pi - cut1
    # AC/PC 1 mm outside the middle of each cut end, in mask mm coordinates
    ac = np.array([cx + rm * np.cos(a0) + np.sin(a0), cy + rm * np.sin(a0) - np.cos(a0)])
    pc = np.array([cx + rm * np.cos(a1) - np.sin(a1), cy + rm * np.sin(a1) + np.cos(a1)])
    meta = {"r_in": r_in, "r_out": r_out, "thickness": thick, "ac": ac.tolist(), "pc": pc.tolist()}
    return mask, meta


def build_contour_fuzz(seed: int, out: Path, small: bool = False) -> list:
    import numpy as np

    n = SIZES["small" if small else "full"]["fuzz_masks"]
    rng = np.random.default_rng([seed % 2**64, 3])  # any int seed
    masks = {}
    metas = []
    # every group of FUZZ_ROUND masks pairs the same radius and thickness
    # levels; the seed jitters them and draws the cuts and the noise
    for k in range(n):
        j = k % FUZZ_ROUND
        r_in = _level(j, FUZZ_ROUND, 18.0, 28.0, rng)
        thick = _level(FUZZ_THICKNESS_ORDER[j], FUZZ_ROUND, 3.0, 9.0, rng)
        mask, meta = fuzz_mask(rng, r_in, thick)
        masks[f"m{k:03d}"] = mask
        metas.append(meta)
    np.savez(out / "masks.npz", **masks)
    _write_json(out / "masks.json", {"pixel_mm": FUZZ_PIXEL_MM, "masks": metas})
    return [out / "masks.npz", out / "masks.json"]


BUILDERS = {
    "wholebrain_template": build_wholebrain,
    "arch_cohort": build_arch_cohort,
    "contour_fuzz": build_contour_fuzz,
}
WORKLOADS = tuple(BUILDERS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import ccmorph  # noqa: F401  - import time belongs to set-up

    files = BUILDERS[args.workload](args.seed, out, args.small)
    setup_s = time.perf_counter() - t0
    digests = {p.name: _digest(p) for p in files}
    print(json.dumps({"setup_s": setup_s, "digests": digests}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
