#!/usr/bin/env python3
"""SHA-256 digest of every per-case output on a fixed set of inputs.

Runs ``run_case`` with all six sub-segmentation schemes on:

- the rectangle and arch phantoms (``rectangle_mask_volume``,
  ``arch_mask_volume``, known plane, 1 mm slab spacing);
- the 16 ``arch_cohort`` seed-7 slabs and the ``wholebrain_template``
  seed-7 label map (template path), both built by ``ccbench/inputs.py``;

runs ``scripts/run_phantom_case.py`` as it is, and writes the
``extract_contour`` contour of each of the 16 ``contour_fuzz`` seed-15 masks
twice: on the raw 0/1 mask (rich in saddle cells) and on the mask smoothed
as the pipeline smooths it, both padded and at the default iso value.

It writes one JSON object mapping each output file (relative to the work
directory) to its SHA-256;
``status.json`` holds timings and is left out. Two checkouts give the same
outputs when their digests are equal; ``--check`` lists every file whose
digest differs, is missing or is extra, and exits 1 if there is any:

    PYTHONPATH=A/src python3 scripts/output_digest.py a.json
    PYTHONPATH=B/src python3 scripts/output_digest.py b.json
    python3 scripts/output_digest.py --check a.json b.json

When a change moves mesh bytes on purpose, ``--compare`` says by how much
the measured values moved between two kept work directories: each
``summary.json`` field's largest relative difference over the cases, the
largest per-sample ``profile.csv`` difference, every case's mesh
vertex/triangle counts and, over the cases whose counts match, the largest
absolute ``laplace.csv`` and ``line.csv`` value differences:

    PYTHONPATH=A/src python3 scripts/output_digest.py a.json --work wa
    PYTHONPATH=B/src python3 scripts/output_digest.py b.json --work wb
    python3 scripts/output_digest.py --compare wa wb

Usage: python3 scripts/output_digest.py OUT.json [--work DIR]
       python3 scripts/output_digest.py --check A.json B.json
       python3 scripts/output_digest.py --compare WORK_A WORK_B
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEED = 7
FUZZ_SEED = 15


def _run(script: Path, *args) -> None:
    import ccmorph  # only the digest runs import it, so --check and --compare need no PYTHONPATH

    # child processes import the same ccmorph as this one, whatever the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(ccmorph.__file__).resolve().parent.parent))
    subprocess.run([sys.executable, str(script), *map(str, args)], check=True, env=env, stdout=subprocess.DEVNULL)


def _inputs(workload: str, out: Path, seed: int = SEED) -> None:
    _run(REPO / "ccbench" / "inputs.py", "--workload", workload, "--seed", seed, "--out", out)


def run_all(work: Path) -> None:
    from ccmorph.config import RunConfig
    from ccmorph.contour import Mask2D, extract_contour, smooth_mask
    from ccmorph.phantoms import arch_mask_volume, rectangle_mask_volume
    from ccmorph.pipeline import CaseSpec, run_case
    from ccmorph.subseg import SCHEME_KINDS
    from ccmorph.transforms import Plane
    from ccmorph.volume import save_volume

    schemes = list(SCHEME_KINDS)
    known_plane = RunConfig(slab_spacing_mm=1.0, schemes=schemes).validate()

    for name, (vol, lm) in (("rect", rectangle_mask_volume()), ("arch", arch_mask_volume())):
        root = work / "inputs" / name
        root.mkdir(parents=True, exist_ok=True)
        save_volume(vol, root / "labels.nii.gz")
        (root / "lm.json").write_text(lm.to_json())
        (root / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
        case = CaseSpec(name, str(root / "labels.nii.gz"), str(root / "lm.json"), str(root / "plane.json"))
        run_case(case, known_plane, work / "out" / name)

    script = work / "inputs" / "run_phantom_case"
    _run(REPO / "scripts" / "run_phantom_case.py", script)
    shutil.move(script / "case", work / "out" / "run_phantom_case")  # its inputs are not outputs

    cohort = work / "inputs" / "arch_cohort"
    _inputs("arch_cohort", cohort)
    for case_id in sorted(c["id"] for c in json.loads((cohort / "truth.json").read_text())["cases"]):
        case = CaseSpec(
            case_id, str(cohort / f"{case_id}.nii"), str(cohort / f"{case_id}_lm.json"), str(cohort / "plane.json")
        )
        run_case(case, known_plane, work / "out" / "arch_cohort" / case_id)

    brain = work / "inputs" / "wholebrain_template"
    _inputs("wholebrain_template", brain)
    template = RunConfig(
        schemes=schemes,
        template_seg=str(brain / "template.nii"),
        template_plane=str(brain / "template_plane.json"),
    ).validate()
    case = CaseSpec("subject", str(brain / "subject.nii"), str(brain / "subject_lm.json"))
    run_case(case, template, work / "out" / "wholebrain_template")

    fuzz = work / "inputs" / "contour_fuzz"
    _inputs("contour_fuzz", fuzz, FUZZ_SEED)
    px = json.loads((fuzz / "masks.json").read_text())["pixel_mm"]
    contours = work / "out" / "contour_fuzz"
    contours.mkdir(parents=True)
    cfg = RunConfig()
    with np.load(fuzz / "masks.npz") as masks:
        for name in sorted(masks.files):
            mask = Mask2D(masks[name], (px, px))
            for kind, field in (("raw", mask.data), ("smooth", smooth_mask(mask, cfg.sigma_vox * px))):
                contour = extract_contour(np.pad(field, 1), cfg.iso, pixel_size=(px, px), origin=(-px, -px))
                (contours / f"{name}_{kind}.csv").write_text(contour.to_csv())


def digests(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "status.json"
    }


def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values (NaN included), inf for NaN against a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _profile(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# per-vertex and per-sample outputs whose values --compare reports when a case's mesh counts match
FIELDS = ("laplace.csv", "line.csv")


def _mesh_counts(path: Path) -> tuple:
    with path.open() as f:
        f.readline()  # OFF
        n_v, n_t = f.readline().split()[:2]
    return int(n_v), int(n_t)


def compare(work_a: Path, work_b: Path) -> list:
    """Lines describing how far the measured outputs of two work directories differ."""
    cases_a = {p.parent.relative_to(work_a / "out") for p in (work_a / "out").rglob("summary.json")}
    cases_b = {p.parent.relative_to(work_b / "out") for p in (work_b / "out").rglob("summary.json")}
    lines = [f"only in {w}: {c}" for w, only in ((work_a, cases_a - cases_b), (work_b, cases_b - cases_a)) for c in sorted(only)]
    cases = sorted(cases_a & cases_b)
    worst = {}  # summary field -> (relative difference, case)
    prof_rel, prof_abs, prof_at = 0.0, 0.0, "-"  # largest per-sample profile differences
    fields = {name: (0.0, "-") for name in FIELDS}  # largest absolute difference, and where
    same_counts = 0
    meshes = []
    for case in cases:
        a, b = work_a / "out" / case, work_b / "out" / case
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        for key in sorted(sa.keys() | sb.keys()):
            rel = _rel(float(sa[key]), float(sb[key])) if key in sa and key in sb else math.inf
            if key not in worst or rel > worst[key][0]:
                worst[key] = (rel, case)
        pa, pb = _profile(a / "profile.csv"), _profile(b / "profile.csv")
        if pa.shape != pb.shape or not np.array_equal(pa[:, 0], pb[:, 0]):
            lines.append(f"profile.csv sample positions differ: {case}")
        else:
            for k, (ta, tb) in enumerate(zip(pa[:, 1].tolist(), pb[:, 1].tolist())):
                rel = _rel(ta, tb)
                if rel > prof_rel:
                    prof_rel, prof_at = rel, f"{case} sample {k}"
                if 0.0 < rel < math.inf:
                    prof_abs = max(prof_abs, abs(ta - tb))
        meshes.append((case, _mesh_counts(a / "mesh.off"), _mesh_counts(b / "mesh.off")))
        if meshes[-1][1] != meshes[-1][2]:
            continue
        same_counts += 1
        for name in FIELDS:
            fa, fb = _profile(a / name), _profile(b / name)
            if fa.shape != fb.shape:
                lines.append(f"{name} shapes differ: {case}")
                continue
            d = float(np.abs(fa - fb).max(initial=0.0))
            if d > fields[name][0]:
                fields[name] = (d, str(case))

    lines.append(f"summary.json, largest relative difference over {len(cases)} cases:")
    lines += [f"  {key:24s} {rel:.2e}  {case}" for key, (rel, case) in worst.items()]
    lines.append(
        f"profile.csv thickness_mm: largest relative difference {prof_rel:.2e} ({prof_at}), "
        f"largest absolute {prof_abs:.2e} mm"
    )
    lines.append(f"largest absolute difference over the {same_counts} cases whose mesh counts match:")
    lines += [f"  {name:24s} {d:.2e}  {case}" for name, (d, case) in fields.items()]
    lines.append("mesh.off vertices/triangles:")
    lines += [f"  {str(case):24s} {va}/{ta} -> {vb}/{tb}" for case, (va, ta), (vb, tb) in meshes]
    return lines


def check(table_a: Path, table_b: Path) -> tuple:
    """(a line per output whose digest differs, is missing from B or is extra in B; the number of equal digests)."""
    a, b = (json.loads(p.read_text()) for p in (table_a, table_b))
    lines = [f"differs: {name}" for name in sorted(a.keys() & b.keys()) if a[name] != b[name]]
    lines += [f"missing from {table_b}: {name}" for name in sorted(a.keys() - b.keys())]
    lines += [f"extra in {table_b}: {name}" for name in sorted(b.keys() - a.keys())]
    return lines, sum(a[name] == b[name] for name in a.keys() & b.keys())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="JSON file to write")
    ap.add_argument("--work", default="", help="work directory to keep (default: a temporary one)")
    ap.add_argument("--compare", nargs=2, metavar=("WORK_A", "WORK_B"), help="compare the outputs of two kept work directories")
    ap.add_argument("--check", nargs=2, metavar=("A.json", "B.json"), help="list the outputs whose digests differ; exit 1 if any")
    args = ap.parse_args(argv)
    if args.check:
        lines, equal = check(*map(Path, args.check))
        print("\n".join(lines + [f"{equal} digests equal, {len(lines)} not"]))
        return 1 if lines else 0
    if args.compare:
        print("\n".join(compare(*map(Path, args.compare))))
        return 0
    if not args.out:
        ap.error("OUT.json is required without --compare")
    out = Path(args.out).resolve()
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        if (work / "out").exists():
            ap.error(f"{work / 'out'} exists")
        work.mkdir(parents=True, exist_ok=True)
        os.chdir(work)  # relative input paths keep config.txt free of the work directory
        try:
            run_all(Path("."))
            table = digests(Path("out"))
        finally:
            os.chdir(home)
    out.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"{len(table)} outputs digested into {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
