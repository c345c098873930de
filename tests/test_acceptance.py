"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import json
import time

import numpy as np
import pytest

from ccmorph import evalstats as es
from ccmorph import fem
from ccmorph import morphometry as mo
from ccmorph.config import RunConfig
from ccmorph.contour import Polyline
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import (
    arch_mask_volume,
    disc_contour,
    half_annulus_contour,
    half_annulus_landmarks,
    rectangle_contour,
    rectangle_grid_mesh,
    rectangle_landmarks,
    rectangle_mask_volume,
)
from ccmorph.pipeline import CaseSpec, run_case
from ccmorph.subseg import SCHEME_KINDS, SubsegScheme, subsegment
from ccmorph.transforms import Plane, RigidTransform, kabsch_rigid
from ccmorph.triangulate import triangulate
from ccmorph.volume import save_volume


def _report(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, np.pi)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def test_criterion_1_registration_recovery():
    """100/100 random rigid recoveries below 1e-9, under 1 ms each."""
    rng = np.random.default_rng(2024)
    kabsch_rigid(np.eye(3) * 10.0 + 1, np.eye(3) * 10.0 + 1)  # warm-up
    worst_rot = 0.0
    worst_tra = 0.0
    elapsed = 0.0
    n_ok = 0
    for _ in range(100):
        while True:
            pts = rng.uniform(-50, 50, size=(int(rng.integers(4, 9)), 3))
            s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            if s[1] > 1e-3 * s[0]:
                break
        R = _random_rotation(rng)
        t = rng.uniform(-100, 100, size=3)
        dst = pts @ R.T + t
        t0 = time.perf_counter()
        rec = kabsch_rigid(pts, dst)
        elapsed += time.perf_counter() - t0
        rot_err = np.linalg.norm(rec.rotation - R) / np.sqrt(2.0)  # ~ angle, rad
        tra_err = np.abs(rec.translation - t).max()
        worst_rot = max(worst_rot, rot_err)
        worst_tra = max(worst_tra, tra_err)
        if rot_err < 1e-9 and tra_err < 1e-9:
            n_ok += 1
    per_call = elapsed / 100.0
    ok = n_ok == 100 and per_call < 1e-3
    assert _report(
        1,
        ok,
        f"{n_ok}/100 recovered; worst rotation {worst_rot:.2e} rad, "
        f"worst translation {worst_tra:.2e} mm, {per_call * 1e3:.3f} ms/call",
    )


def test_criterion_2_fem_correctness(square_mesh, annulus_case):
    """Linear Dirichlet exactness, radial accuracy, divergence consistency."""
    V = square_mesh.vertices
    fixed = [(int(i), -1.0) for i in np.nonzero(np.abs(V[:, 0]) < 1e-12)[0]]
    fixed += [(int(i), 1.0) for i in np.nonzero(np.abs(V[:, 0] - 1) < 1e-12)[0]]
    f = fem.solve_dirichlet(square_mesh, fixed)
    err_lin = float(np.abs(f - (2 * V[:, 0] - 1)).max())

    mesh = annulus_case["mesh"]
    r = np.linalg.norm(mesh.vertices, axis=1)
    fixed_h = [(int(i), -1.0) for i in np.nonzero(np.abs(r - 2) < 1e-9)[0]]
    fixed_h += [(int(i), 1.0) for i in np.nonzero(np.abs(r - 4) < 1e-9)[0]]
    fh = fem.solve_dirichlet(mesh, fixed_h)
    analytic = 2 * np.log(r / 2) / np.log(2) - 1
    free = np.ones(mesh.n_vertices, dtype=bool)
    for i, _ in fixed_h:
        free[i] = False
    err_rad = float(np.abs(fh - analytic)[free].max())

    W = fem.stiffness_matrix(mesh)
    rng = np.random.default_rng(5)
    err_div = 0.0
    for _ in range(20):
        g = rng.normal(size=mesh.n_vertices)
        d = fem.divergence(mesh, fem.gradient(mesh, g))
        err_div = max(err_div, float(np.abs(d - W @ g).max()))

    ok = err_lin < 1e-9 and err_rad < 2e-3 and err_div < 1e-10
    assert _report(
        2,
        ok,
        f"linear soln err {err_lin:.2e} (<1e-9), radial err {err_rad:.2e} (<2e-3), "
        f"div(grad) vs W err {err_div:.2e} (<1e-10)",
    )


def _thickness_run(contour, lm, max_area):
    t0 = time.perf_counter()
    mesh = triangulate(contour, max_area)
    line, f = mo.intercallosal_line(mesh, lm, 100)
    prof = mo.thickness_profile(mesh, f, line, 100)
    return prof, line, time.perf_counter() - t0


def test_criterion_3_thickness_phantoms():
    """Interior thickness accuracy, midline length, per-phantom runtime."""
    prof_r, line_r, dt_r = _thickness_run(rectangle_contour(), rectangle_landmarks(), 0.25)
    interior_r = prof_r.thickness_mm[10:90]
    err_interior = float(np.abs(interior_r - 3.0).max() / 3.0)

    prof_h, line_h, dt_h = _thickness_run(
        half_annulus_contour(), half_annulus_landmarks(), 0.02
    )
    interior_h = prof_h.thickness_mm[10:90]
    err_h = float(np.abs(interior_h - 2.0).max() / 2.0)
    target_len = np.pi * 2 * np.sqrt(2.0)
    err_len = float(abs(line_h.length() - target_len) / target_len)

    ok = (
        prof_r.valid.all()
        and err_interior < 0.02
        and np.isfinite(interior_h).all()
        and err_h < 0.05
        and err_len < 0.02
        and dt_r < 2.0
        and dt_h < 2.0
    )
    assert _report(
        3,
        ok,
        f"rectangle interior-80 err {err_interior:.4f} (<0.02), half-annulus interior "
        f"err {err_h:.4f} (<0.05), length err {err_len:.4f} (<0.02), "
        f"runtimes {dt_r:.2f}s/{dt_h:.2f}s (<2s)",
    )


def test_criterion_3_rectangle_full_profile_as_specified(conformal_strip_thickness):
    """All 100 strip samples within 5% of the construction's analytic profile.

    The reference is the conformal-map solution for the 20 x 3 mm strip with
    the -1/+1 long sides and 0 endpoints: the level path of the harmonic
    conjugate at arc-length distance d from the nearer end of the computed
    midline has length ``conformal_strip_thickness(d, 3.0)``. That is 3.0 mm
    mid-strip, peaks at 3.10 mm about 1 mm from each end and falls to
    ~0.63 mm at the end samples, where the paths wrap around the
    boundary-condition jump. The mesh is ``rectangle_grid_mesh(20, 3, 0.0625)``,
    fine enough to resolve that jump: the error near the ends is
    discretization error and shrinks with the grid step. Thickness does not
    depend on which long side gets +1 (with AC/PC on the mid-height axis,
    rounding noise picks it), so only lengths are compared.
    """
    mesh = rectangle_grid_mesh(20.0, 3.0, 0.0625)
    line, f = mo.intercallosal_line(mesh, rectangle_landmarks(), 100)
    prof = mo.thickness_profile(mesh, f, line, 100)

    seg = np.linalg.norm(np.diff(line.points, axis=0), axis=1)
    s = np.cumsum(seg)[:-1]  # arc length at each of the 100 interior samples
    d = np.minimum(s, seg.sum() - s)
    analytic = np.array([conformal_strip_thickness(x, 3.0) for x in d])
    rel = np.abs(prof.thickness_mm - analytic) / analytic
    k = int(np.argmax(rel))  # a NaN sample is reported first
    n_outside = int((~(rel < 0.05)).sum())

    ok = prof.valid.all() and n_outside == 0
    assert _report(
        3,
        ok,
        f"strip 0.0625 mm grid, all-100 vs conformal-map profile: worst sample "
        f"{k} measured {prof.thickness_mm[k]:.3f} mm, analytic {analytic[k]:.3f} mm, "
        f"err {rel[k]:.4f} (<0.05); {n_outside} samples outside",
    )


def test_criterion_4_level_set_orthogonality():
    """Rotated-field level sets meet Laplace level sets at 90 deg +/- 2 mean.

    Measured on a half-annulus meshed at max_area 0.005 (within the stated
    <= 0.01 regime) as the area-weighted mean absolute deviation from 90
    degrees of the angle between grad(f) and grad(g) over every triangle
    that a level set of f crosses, i.e. where f is not constant; the
    per-midline-sample mean is reported alongside. The few corner triangles
    whose three vertices carry the same Dirichlet value have grad(f) = 0,
    so no angle (only rounding noise, or 0/0) is defined there.
    """
    mesh = triangulate(half_annulus_contour(n_arc=400), 0.005)
    line, f = mo.intercallosal_line(mesh, half_annulus_landmarks(), 100)
    g = mo.conjugate_field(mesh, f, line)
    gf = fem.gradient(mesh, f)
    gg = fem.gradient(mesh, g)
    ar = mesh.signed_areas()
    crossed = np.ptp(f[mesh.triangles], axis=1) > 0
    assert crossed.sum() >= mesh.n_triangles - 8  # corner triangles only
    with np.errstate(invalid="ignore"):
        dot = (gf * gg).sum(axis=1) / (np.linalg.norm(gf, axis=1) * np.linalg.norm(gg, axis=1))
    dev = np.abs(np.degrees(np.arccos(np.clip(dot, -1, 1))) - 90.0)
    mean_dev = float((dev * ar)[crossed].sum() / ar[crossed].sum())

    tids, _ = fem._locate_all(mesh, line.points[1:-1])
    mean_sample = float(np.mean(dev[tids]))

    ok = mean_dev < 2.0
    assert _report(
        4,
        ok,
        f"area-weighted mean |angle-90| = {mean_dev:.3f} deg (<2); "
        f"per-midline-sample mean = {mean_sample:.3f} deg",
    )


def test_criterion_5_summary_metrics():
    """Disc/square circularity, rectangle CC index, corrected volume rule."""
    disc = disc_contour(10.0)
    disc_mesh = triangulate(disc, 1.0)
    circ_disc = 4 * np.pi * disc_mesh.area() / disc.length() ** 2

    sq = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), closed=True)
    circ_sq = 4 * np.pi * sq.area() / sq.length() ** 2
    err_sq = abs(circ_sq - np.pi / 4) / (np.pi / 4)

    idx = mo.cc_index(rectangle_contour())
    err_idx = abs(idx.raw - 9.0) / 9.0

    v10 = mo.corrected_volume([100.0] * 5, 1.0)
    v08 = mo.corrected_volume([100.0] * 7, 0.8)
    err_vol = max(abs(v10 - 500.0), abs(v08 - 500.0)) / 500.0

    ok = circ_disc >= 0.98 and err_sq < 0.01 and err_idx < 0.02 and err_vol < 1e-9
    assert _report(
        5,
        ok,
        f"disc circ {circ_disc:.4f} (>=0.98), square circ err {err_sq:.2e} (<0.01), "
        f"cc index {idx.raw:.4f} (9 +/- 2%), volumes {v10:.9f}/{v08:.9f} (500 exact)",
    )


def _random_blob(rng, n_pts=140):
    t = np.linspace(0, 2 * np.pi, n_pts, endpoint=False)
    r = 8.0 + np.zeros_like(t)
    for k in range(2, 5):
        r += rng.uniform(-0.8, 0.8) * np.cos(k * t + rng.uniform(0, 2 * np.pi))
    return Polyline(np.column_stack([1.6 * r * np.cos(t), r * np.sin(t)]), closed=True)


def test_criterion_6_subsegmentation():
    """Partition exactness, shape-aware proportions, eigendirection equality."""
    rng = np.random.default_rng(77)
    lm_blob = mo.Landmarks2D(np.array([20.0, -12.0]), np.array([-20.0, -12.0]))
    worst_partition = 0.0
    for i in range(10):
        mesh = triangulate(_random_blob(rng), 1.0)
        line, _ = mo.intercallosal_line(mesh, lm_blob, 40)
        total = mesh.area()
        for kind in SCHEME_KINDS:
            res = subsegment(mesh, SubsegScheme(kind), lm_blob, line)
            worst_partition = max(
                worst_partition, abs(res.segment_areas_mm2.sum() - total) / total
            )

    contour = rectangle_contour()
    mesh_r = triangulate(contour, 0.05)
    lm_r = rectangle_landmarks()
    line_r, _ = mo.intercallosal_line(mesh_r, lm_r, 100)
    res_sa = subsegment(mesh_r, SubsegScheme("shape_aware"), lm_r, line_r)
    props = res_sa.segment_areas_mm2 / mesh_r.area()
    target = np.array([1 / 6, 1 / 3, 1 / 6, 1 / 12, 1 / 4])
    err_props = float(np.abs(props - target).max())

    grid = rectangle_grid_mesh()
    res_eig = subsegment(grid, SubsegScheme("eigendirection", segment_count=5), lm_r)
    err_eig = float(np.abs(res_eig.segment_areas_mm2 - grid.area() / 5.0).max() / grid.area())

    ok = worst_partition <= 1e-9 and err_props < 0.005 and err_eig <= 1e-9
    assert _report(
        6,
        ok,
        f"worst partition residual {worst_partition:.2e} (<=1e-9), shape-aware "
        f"proportion err {err_props:.5f} (<0.005), eigendirection equality err "
        f"{err_eig:.2e} (<=1e-9)",
    )


def test_criterion_7_evaluation_metrics():
    """DSC and HD95 equal brute-force oracles on 50 random 16^3 mask pairs."""
    rng = np.random.default_rng(99)
    n_pairs = 0
    all_match = True
    while n_pairs < 50:
        a = rng.random((16, 16, 16)) < 0.08
        b = rng.random((16, 16, 16)) < 0.08
        if not a.any() or not b.any():
            continue
        n_pairs += 1
        # brute-force oracles
        d_or = 2.0 * np.logical_and(a, b).sum() / (a.sum() + b.sum())
        ba = es.boundary_voxels(a)
        bb = es.boundary_voxels(b)
        d_ab = np.sqrt(((ba[:, None, :] - bb[None, :, :]) ** 2).sum(-1)).min(1)
        d_ba = np.sqrt(((bb[:, None, :] - ba[None, :, :]) ** 2).sum(-1)).min(1)
        h_or = float(np.percentile(np.concatenate([d_ab, d_ba]), 95))
        if es.dice(a, b) != d_or or es.hausdorff95(a, b) != h_or:
            all_match = False
        if es.dice(a, a) != 1.0 or es.hausdorff95(a, a) != 0.0:
            all_match = False
    assert _report(7, all_match, f"{n_pairs} pairs, exact oracle match incl. self-comparisons")


def test_criterion_8_statistics():
    """Wilcoxon exact p, BH hand case, seeded synthetic deficit recovery."""
    _, p_wil = es.wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
    bh = es.bh_correct([0.01, 0.02, 0.03, 0.04])
    bh_ok = np.allclose(bh, 0.04)

    rng = np.random.default_rng(7)
    n_cases, n_pos = 200, 100
    group = np.repeat([0, 1], n_cases // 2)
    age = rng.uniform(20, 80, n_cases)
    sex = rng.integers(0, 2, n_cases).astype(float)
    tbv = rng.normal(1.3e6, 1e5, n_cases)
    base = 6.0 + 0.4 * np.sin(np.linspace(0, np.pi, n_pos))
    thick = np.tile(base, (n_cases, 1))
    thick += 0.002 * (age[:, None] - 50.0)
    thick += rng.normal(0, 0.5, size=(n_cases, n_pos))
    thick[group == 1, 40:61] *= 0.8  # 20% deficit at positions 40..60
    table = es.GroupTable([f"c{i}" for i in range(n_cases)], group, age, sex, tbv, thick)
    stats = es.thickness_group_map(table)
    flagged = {s.position for s in stats if s.p_adj < 0.05}
    band = set(range(40, 61))
    widened = set(range(38, 63))
    recover_ok = band <= flagged and flagged <= widened

    ok = abs(p_wil - 0.1) < 1e-12 and bh_ok and recover_ok
    assert _report(
        8,
        ok,
        f"wilcoxon exact p = {p_wil} (0.1), BH adjusted = {np.round(bh, 4).tolist()}, "
        f"deficit flagged {sorted(flagged)[:1]}..{sorted(flagged)[-1:]} vs band 40..60 +/-2",
    )


@pytest.fixture(scope="module")
def arch_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("arch")
    vol, lm = arch_mask_volume()
    save_volume(vol, root / "labels.nii.gz")
    (root / "lm.json").write_text(lm.to_json())
    (root / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    return root


def test_criterion_9_runtime(arch_files, tmp_path):
    """Full geometry pipeline on a 256 x 256 x 7 slab in under 10 s."""
    case = CaseSpec(
        "arch",
        str(arch_files / "labels.nii.gz"),
        str(arch_files / "lm.json"),
        str(arch_files / "plane.json"),
    )
    cfg = RunConfig(slab_spacing_mm=1.0).validate()
    t0 = time.perf_counter()
    status = run_case(case, cfg, tmp_path / "run")
    dt = time.perf_counter() - t0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    ok = status["ok"] and dt < 10.0 and np.isfinite(summary["area_mm2"])
    assert _report(
        9,
        ok,
        f"measured {dt:.2f} s (<10 s) for 256x256x7; area {summary['area_mm2']:.1f} mm^2, "
        f"length {summary['length_mm']:.1f} mm",
    )


def test_criterion_10_determinism(tmp_path):
    """Two identical pipeline runs produce byte-identical CSV/JSON outputs."""
    root = tmp_path / "inputs"
    root.mkdir()
    vol, lm = rectangle_mask_volume()
    save_volume(vol, root / "labels.nii.gz")
    (root / "lm.json").write_text(lm.to_json())
    (root / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    case = CaseSpec(
        "det", str(root / "labels.nii.gz"), str(root / "lm.json"), str(root / "plane.json")
    )
    cfg = RunConfig(slab_spacing_mm=1.0).validate()
    s1 = run_case(case, cfg, tmp_path / "r1")
    s2 = run_case(case, cfg, tmp_path / "r2")
    names = [
        "plane.json",
        "pose.json",
        "contour.csv",
        "line.csv",
        "laplace.csv",
        "profile.csv",
        "summary.json",
        "subseg.csv",
        "subseg_labels.csv",
    ]
    diffs = [
        n
        for n in names
        if (tmp_path / "r1" / n).read_bytes() != (tmp_path / "r2" / n).read_bytes()
    ]
    ok = s1["ok"] and s2["ok"] and not diffs
    assert _report(
        10, ok, f"{len(names)} CSV/JSON outputs byte-identical" if ok else f"differs: {diffs}"
    )
