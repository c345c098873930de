import hashlib
import json
import subprocess
import sys
import weakref
from array import array
from collections import deque
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

import ccmorph
from ccmorph import Landmarks2D, intercallosal_line, thickness_profile
from ccmorph.contour import Mask2D, Polyline, extract_contour, polygon_area, smooth_mask
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import arch_mask_volume, half_annulus_contour
from ccmorph.triangulate import SmallAngleError, _Refiner, _Triangulator, first_self_intersection, triangulate

# Contours of contour_fuzz benchmark masks that the mesher failed on.
# Recipe (ROADMAP item 4): `python3 ccbench/inputs.py --workload contour_fuzz
# --seed S --out D`; mask k of D/masks.npz with pixel size p from
# D/masks.json -> smooth_mask(Mask2D(mask, (p, p)), p) -> extract_contour(
# np.pad(field, 1), 0.5, pixel_size=(p, p), origin=(-p, -p)). AC/PC and the
# nominal thickness are the mask's entry in masks.json.
FUZZ = json.loads((Path(__file__).parent / "data" / "fuzz_contours.json").read_text())


def _fuzz_contour(name):
    return Polyline(np.array(FUZZ[name]["contour"]), closed=True)


def _assert_nominal_thickness(name, mesh):
    """The median interior thickness (samples 10..89) is within 10% of the mask's nominal one."""
    case = FUZZ[name]
    lm = Landmarks2D(np.array(case["ac"]), np.array(case["pc"]))
    line, f = intercallosal_line(mesh, lm, 100)
    profile = thickness_profile(mesh, f, line, 100)
    median = float(np.nanmedian(profile.thickness_mm[9:89]))
    assert abs(median - case["thickness_mm"]) <= 0.10 * case["thickness_mm"]


@pytest.fixture(scope="module")
def fuzz209_mesh():
    case = FUZZ["seed209_m002"]
    return triangulate(_fuzz_contour("seed209_m002"), case["max_area_mm2"])


@pytest.fixture(scope="module")
def disc_mesh():
    t = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    return triangulate(Polyline(np.column_stack([np.cos(t), np.sin(t)]), closed=True), 0.01)


def _square(side=1.0):
    return Polyline(
        np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]]), closed=True
    )


class TestSquare:
    def test_quality_and_area(self, square_mesh):
        mesh = square_mesh
        assert mesh.n_triangles >= 200
        areas = mesh.signed_areas()
        assert areas.min() > 0  # all counter-clockwise, none degenerate
        assert areas.max() <= 0.005 * (1 + 1e-9)
        assert abs(areas.sum() - 1.0) < 1e-9
        angles = np.degrees(mesh.angles())
        assert angles.min() >= 20.0 - 1e-6

    def test_boundary_recovers_contour(self, square_mesh):
        mesh = square_mesh
        loop = mesh.boundary_loop()
        pts = mesh.vertices[loop]
        corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        # every input contour vertex appears exactly on the boundary
        for c in corners:
            assert np.min(np.linalg.norm(pts - c, axis=1)) == 0.0
        # and in cyclic order
        idx = [int(np.argmin(np.linalg.norm(pts - c, axis=1))) for c in corners]
        rolled = np.argsort(idx)
        assert list(rolled) in ([0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]) or list(
            rolled[::-1]
        ) in ([0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2])

    def test_euler_characteristic(self, square_mesh):
        assert square_mesh.euler_characteristic() == 1

    def test_single_component(self, square_mesh):
        mesh = square_mesh
        # union-find over triangle vertices
        parent = list(range(mesh.n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b, c in mesh.triangles:
            for u, v in ((a, b), (b, c)):
                parent[find(int(u))] = find(int(v))
        roots = {find(v) for v in range(mesh.n_vertices)}
        assert len(roots) == 1


class TestHalfAnnulus:
    def test_area_and_quality(self, annulus_case):
        mesh = annulus_case["mesh"]
        contour = annulus_case["contour"]
        areas = mesh.signed_areas()
        assert areas.min() > 0
        # mesh area equals the boundary polygon area (interior vertices cancel)
        poly_area = abs(polygon_area(contour.points))
        assert abs(areas.sum() - poly_area) / poly_area < 1e-9
        # and is close to the analytic half-annulus area
        analytic = np.pi * (4.0**2 - 2.0**2) / 2.0
        assert abs(areas.sum() - analytic) / analytic < 0.005
        assert np.degrees(mesh.angles()).min() >= 20.0 - 1e-6
        assert areas.max() <= 0.01 * (1 + 1e-9)

    def test_half_annulus_area_tolerance(self):
        c = half_annulus_contour(2.0, 4.0)
        mesh = triangulate(c, 0.05)
        analytic = 6.0 * np.pi
        assert abs(mesh.area() - analytic) / analytic < 0.005


class TestValidation:
    def test_self_intersection_named(self):
        bow = Polyline(
            np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]]), closed=True
        )
        with pytest.raises(ValueError, match=r"segments 0 and 2"):
            triangulate(bow, 0.1)

    def test_first_self_intersection_none(self):
        assert first_self_intersection(_square().points) is None

    def test_open_contour_rejected(self):
        open_line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=False)
        with pytest.raises(ValueError, match="closed"):
            triangulate(open_line, 0.1)

    def test_bad_area(self):
        with pytest.raises(ValueError):
            triangulate(_square(), 0.0)

    def test_clockwise_input_accepted(self):
        cw = Polyline(_square().points[::-1], closed=True)
        mesh = triangulate(cw, 0.02)
        assert abs(mesh.area() - 1.0) < 1e-9

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_rejected(self, bad):
        # an inf point used to reach triangulate and fail on a NaN cast; a NaN
        # one vanished in the duplicate filter ("needs at least 3 distinct points")
        pts = _square().points.copy()
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="polyline points must be finite"):
            Polyline(pts, closed=True)


def _interior_angles(pts):
    """Interior angle (degrees) at each vertex of a simple polygon, one vertex at a time."""
    sign = 1.0 if polygon_area(pts) > 0 else -1.0
    out = []
    for k in range(len(pts)):
        a, b = pts[k + 1 - len(pts)] - pts[k], pts[k - 1] - pts[k]
        out.append(np.degrees(np.arctan2(sign * (a[0] * b[1] - a[1] * b[0]), a @ b)) % 360.0)
    return np.array(out)


class TestSmallInputAngles:
    """A corner sharper than min_angle_deg has no mesh meeting the bound: the contour is bad input."""

    @pytest.mark.parametrize("area", [0.05, 0.25])
    def test_sharp_polygons_raise_before_meshing(self, area, monkeypatch):
        triangle = np.array([[0.0, 1.0], [-0.25, 1.0], [-1.0, 0.0]])  # ROADMAP item 4's, 8.1 deg at (-1, 0)
        polygons = list(_star_polygons(6, 24)) + [triangle]
        monkeypatch.setattr(_Refiner, "__init__", lambda *a: pytest.fail("the mesher started"))
        sharp = 0
        for pts in polygons:
            angles = _interior_angles(pts)
            if angles.min() >= 20.0:
                continue
            sharp += 1
            k = int(np.flatnonzero(angles < 20.0)[0])
            message = f"contour vertex {k} has an interior angle of {angles[k]:.4g} deg, below min_angle_deg 20"
            with pytest.raises(SmallAngleError, match=message):
                triangulate(Polyline(pts, closed=True), area)
        assert sharp == 10

    def test_bound_and_orientation(self):
        triangle = np.array([[0.0, 1.0], [-0.25, 1.0], [-1.0, 0.0]])
        with pytest.raises(SmallAngleError, match="vertex 0 has an interior angle of 8.13 deg"):
            triangulate(Polyline(triangle[[2, 1, 0]], closed=True), 0.25)  # the same triangle, counter-clockwise
        with pytest.raises(SmallAngleError, match="below min_angle_deg 8"):
            triangulate(Polyline(triangle, closed=True), 0.25, min_angle_deg=8.2)
        assert isinstance(SmallAngleError("x"), ValueError)
        square = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), closed=True)
        assert triangulate(square, 0.25, min_angle_deg=33.0).n_triangles > 0  # right angles pass every bound


class TestFuzzRegressions:
    def test_seed209_m002_meshes(self, fuzz209_mesh):
        """Seed 209 mask m002 at max_area 0.1, 466 contour vertices (recipe above).

        It raised "degenerate insertion at the hull" while the longest-edge
        fallback inserted its point without the encroachment check.
        """
        assert len(FUZZ["seed209_m002"]["contour"]) == 466
        _assert_nominal_thickness("seed209_m002", fuzz209_mesh)

    def test_seed108_m009_meshes(self):
        """Seed 108 mask m009 at max_area 0.1 (recipe above) reached the hull
        under contour/seed insertion in BRIO order; it meshes since the one-call build."""
        mesh = triangulate(_fuzz_contour("seed108_m009"), FUZZ["seed108_m009"]["max_area_mm2"])
        assert np.degrees(mesh.angles()).min() >= 20.0 - 1e-6
        _assert_nominal_thickness("seed108_m009", mesh)

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="known mesher failure, ROADMAP item 4")
    @pytest.mark.parametrize(
        "name, area",
        [
            ("seed104_m010", 0.5),
            ("seed109_m015", 0.5),
            ("seed210_m013", 0.1),
            ("seed212_m001", 0.5),
            ("seed218_m001", 0.5),
            ("seed218_m001", 0.25),
            ("seed218_m001", 0.1),
            ("seed219_m015", 0.5),
            ("seed219_m015", 0.25),
            ("seed219_m015", 0.1),
            ("seed331_m001", 0.5),
            ("seed334_m005", 0.5),
            ("seed361_m011", 0.5),
            ("seed361_m011", 0.25),
            ("seed371_m006", 0.5),
            ("seed371_m006", 0.25),
            ("seed371_m006", 0.1),
            ("seed386_m009", 0.25),
            ("seed386_m009", 0.1),
            ("seed387_m009", 0.25),
            ("seed387_m015", 0.5),
            ("seed398_m000", 0.5),
            ("seed398_m005", 0.25),
            ("tilted_plane", 0.25),
        ],
    )
    def test_known_failures_mesh(self, name, area):
        """The `scripts/mesh_sweep.py` failures of seeds 100-129, 200-229 and 300-399 (recipe
        above), and the contour of the arch phantom cut by a tilted plane (its entry holds its recipe).

        Seed 109 m015 raises "mesh refinement did not converge", the others
        "degenerate insertion at the hull"; any other failure fails the test.
        """
        expected = "mesh refinement did not converge" if name == "seed109_m015" else "degenerate insertion at the hull"
        try:
            triangulate(_fuzz_contour(name), area)
        except RuntimeError as e:
            if str(e) != expected:
                raise AssertionError(f"{name}@{area} raised {str(e)!r}, not {expected!r}") from e
            raise


class TestBoundaryFlags:
    @pytest.mark.parametrize("fixture", ["square_mesh", "annulus_case", "disc_mesh", "fuzz209_mesh"])
    def test_flags_match_boundary_edges(self, fixture, request):
        mesh = request.getfixturevalue(fixture)
        mesh = mesh["mesh"] if isinstance(mesh, dict) else mesh
        onboundary = np.zeros(mesh.n_vertices, dtype=bool)
        onboundary[np.unique(mesh.boundary_edges())] = True
        assert np.array_equal(onboundary, mesh.boundary_flags)

    def test_single_boundary_loop(self, annulus_case):
        loop = annulus_case["mesh"].boundary_loop()
        assert len(loop) == int(annulus_case["mesh"].boundary_flags.sum())

    @pytest.mark.parametrize("fixture", ["square_mesh", "annulus_case"])
    def test_edge_keys_match_pair_unique(self, fixture, request):
        # the row-wise np.unique over sorted vertex pairs that the 1-D keys replaced
        mesh = request.getfixturevalue(fixture)
        mesh = mesh["mesh"] if isinstance(mesh, dict) else mesh
        t = mesh.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs, inv, counts = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(mesh.edges(), pairs)
        assert np.array_equal(mesh.boundary_edges(), e[counts[inv.ravel()] == 1])


class TestNeighbors:
    @pytest.mark.parametrize("fixture", ["square_mesh", "annulus_case", "disc_mesh", "fuzz209_mesh"])
    def test_matches_brute_force_pairing(self, fixture, request):
        mesh = request.getfixturevalue(fixture)
        mesh = mesh["mesh"] if isinstance(mesh, dict) else mesh
        sides = {}
        for tid, tri in enumerate(mesh.triangles.tolist()):
            for k in range(3):
                sides.setdefault(frozenset((tri[k], tri[(k + 1) % 3])), []).append((tid, k))
        expected = np.full((mesh.n_triangles, 3), -1)
        for pair in sides.values():
            if len(pair) == 2:
                (t0, k0), (t1, k1) = pair
                expected[t0, k0], expected[t1, k1] = t1, t0
        nb = mesh.neighbors
        assert np.array_equal(nb, expected)
        # symmetric: every interior side is seen from both of its triangles
        tid, k = np.nonzero(nb >= 0)
        assert np.all((mesh.neighbors[nb[tid, k]] == tid[:, None]).sum(axis=1) == 1)

    def test_read_only_and_built_once(self, square_mesh):
        nb = square_mesh.neighbors
        assert square_mesh.neighbors is nb
        with pytest.raises(ValueError):
            nb[0, 0] = 0

    def test_three_triangle_edge_raises(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        mesh = TriMesh2D(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="more than two triangles"):
            mesh.neighbors


class TestOFF:
    def test_roundtrip(self, square_mesh):
        from ccmorph.mesh import TriMesh2D

        text = square_mesh.to_off()
        back = TriMesh2D.from_off(text)
        np.testing.assert_allclose(back.vertices, square_mesh.vertices)
        assert np.array_equal(back.triangles, square_mesh.triangles)
        assert np.array_equal(back.boundary_flags, square_mesh.boundary_flags)

    def test_rejects_non_off(self):
        from ccmorph.mesh import TriMesh2D

        with pytest.raises(ValueError, match="OFF"):
            TriMesh2D.from_off("PLY\n0 0 0\n")


class TestRandomBlobs:
    def test_random_smooth_blobs(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            t = np.linspace(0, 2 * np.pi, 180, endpoint=False)
            r = 8.0 + np.zeros_like(t)
            for k in range(2, 6):
                r += rng.uniform(-1.0, 1.0) * np.cos(k * t + rng.uniform(0, 2 * np.pi))
            pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
            contour = Polyline(pts, closed=True)
            mesh = triangulate(contour, 0.5)
            areas = mesh.signed_areas()
            assert areas.min() > 0
            poly = abs(polygon_area(contour.points))
            assert abs(areas.sum() - poly) / poly < 1e-9
            assert np.degrees(mesh.angles()).min() >= 20.0 - 1e-6
            assert mesh.euler_characteristic() == 1


# -- the mesher's pruned kernels against the all-pairs versions they replaced --


def _ref_first_self_intersection(points):
    """The per-segment loop over all later segments."""
    p = np.asarray(points, dtype=float)
    n = len(p)
    a = p
    b = np.roll(p, -1, axis=0)

    def orient(p0, p1, q):
        return (p1[..., 0] - p0[..., 0]) * (q[..., 1] - p0[..., 1]) - (p1[..., 1] - p0[..., 1]) * (
            q[..., 0] - p0[..., 0]
        )

    def on_segment(p0, p1, q):
        return np.all((q >= np.minimum(p0, p1)) & (q <= np.maximum(p0, p1)), axis=-1)

    for i in range(n - 2):
        j0 = i + 2
        j1 = n if i > 0 else n - 1
        if j0 >= j1:
            continue
        aj = a[j0:j1]
        bj = b[j0:j1]
        d1 = orient(a[i], b[i], aj)
        d2 = orient(a[i], b[i], bj)
        d3 = orient(aj, bj, a[i])
        d4 = orient(aj, bj, b[i])
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        touching = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
        if touching.any():
            lo_i = np.minimum(a[i], b[i])
            hi_i = np.maximum(a[i], b[i])
            lo_j = np.minimum(aj, bj)
            hi_j = np.maximum(aj, bj)
            bbox = np.all(lo_i <= hi_j, axis=1) & np.all(lo_j <= hi_i, axis=1)
            d1z = (d1 == 0) & on_segment(a[i], b[i], aj)
            d2z = (d2 == 0) & on_segment(a[i], b[i], bj)
            d3z = (d3 == 0) & on_segment(aj, bj, np.broadcast_to(a[i], aj.shape))
            d4z = (d4 == 0) & on_segment(aj, bj, np.broadcast_to(b[i], aj.shape))
            proper = proper | (bbox & (d1z | d2z | d3z | d4z))
        hits = np.nonzero(proper)[0]
        if hits.size:
            return i, int(hits[0] + j0)
    return None


def _ref_points_in_polygon(points, poly):
    """Even-odd rule over every (point, edge) pair."""
    x, y = points[:, 0][:, None], points[:, 1][:, None]
    a = poly
    b = np.roll(a, -1, axis=0)
    ya, yb = a[:, 1][None, :], b[:, 1][None, :]
    xa, xb = a[:, 0][None, :], b[:, 0][None, :]
    cond = (ya <= y) != (yb <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = xa + (y - ya) * (xb - xa) / (yb - ya)
    return (cond & (x < xs)).sum(axis=1) % 2 == 1


def _ref_dist_to_segments(points, a, b):
    """Distance from each point to its nearest segment, over every (point, segment) pair."""
    d = b - a
    l2 = (d * d).sum(axis=1)
    l2 = np.where(l2 == 0, 1.0, l2)
    t = ((points[:, None, :] - a[None, :, :]) * d[None, :, :]).sum(axis=2) / l2[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2).min(axis=1)


def _ref_seed_points(ref, spacing):
    """The hex-grid seed candidates that pass every all-pairs filter, row by row."""
    poly = ref.poly
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    dy = spacing * np.sqrt(3.0) / 2.0
    cand = []
    for row, y in enumerate(np.arange(lo[1] + 0.5 * dy, hi[1], dy)):
        xs = np.arange(lo[0] + 0.5 * spacing + (0.5 * spacing if row % 2 else 0.0), hi[0], spacing)
        cand.append(np.column_stack([xs, np.full(len(xs), y)]))
    cand = np.vstack(cand)
    cand = cand[_ref_points_in_polygon(cand, poly)]
    cand = cand[_ref_dist_to_segments(cand, poly, np.roll(poly, -1, axis=0)) > 0.62 * spacing]
    return [(float(x), float(y)) for x, y in cand if not ref._encroached_by(x, y)]


def _arch_contour():
    """The mid-slice contour of ``arch_mask_volume``, as the pipeline extracts it."""
    vol, _ = arch_mask_volume()
    px = 0.5
    mask = Mask2D((vol.data[3] == 251).astype(np.uint8), (px, px))
    field = smooth_mask(mask, px)
    return extract_contour(np.pad(field, 1), 0.5, pixel_size=(px, px), origin=(-px, -px))


SEED_CASES = {
    "arch@0.25": (_arch_contour, 0.25),
    "annulus@0.25": (lambda: half_annulus_contour(22.0, 30.0, 600), 0.25),
    "annulus_small@0.01": (half_annulus_contour, 0.01),
    "seed209_m002": (lambda: _fuzz_contour("seed209_m002"), FUZZ["seed209_m002"]["max_area_mm2"]),
    "seed104_m010": (lambda: _fuzz_contour("seed104_m010"), FUZZ["seed104_m010"]["max_area_mm2"]),
}


def _refiner(name):
    """A fresh ``_Refiner`` of a ``SEED_CASES`` contour, counter-clockwise as ``triangulate`` makes it."""
    make, max_area = SEED_CASES[name]
    pts = make().points
    if polygon_area(pts) < 0:
        pts = pts[::-1]
    return _Refiner(np.asarray(pts, dtype=float), max_area, 20.0)


def _ref_initial_conformity(ref):
    """Split every segment encroached by a vertex, scanning all vertices per segment."""
    changed = True
    while changed:
        changed = False
        for seg in list(ref.segs):
            if seg not in ref.segs:
                continue
            fx, fy = np.asarray(ref.tr.fx), np.asarray(ref.tr.fy)
            u, v = seg
            mx, my = 0.5 * (fx[u] + fx[v]), 0.5 * (fy[u] + fy[v])
            r2 = ((fx[u] - fx[v]) ** 2 + (fy[u] - fy[v]) ** 2) / 4.0
            d2 = (fx - mx) ** 2 + (fy - my) ** 2
            d2[[u, v]] = np.inf
            if (d2 < r2 * (1.0 - 1e-12)).any() and ref._split(seg):
                changed = True


def _seeded_refiner(name):
    """A ``_Refiner`` taken through the phases before ``seed_grid``, as ``triangulate`` takes it."""
    ref = _refiner(name)
    spacing = float(np.sqrt(ref.max_area * 4.0 / np.sqrt(3.0)))
    ref.initial_conformity()
    ref.presplit_long_segments(spacing)
    return ref, spacing


def _ref_is_bad(ref, tid):
    """Whether triangle ``tid`` is too large or too thin, in scalar arithmetic, one triangle at a time."""
    (ax, ay), (bx, by), (cx, cy) = ref.tr.tri_coords(tid)
    area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    ang = 0.0
    if area > 0:
        l2a = (cx - bx) ** 2 + (cy - by) ** 2  # edge opposite a
        l2b = (cx - ax) ** 2 + (cy - ay) ** 2
        l2c = (bx - ax) ** 2 + (by - ay) ** 2
        l2min = min(l2a, l2b, l2c)
        if l2min == l2a:
            denom = np.sqrt(l2b * l2c)
        elif l2min == l2b:
            denom = np.sqrt(l2a * l2c)
        else:
            denom = np.sqrt(l2a * l2b)
        ang = float(np.degrees(np.arcsin(min(max(2.0 * area / denom, -1.0), 1.0))))
    return area > ref.max_area * (1.0 + 1e-12) or ang < ref.min_angle - 1e-9


def _ref_refine_pass(ref, work, budget):
    """``_Refiner._refine_pass`` as one first-in first-out queue that tests a
    triangle's quality when the triangle is taken out; returns the budget left."""
    ref.work = deque(work)
    stall = set()
    while ref.work:
        if budget <= 0:
            raise RuntimeError("mesh refinement exceeded its insertion budget")
        tid = ref.work.popleft()
        if not ref.tr.live[tid] or tid in stall or not _ref_is_bad(ref, tid):
            continue
        placed = 0
        for x, y in ref._refinement_points(tid):
            placed = ref._place(tid, x, y)
            if placed:
                break
        if placed:
            budget -= placed
        else:
            stall.add(tid)
    return budget


def _built_refiner(name, fifo=False):
    """A ``_Refiner`` of a ``SEED_CASES`` contour after ``build``; with ``fifo``
    its passes run ``_ref_refine_pass``."""
    ref, spacing = _seeded_refiner(name)
    ref.seed_grid(spacing)
    ref.tr.build()
    if fifo:
        ref._refine_pass = lambda work, budget: _ref_refine_pass(ref, work, budget)
    return ref


def _outcome(run):
    """``run()``'s result, or the message of the ``RuntimeError`` it raised."""
    try:
        return run()
    except RuntimeError as e:
        return str(e)


def _live(tr):
    """The live triangle ids, ascending."""
    return np.flatnonzero(np.frombuffer(tr.live, dtype=bool)).tolist()


def _tris(tr):
    """{tid: (a, b, c)} of the live triangles in id order, read from the flat store."""
    return {t: (tr.tv[3 * t], tr.tv[3 * t + 1], tr.tv[3 * t + 2]) for t in _live(tr)}


def _edges(tr):
    """{directed edge (u, v): the live triangle with it}, by matching corners alone."""
    return {(tri[k], tri[(k + 1) % 3]): t for t, tri in _tris(tr).items() for k in range(3)}


def _live_slots(tr):
    """{tid: its three neighbour slots} of the live triangles."""
    return {t: tuple(tr.tn[3 * t : 3 * t + 3]) for t in _live(tr)}


def _assert_slots_match_edges(tr):
    """Slot k of each live triangle is the live triangle with the reversed edge k (-1 if none),
    and each vertex's entry is a live triangle with that corner."""
    tris, edges = _tris(tr), _edges(tr)
    for t, (a, b, c) in tris.items():
        assert tr.tn[3 * t : 3 * t + 3].tolist() == [edges.get(e, -1) for e in ((b, a), (c, b), (a, c))], t
    for v in {v for tri in tris.values() for v in tri}:
        assert v in tris[tr.vt[v]]


def _load_dict_store(tr, tris, n):
    """Fill the flat store from {tid: (a, b, c)} with ids below ``n``, its slots by matching
    directed edges."""
    edges = {(tri[k], tri[(k + 1) % 3]): t for t, tri in tris.items() for k in range(3)}
    corners = np.zeros((n, 3), dtype=np.int64)
    slots = np.full((n, 3), -1, dtype=np.int64)
    live = np.zeros(n, dtype=bool)
    for t, (a, b, c) in tris.items():
        corners[t], live[t] = (a, b, c), True
        slots[t] = [edges.get(e, -1) for e in ((b, a), (c, b), (a, c))]
    tr._load(corners, slots, live)


def _random_polygons(seed, count):
    """Seeded polygons: random walks, and walks snapped to a coarse grid so that
    touching and collinear segment pairs are common."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 40))
        if k % 3 == 0:
            pts = rng.normal(size=(n, 2))
        elif k % 3 == 1:
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        else:
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = 1.0 + 0.3 * rng.uniform(size=n)
            pts = np.round(np.column_stack([r * np.cos(t), r * np.sin(t)]) * 4.0) / 4.0
        yield pts


class TestPrunedKernelsMatchAllPairs:
    @pytest.mark.parametrize("seed, offset", [(0, 0.0), (1, 0.0), (2, 0.0), (0, 1e6)])
    def test_first_self_intersection_random(self, seed, offset):
        hits = 0
        for pts in _random_polygons(seed, 400):
            pts = pts + offset  # far from the origin, distances round at a coarser scale
            expected = _ref_first_self_intersection(pts)
            assert first_self_intersection(pts) == expected, pts.tolist()
            hits += expected is not None
        assert 50 < hits < 400  # both outcomes are exercised

    @pytest.mark.parametrize(
        "pts, hit",
        [
            ([[0, 0], [2, 0], [2, 1], [1, 0], [0, 1]], (0, 2)),  # vertex 3 touches segment 0
            ([[0, 0], [3, 0], [3, 1], [2, 0], [1, 0], [0, 1]], (0, 2)),  # collinear overlap
            ([[0, 0], [1, 0], [1, 1], [0, 0], [-1, 1], [-1, 0]], (0, 2)),  # repeated vertex
            ([[0, 0], [4, 0], [4, 4], [0, 4]], None),
            ([[0, 0], [10, 0], [10, 0.1], [5, -1], [0, 0.1]], (0, 2)),  # one long segment
        ],
    )
    def test_first_self_intersection_degenerate(self, pts, hit):
        pts = np.asarray(pts, dtype=float)
        assert _ref_first_self_intersection(pts) == hit
        assert first_self_intersection(pts) == hit

    @pytest.mark.parametrize("name", list(SEED_CASES))
    def test_initial_conformity_matches_per_segment_scan(self, name):
        ref, expected = _refiner(name), _refiner(name)
        ref.initial_conformity()
        _ref_initial_conformity(expected)
        assert list(ref.segs) == list(expected.segs)
        assert ref.tr.fx == expected.tr.fx and ref.tr.fy == expected.tr.fy

    def test_initial_conformity_matches_per_segment_scan_with_splits(self):
        # marching-squares contours encroach nothing; random simple polygons
        # have obtuse corners and cascades
        split = 0
        for pts in _random_polygons(0, 400):
            if first_self_intersection(pts) is not None or polygon_area(pts) == 0:
                continue
            pts = pts[::-1] if polygon_area(pts) < 0 else pts
            ref, expected = (_Refiner(np.asarray(pts, dtype=float), 0.1, 20.0) for _ in range(2))
            ref.initial_conformity()
            _ref_initial_conformity(expected)
            assert list(ref.segs) == list(expected.segs), pts.tolist()
            assert ref.tr.fx == expected.tr.fx and ref.tr.fy == expected.tr.fy
            split += len(ref.segs) > len(pts)
        assert split >= 10

    @pytest.mark.parametrize("name", list(SEED_CASES))
    def test_seed_points_match_all_pairs_filters(self, name):
        ref, spacing = _seeded_refiner(name)
        expected = _ref_seed_points(ref, spacing)
        before = len(ref.tr.fx)
        ref.seed_grid(spacing)
        inserted = list(zip(ref.tr.fx[before:], ref.tr.fy[before:]))  # the points the call registered
        assert len(expected) > 20
        assert sorted(inserted) == sorted(expected)

    @pytest.mark.parametrize("name", ["arch@0.25", "annulus_small@0.01", "seed209_m002"])
    def test_vectorized_quality_matches_is_bad(self, name):
        ref = _built_refiner(name)
        seen = set()
        for phase in ("built", "refined"):
            if phase == "refined":
                ref.refine()
            tids = _live(ref.tr)  # the exterior triangles too
            bad = ref._bad(tids)
            assert bad.tolist() == [_ref_is_bad(ref, t) for t in tids], phase
            seen.update(bad.tolist())
        assert seen == {True, False}

    @pytest.mark.parametrize("name", list(SEED_CASES))
    def test_wave_refinement_matches_fifo_queue(self, name):
        results = []
        for fifo in (False, True):
            ref = _built_refiner(name, fifo)
            results.append((_outcome(ref.refine), ref.tr.fx, ref.tr.fy, _tris(ref.tr), _live_slots(ref.tr)))
        assert results[0] == results[1]
        failed = isinstance(results[0][0], str)
        assert failed == (name == "seed104_m010"), results[0][0] if failed else name

    def test_wave_budget_error_matches_fifo_queue(self):
        # budgets that run out exactly when a wave ends, while the queue still
        # holds triangles (the last wave's are all good here), and one point later
        ref = _built_refiner("annulus_small@0.01")
        placed, ends = [], []
        place, bad = ref._place, ref._bad

        def counted_place(tid, x, y):
            placed.append(place(tid, x, y))
            return placed[-1]

        ref._place = counted_place
        ref._bad = lambda tids: ends.append(sum(placed)) or bad(tids)
        interior = ref._interior(ref._segment_sides())
        ref._refine_pass(list(compress(interior, ref._bad(interior))), 10**9)
        assert len(ends) >= 4
        for budget in sorted({b + d for b in ends[1:] for d in (0, 1)}):
            results = []
            for fifo in (False, True):
                ref = _built_refiner("annulus_small@0.01", fifo)
                interior = ref._interior(ref._segment_sides())
                work = list(compress(interior, ref._bad(interior)))
                results.append((_outcome(lambda: ref._refine_pass(work, budget)), _tris(ref.tr), _live_slots(ref.tr)))
            assert results[0] == results[1], budget
        assert results[0][0] == 1  # the largest budget finishes the pass with one insertion left

    def test_budget_is_per_mesh(self):
        # each round of ``refine`` gets the budget the rounds before it left
        ref = _built_refiner("seed209_m002")
        budget = 40 * len(ref.tr.fx) + int(20.0 * abs(polygon_area(ref.poly)) / ref.max_area) + 4000
        rounds, placed = [], []  # (budget given, points placed) per round
        refine_pass, place = ref._refine_pass, ref._place

        def counted_place(tid, x, y):
            placed.append(place(tid, x, y))
            return placed[-1]

        def recorded_pass(work, given):
            before = len(placed)
            left = refine_pass(work, given)
            rounds.append((given, sum(placed[before:])))
            assert left == given - rounds[-1][1]
            return left

        ref._place, ref._refine_pass = counted_place, recorded_pass
        ref.refine()
        assert len(rounds) == 5 and rounds[0][0] == budget
        assert all(b == a - spent for (a, spent), (b, _) in zip(rounds, rounds[1:]))
        assert all(spent > 0 for _, spent in rounds[:-1])


_SHADOWS = weakref.WeakKeyDictionary()  # triangulator -> its triangles as the dicts of the old store


def _reference_insert(tr, x, y, hint=None):
    """``_Triangulator.insert`` as it was on the dict store: a dict of triangles and a dict of
    directed edges, kept beside the flat store and written into it triangle by triangle."""
    ix, iy = tr.ix, tr.iy

    def orient(a, b, c):
        return (ix[b] - ix[a]) * (iy[c] - iy[a]) - (iy[b] - iy[a]) * (ix[c] - ix[a])

    def incircle(a, b, c, d):
        adx, ady = ix[a] - ix[d], iy[a] - iy[d]
        bdx, bdy = ix[b] - ix[d], iy[b] - iy[d]
        cdx, cdy = ix[c] - ix[d], iy[c] - iy[d]
        ad2, bd2, cd2 = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
        return adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2) + ad2 * (bdx * cdy - cdx * bdy)

    vid, fresh = tr._add_point(x, y)
    if not fresh:
        return vid, None
    if not tr.built:  # registered only, until the one-call build
        return vid, []
    if tr not in _SHADOWS:
        _SHADOWS[tr] = (_tris(tr), _edges(tr))
    tris, edge2tri = _SHADOWS[tr]
    t0 = tr._locate(vid, hint)
    if t0 is None:
        tr.by_int.pop((ix[vid], iy[vid]))
        for coords in (tr.fx, tr.fy, ix, iy):
            coords.pop()
        return None, None
    cavity, stack = {t0}, [t0]
    while stack:
        a, b, c = tris[stack.pop()]
        for u, v in ((a, b), (b, c), (c, a)):
            nb = edge2tri.get((v, u))
            if nb is not None and nb not in cavity and incircle(*tris[nb], vid) > 0:
                cavity.add(nb)
                stack.append(nb)
    while True:
        boundary, grazed = [], []
        for t in cavity:
            a, b, c = tris[t]
            for u, v in ((a, b), (b, c), (c, a)):
                nb = edge2tri.get((v, u))
                if nb in cavity:
                    continue
                if orient(u, v, vid) <= 0:
                    if nb is None:
                        raise RuntimeError("degenerate insertion at the hull")
                    grazed.append(nb)
                else:
                    boundary.append((u, v))
        if not grazed:
            break
        cavity.update(grazed)
    for t in cavity:  # drop
        a, b, c = tris.pop(t)
        for e in ((a, b), (b, c), (c, a)):
            if edge2tri.get(e) == t:
                del edge2tri[e]
        tr.live[t] = 0
    made = []
    for u, v in boundary:  # make
        tid = tr.next_tid + len(made)
        tris[tid] = (u, v, vid)
        edge2tri[(u, v)] = edge2tri[(v, vid)] = edge2tri[(vid, u)] = tid
        made.append(tid)
    tr.vt.append(-1)
    for t in made:  # write the new triangles and their neighbours' slots from the edge dict
        a, b, c = tris[t]
        tr.tv += (a, b, c)
        tr.tn.extend((-1, -1, -1))
        tr.live.append(1)
        tr.vt[a] = tr.vt[b] = tr.vt[c] = t
    for t in made + [edge2tri.get((v, u)) for u, v in boundary]:
        if t is not None:
            a, b, c = tris[t]
            tr.tn[3 * t : 3 * t + 3] = array("q", [edge2tri.get(e, -1) for e in ((b, a), (c, b), (a, c))])
    tr.last_tid = made[-1]
    return vid, list(cavity)


# sha256 of ``triangulate(half_annulus_contour(22.0, 30.0, 600), 0.5).to_off()``,
# taken before the flat triangle store replaced the dict one: the mesh must not move
ANNULUS_600_OFF_SHA256 = "7b0decffefb71969fabaea8ec1b248e833019fd03820c9387ba26eb58b08fc8c"


class TestInsertionCost:
    @pytest.mark.parametrize("name", ["annulus", "fuzz"])
    def test_inlined_insert_matches_reference(self, monkeypatch, name):
        """The same meshes, ids, cavities and live triangles as the dict-store insertion,
        and neighbour slots that match the directed edges."""
        if name == "annulus":
            contour, area = half_annulus_contour(22.0, 30.0, 300), 0.25
        else:
            contour, area = _fuzz_contour("seed209_m002"), FUZZ["seed209_m002"]["max_area_mm2"]
        logs = []
        for insert in (_Triangulator.insert, _reference_insert):
            log, seen = [], []

            def logged(tr, x, y, hint=None, _insert=insert, _log=log, _seen=seen):
                out = _insert(tr, x, y, hint)
                _log.append((out, tr.next_tid, tr.last_tid, sum(tr.live)))
                _seen[:] = [tr]
                return out

            monkeypatch.setattr(_Triangulator, "insert", logged)
            logs.append((triangulate(contour, area).to_off(), log, _tris(seen[0]), _live_slots(seen[0])))
            _assert_slots_match_edges(seen[0])
        assert logs[0] == logs[1]

    def test_triangles_per_inserted_vertex(self, monkeypatch):
        """Triangles made per vertex inserted after the build.

        Contour-order insertion of every point made 75 per vertex on this annulus.
        """
        seen = []  # (triangulator, next_tid, vertices) right after the build
        build = _Triangulator.build

        def recording_build(self):
            flips = build(self)
            seen.append((self, self.next_tid, len(self.ix)))
            return flips

        monkeypatch.setattr(_Triangulator, "build", recording_build)
        mesh = triangulate(half_annulus_contour(22.0, 30.0, 600), 0.25)
        tr, tids, verts = seen[0]
        counts = {"tris": tr.next_tid - tids, "verts": len(tr.ix) - verts}
        assert mesh.n_vertices > 2000
        assert counts["verts"] > 500
        assert counts["tris"] <= 10 * counts["verts"], counts

    def test_deterministic_across_calls_and_processes(self):
        contour = half_annulus_contour(22.0, 30.0, 600)
        off = triangulate(contour, 0.5).to_off()
        assert triangulate(contour, 0.5).to_off() == off
        assert hashlib.sha256(off.encode()).hexdigest() == ANNULUS_600_OFF_SHA256
        code = (
            "import hashlib\n"
            "from ccmorph.phantoms import half_annulus_contour\n"
            "from ccmorph.triangulate import triangulate\n"
            "off = triangulate(half_annulus_contour(22.0, 30.0, 600), 0.5).to_off()\n"
            "print(hashlib.sha256(off.encode()).hexdigest())\n"
        )
        src = str(Path(ccmorph.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True, env={"PYTHONPATH": src}
        )
        assert out.stdout.strip() == hashlib.sha256(off.encode()).hexdigest()


# -- the whole-triangulation passes as array operations --


def _reference_interior(ref):
    """``_Refiner._interior`` as it was: a breadth-first flood over a dict of directed edges."""
    tris, edge2tri = _tris(ref.tr), _edges(ref.tr)
    blocked = set(ref.segs) | {(v, u) for u, v in ref.segs}
    seeds = (edge2tri.get(seg) for seg in ref.segs)
    order = list(dict.fromkeys(t for t in seeds if t is not None))
    seen = set(order)
    for t in order:  # the list grows while it is read
        a, b, c = tris[t]
        for u, v in ((a, b), (b, c), (c, a)):
            if (u, v) in blocked:
                continue
            nb = edge2tri.get((v, u))
            if nb is not None and nb not in seen:
                seen.add(nb)
                order.append(nb)
    return order


def _reference_bad(ref, tids):
    """``_Refiner._bad`` as it was, gathering the corners as a list of tuples."""
    tris = _tris(ref.tr)
    tri = np.array([tris[t] for t in tids], dtype=np.int64).reshape(-1, 3)
    fx = np.asarray(ref.tr.fx)[tri]
    fy = np.asarray(ref.tr.fy)[tri]
    ax, bx, cx = fx.T
    ay, by, cy = fy.T
    area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    l2a = (cx - bx) ** 2 + (cy - by) ** 2
    l2b = (cx - ax) ** 2 + (cy - ay) ** 2
    l2c = (bx - ax) ** 2 + (by - ay) ** 2
    l2min = np.minimum(np.minimum(l2a, l2b), l2c)
    denom = np.sqrt(np.where(l2min == l2a, l2b * l2c, np.where(l2min == l2b, l2a * l2c, l2a * l2b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(2.0 * area / denom, -1.0, 1.0)
    ang = np.where(area <= 0, 0.0, np.degrees(np.arcsin(s)))
    return (area > ref.max_area * (1.0 + 1e-12)) | (ang < ref.min_angle - 1e-9)


def _reference_extract(ref, interior):
    """``_Refiner.extract`` as it was, remapping the vertex ids through a set and a dict."""
    tids, tri = sorted(interior), _tris(ref.tr)
    used = sorted({v for t in tids for v in tri[t]})
    remap = {v: i for i, v in enumerate(used)}
    verts = np.column_stack([np.asarray(ref.tr.fx)[used], np.asarray(ref.tr.fy)[used]])
    tris = np.array([[remap[v] for v in tri[t]] for t in tids], dtype=np.int64)
    on_boundary = {u for u, _ in ref.segs}
    return TriMesh2D(verts, tris, np.array([v in on_boundary for v in used], dtype=bool))


def _reference_register(tr, xy):
    """Register the points one ``_add_point`` call at a time, as ``_Refiner`` and ``seed_grid`` did."""
    return [tr._add_point(x, y)[0] for x, y in np.asarray(xy, dtype=float).tolist()]


def _reference_presplit(ref, target_len):
    """``_Refiner.presplit_long_segments`` as it was, measuring one segment at a time."""
    changed = True
    while changed:
        changed = False
        for seg in list(ref.segs.keys()):
            if seg not in ref.segs:
                continue
            u, v = seg
            L = np.hypot(ref.tr.fx[u] - ref.tr.fx[v], ref.tr.fy[u] - ref.tr.fy[v])
            if L > 1.3 * target_len and ref._split(seg):
                changed = True


def _star_polygons(seed, count):
    """Seeded polygons of 3-39 vertices, star-shaped about the origin (so simple), 1-2 mm from it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, int(rng.integers(3, 40))))
        yield rng.uniform(1.0, 2.0, len(t))[:, None] * np.column_stack([np.cos(t), np.sin(t)])


def _triangulator_state(tr):
    return tr.fx, tr.fy, tr.ix, tr.iy, list(tr.by_int.items())


def _checked_refine(ref):
    """``ref.refine()``'s outcome, checking every round against the reference copies: each
    flood, the quality of each flooded triangle, the bad list each round starts from and,
    after the last round, the mesh. Returns (outcome, the bad list of each round)."""
    interior, refine_pass = ref._interior, ref._refine_pass
    rounds = []

    def checked_interior(sides):
        got = interior(sides)
        assert got == _reference_interior(ref)
        assert ref._bad(got).tolist() == _reference_bad(ref, got).tolist()
        return got

    def checked_pass(work, budget):
        flood = _reference_interior(ref)
        assert work == list(compress(flood, _reference_bad(ref, flood)))  # the round-end scan's list
        rounds.append(list(work))
        return refine_pass(work, budget)

    ref._interior, ref._refine_pass = checked_interior, checked_pass
    outcome = _outcome(ref.refine)
    if not isinstance(outcome, str):
        assert outcome == _reference_interior(ref) and not _reference_bad(ref, outcome).any()
        got, expected = ref.extract(outcome), _reference_extract(ref, outcome)
        for field in ("vertices", "triangles", "boundary_flags"):
            a, b = getattr(got, field), getattr(expected, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    return outcome, rounds


class TestArrayPasses:
    """The flood, the quality scans, the mesh extraction and the bulk point
    registration give what their one-object-at-a-time forms gave."""

    @pytest.mark.parametrize("name", list(SEED_CASES))
    def test_every_round_matches_reference(self, name):
        outcome, rounds = _checked_refine(_built_refiner(name))
        assert rounds[0]
        assert isinstance(outcome, str) == (name == "seed104_m010")
        assert len(rounds) == {"arch@0.25": 2, "seed209_m002": 5, "seed104_m010": 4}.get(name, 1)

    def test_missing_segment_is_split(self):
        # no stored case or sweep mesh loses a segment edge in a round, so the first
        # round-end ``_segment_sides`` call (the second call) reports one as missing
        ref = _built_refiner("arch@0.25")
        sides, split = ref._segment_sides, ref._split
        calls, splits = [], []  # splits: (sides calls so far, segment, whether it was split)
        missing = list(ref.segs)[len(ref.segs) // 2]

        def reported_sides():
            left, closed = sides()
            calls.append(None)
            if len(calls) == 2:
                left = left.copy()
                left[list(ref.segs).index(missing)] = -1
            return left, closed

        def recorded_split(seg):
            splits.append((len(calls), seg, split(seg)))
            return splits[-1][2]

        ref._segment_sides, ref._split = reported_sides, recorded_split
        interior = ref.refine()
        assert [(seg, done) for n, seg, done in splits if n == 2] == [(missing, True)]
        assert missing not in ref.segs
        assert interior == _reference_interior(ref) and not _reference_bad(ref, interior).any()
        mesh = ref.extract(interior)
        used = np.unique(ref.tr.corners()[interior])  # the store's id of each mesh vertex
        edges = {(a, b) for t in used[mesh.triangles].tolist() for a, b in zip(t, t[1:] + t[:1])}
        assert all(seg in edges for seg in ref.segs)

    @pytest.mark.parametrize("kind", ["walks", "stars"])
    def test_random_polygons_match_reference(self, kind):
        if kind == "walks":  # the simple ones among them
            polygons = _random_polygons(5, 120)
        else:
            polygons = _star_polygons(6, 24)
        meshed = 0
        spacing = float(np.sqrt(0.05 * 4.0 / np.sqrt(3.0)))
        for pts in polygons:
            if first_self_intersection(pts) is not None or polygon_area(pts) == 0:
                continue
            ref = _Refiner(np.asarray(pts[::-1] if polygon_area(pts) < 0 else pts, dtype=float), 0.05, 20.0)
            ref.initial_conformity()
            ref.presplit_long_segments(spacing)
            ref.seed_grid(spacing)
            if isinstance(_outcome(ref.tr.build), str):  # Qhull leaves points out (CHANGES, FOUND)
                continue
            meshed += not isinstance(_checked_refine(ref)[0], str)
        assert meshed >= {"walks": 5, "stars": 10}[kind]

    @pytest.mark.parametrize("target", [0.05, 0.3])
    def test_presplit_matches_reference(self, target):
        split = 0
        polygons = [SEED_CASES[name][0]().points for name in SEED_CASES] + list(_random_polygons(1, 200))
        for pts in polygons:
            if first_self_intersection(pts) is not None or polygon_area(pts) == 0:
                continue
            pts = np.asarray(pts[::-1] if polygon_area(pts) < 0 else pts, dtype=float)
            ref, expected = _Refiner(pts, 0.1, 20.0), _Refiner(pts, 0.1, 20.0)
            ref.presplit_long_segments(target)
            _reference_presplit(expected, target)
            assert list(ref.segs) == list(expected.segs) and ref.unsplittable == expected.unsplittable
            assert _triangulator_state(ref.tr) == _triangulator_state(expected.tr)
            split += len(ref.segs) > len(pts)
        assert split >= 10

    def test_seed_points_in_row_order(self):
        """``seed_grid`` registers the points of the row-by-row all-pairs filters, in their order."""
        l_shape = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.25, 1.0], [1.25, 3.0], [0.0, 3.0]])
        polygons = [SEED_CASES[name][0]().points for name in SEED_CASES] + [l_shape] + list(_star_polygons(7, 12))
        seeded = 0
        for pts in polygons:
            if first_self_intersection(pts) is not None or polygon_area(pts) == 0:
                continue
            ref = _Refiner(np.asarray(pts[::-1] if polygon_area(pts) < 0 else pts, dtype=float), 0.1, 20.0)
            spacing = 0.5  # the L's inner edge x = 1.25 holds candidates of the even rows
            before = len(ref.tr.fx)
            ref.seed_grid(spacing)
            assert list(zip(ref.tr.fx[before:], ref.tr.fy[before:])) == _ref_seed_points(ref, spacing)
            seeded += len(ref.tr.fx) > before
        assert seeded >= 10

    def test_registration_rounds_ties_half_to_even(self):
        # bbox extent 1: the scale is 2**28, so these products are exactly k + 0.5
        xy = np.column_stack([np.arange(-6, 6) + 0.5, 0.5 - np.arange(-6, 6)]) / 2.0**28
        tr, expected = _Triangulator((0.0, 0.0), (1.0, 1.0)), _Triangulator((0.0, 0.0), (1.0, 1.0))
        assert tr.scale == 2.0**28 and np.all(np.mod(xy * tr.scale, 1.0) == 0.5)
        vids = tr._add_points(xy)
        assert vids == _reference_register(expected, xy) == list(range(3, 3 + len(xy)))
        assert _triangulator_state(tr) == _triangulator_state(expected)
        assert tr.ix[3:] == [round(k + 0.5) for k in range(-6, 6)]  # -6, -4, -4, -2, -2, 0, 0, 2, ...

    def test_registration_repeats_map_to_the_first_id(self):
        rng = np.random.default_rng(11)
        first = rng.uniform(0.0, 10.0, size=(20, 2))
        # exact repeats, points within the snap of earlier ones, and points of the first call
        batch = np.vstack([first[:5], rng.uniform(0.0, 10.0, size=(10, 2)), first[3:8] + 1e-12])
        batch = np.vstack([batch, batch[5:9], batch[-2:] - 1e-12])
        tr, expected = _Triangulator((0.0, 0.0), (10.0, 10.0)), _Triangulator((0.0, 0.0), (10.0, 10.0))
        assert tr._add_points(first) == _reference_register(expected, first)
        vids = tr._add_points(batch)
        assert vids == _reference_register(expected, batch)
        assert _triangulator_state(tr) == _triangulator_state(expected)
        assert sorted(set(vids)) == list(range(3, 11)) + list(range(23, 33))  # 8 of the first call's, 10 new
        assert tr._add_points(np.empty((0, 2))) == [] and _triangulator_state(tr) == _triangulator_state(expected)

    @pytest.mark.parametrize("shift", [0.0, 1e-12])
    def test_coincident_contour_points_raise(self, shift):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        poly = np.insert(square, 2, square[1] + shift, axis=0)  # vertex 1 again, or within its snap
        with pytest.raises(ValueError, match="contour points coincide after snapping"):
            _Refiner(poly, 0.1, 20.0)
        ref = _Refiner(square, 0.1, 20.0)
        assert list(ref.segs) == [(3, 4), (4, 5), (5, 6), (6, 3)]
        assert ref._seg_arrays()[1].tolist() == [[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]]
        assert ref._seg_arrays()[2].tolist() == [0.25 * (1 - 1e-12)] * 4


# -- the one-call build and its exact legalization --


def _orient_int(tr, a, b, c):
    ix, iy = tr.ix, tr.iy
    return (ix[b] - ix[a]) * (iy[c] - iy[a]) - (iy[b] - iy[a]) * (ix[c] - ix[a])


def _incircle_int(tr, a, b, c, d):
    ix, iy = tr.ix, tr.iy
    adx, ady = ix[a] - ix[d], iy[a] - iy[d]
    bdx, bdy = ix[b] - ix[d], iy[b] - iy[d]
    cdx, cdy = ix[c] - ix[d], iy[c] - iy[d]
    ad2, bd2, cd2 = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    return adx * (bdy * cd2 - cdy * bd2) - ady * (bdx * cd2 - cdx * bd2) + ad2 * (bdx * cdy - cdx * bdy)


def _interior_edges(tr):
    """(u, v, t, o, z) for each interior edge once: u->v in triangle t, z the corner of o across it."""
    tris, edge2tri = _tris(tr), _edges(tr)
    for (u, v), t in edge2tri.items():
        o = edge2tri.get((v, u))
        if o is not None and u < v:
            yield u, v, t, o, sum(tris[o]) - u - v


def _assert_valid_delaunay(tr):
    n = len(tr.ix)
    tris = _tris(tr)
    assert {v for tri in tris.values() for v in tri} == set(range(n))  # every point is a vertex
    assert all(_orient_int(tr, *tri) > 0 for tri in tris.values())
    assert len(tris) == 2 * n - 5  # the hull is the super-triangle
    assert len(_edges(tr)) == 3 * len(tris)  # no directed edge twice
    _assert_slots_match_edges(tr)
    assert all(_incircle_int(tr, *tris[t], z) <= 0 for _, _, t, _, z in _interior_edges(tr))


def _lattice_triangulator(side=8):
    """Integer lattice points, exactly cocircular in fours: the snapping scale is 2**24 on this box."""
    tr = _Triangulator((0.0, 0.0), (16.0, 16.0))
    assert tr.scale == 2.0**24
    for x in range(side + 1):
        for y in range(side + 1):
            assert tr.insert(2.0 * x, 2.0 * y) == (len(tr.ix) - 1, [])
    return tr


class TestBuild:
    @pytest.mark.parametrize("name", ["arch@0.25", "annulus@0.25", "seed209_m002"])
    def test_build_is_exact_delaunay(self, name):
        ref, spacing = _seeded_refiner(name)
        ref.seed_grid(spacing)
        n = len(ref.tr.ix)
        assert ref.tr.next_tid == 0  # registration only, so far
        ref.tr.build()
        assert len(ref.tr.ix) == n
        _assert_valid_delaunay(ref.tr)
        assert (ref.tr.next_tid, ref.tr.last_tid) == (len(_tris(ref.tr)), len(_tris(ref.tr)) - 1)

    def test_duplicates_rejected_before_the_build(self):
        tr = _lattice_triangulator(2)
        assert tr.insert(2.0, 2.0) == (7, None)  # lattice point (1, 1)
        with pytest.raises(ValueError, match="coincide after snapping"):
            _Refiner(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0 + 1e-12]]), 0.1, 20.0)

    def test_cocircular_lattice(self):
        tr = _lattice_triangulator()
        assert tr.build() == 0  # every lattice square is cocircular: no edge fails
        _assert_valid_delaunay(tr)
        tris = _tris(tr)
        assert sum(_incircle_int(tr, *tris[t], z) == 0 for _, _, t, _, z in _interior_edges(tr)) >= 64

    @pytest.mark.parametrize("name", ["arch@0.25", "annulus@0.25"])
    def test_legalize_restores_flipped_diagonals(self, name):
        ref, spacing = _seeded_refiner(name)
        ref.seed_grid(spacing)
        tr = ref.tr
        tr.build()
        # flip strictly legal diagonals of convex quadrilaterals, no two in one triangle
        tris = _tris(tr)
        touched, flipped = set(), 0
        for u, v, t, o, z in list(_interior_edges(tr)):
            w = sum(tris[t]) - u - v
            if t in touched or o in touched or _incircle_int(tr, *tris[t], z) >= 0:
                continue
            if _orient_int(tr, u, z, w) <= 0 or _orient_int(tr, z, v, w) <= 0:
                continue
            tris[t], tris[o] = (u, z, w), (z, v, w)
            touched |= {t, o}
            flipped += 1
        assert flipped > 100
        _load_dict_store(tr, tris, tr.next_tid)
        _assert_slots_match_edges(tr)
        tris = _tris(tr)
        bad = sum(_incircle_int(tr, *tris[t], z) > 0 for _, _, t, _, z in _interior_edges(tr))
        assert bad >= flipped
        assert tr._legalize(list(_edges(tr))) >= flipped
        _assert_valid_delaunay(tr)

    @pytest.mark.parametrize(
        "simplices, coplanar, match",
        [
            ([[0, 1, 2]], [3], "coplanar"),
            ([[0, 1, 2], [0, 3, 1]], [], "orientation 0"),
        ],
    )
    def test_qhull_failures_named(self, monkeypatch, simplices, coplanar, match):
        class FakeQhull:
            def __init__(self, points):
                self.simplices = np.array(simplices)
                self.neighbors = np.full(self.simplices.shape, -1)
                self.coplanar = np.array(coplanar)

        tr = _Triangulator((0.0, 0.0), (16.0, 16.0))
        tr.insert(8.0, -120.0)  # on the super-triangle's lower edge
        monkeypatch.setattr(sys.modules["ccmorph.triangulate"], "Delaunay", FakeQhull)
        with pytest.raises(RuntimeError, match=match):
            tr.build()
