import json
from pathlib import Path

import numpy as np
import pytest

from ccmorph import Landmarks2D, intercallosal_line, thickness_profile
from ccmorph.contour import Polyline, polygon_area
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import half_annulus_contour
from ccmorph.triangulate import first_self_intersection, triangulate

# Contours of contour_fuzz benchmark masks that the mesher failed on.
# Recipe (ROADMAP item 4): `python3 ccbench/inputs.py --workload contour_fuzz
# --seed S --out D`; mask k of D/masks.npz with pixel size p from
# D/masks.json -> smooth_mask(Mask2D(mask, (p, p)), p) -> extract_contour(
# np.pad(field, 1), 0.5, pixel_size=(p, p), origin=(-p, -p)). AC/PC and the
# nominal thickness are the mask's entry in masks.json.
FUZZ = json.loads((Path(__file__).parent / "data" / "fuzz_contours.json").read_text())


def _fuzz_contour(name):
    return Polyline(np.array(FUZZ[name]["contour"]), closed=True)


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


class TestFuzzRegressions:
    def test_seed209_m002_meshes(self, fuzz209_mesh):
        """Seed 209 mask m002 at max_area 0.1, 466 contour vertices (recipe above).

        It raised "degenerate insertion at the hull" while the longest-edge
        fallback inserted its point without the encroachment check.
        """
        case = FUZZ["seed209_m002"]
        assert len(case["contour"]) == 466
        lm = Landmarks2D(np.array(case["ac"]), np.array(case["pc"]))
        line, f = intercallosal_line(fuzz209_mesh, lm, 100)
        profile = thickness_profile(fuzz209_mesh, f, line, 100)
        median = float(np.nanmedian(profile.thickness_mm[9:89]))  # samples 10..89
        assert abs(median - case["thickness_mm"]) <= 0.10 * case["thickness_mm"]

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="known mesher failure, ROADMAP item 4")
    def test_seed104_m010_meshes(self):
        """Seed 104 mask m010 at max_area 0.5 (recipe above) still loses a segment."""
        triangulate(_fuzz_contour("seed104_m010"), FUZZ["seed104_m010"]["max_area_mm2"])


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
