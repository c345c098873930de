import numpy as np
import pytest
from test_fem import _field, _reference_spans

from ccmorph import fem
from ccmorph import morphometry as mo
from ccmorph.contour import Polyline
from ccmorph.phantoms import (
    half_annulus_contour,
    half_annulus_landmarks,
    rectangle_contour,
    rectangle_grid_mesh,
    rectangle_landmarks,
)


class TestFindEndpoints:
    def test_rectangle_short_edge_midpoints(self):
        contour = rectangle_contour()
        lm = rectangle_landmarks()
        ep = mo.find_endpoints(contour, lm)
        pts = contour.points
        # anterior anchor sits beyond the x = 0 edge at mid height
        assert np.linalg.norm(pts[ep.anterior] - [0.0, 1.5]) <= 0.26
        assert np.linalg.norm(pts[ep.posterior] - [20.0, 1.5]) <= 0.26

    def test_half_annulus_cap_midpoints(self):
        contour = half_annulus_contour()
        lm = half_annulus_landmarks()
        ep = mo.find_endpoints(contour, lm)
        pts = contour.points
        assert np.linalg.norm(pts[ep.anterior] - [3.0, 0.0]) <= 0.1
        assert np.linalg.norm(pts[ep.posterior] - [-3.0, 0.0]) <= 0.1

    def test_tie_breaks_to_lower_index(self):
        # two vertices equidistant from the anchor
        contour = Polyline(
            np.array([[0.0, 1.0], [0.0, -1.0], [4.0, -1.0], [4.0, 1.0]]), closed=True
        )
        lm = mo.Landmarks2D(np.array([-1.0, 0.0]), np.array([5.0, 0.0]))
        ep = mo.find_endpoints(contour, lm)
        assert ep.anterior == 0  # (0, 1) and (0, -1) tie; lower index wins
        assert ep.posterior == 2

    def test_far_landmark_warning(self):
        contour = rectangle_contour()
        lm = mo.Landmarks2D(np.array([-200.0, 1.5]), np.array([22.0, 1.5]))
        with pytest.warns(UserWarning, match="50 mm"):
            ep = mo.find_endpoints(contour, lm)
        assert ep.far_landmarks

    def test_offsets_move_anchor(self):
        contour = rectangle_contour()
        # landmarks below mid height, so "superior" points up
        lm = mo.Landmarks2D(np.array([-2.0, 1.0]), np.array([22.0, 1.0]))
        ep = mo.find_endpoints(contour, lm, anterior_offset=(0.0, 1.4))
        # anchor pushed toward the superior side selects a higher point
        assert contour.points[ep.anterior][1] > 2.0


class TestIntercallosalLine:
    def test_rectangle_midline(self, rect_case):
        line = rect_case["line"]
        assert len(line.points) == 102
        assert abs(line.length() - 20.0) / 20.0 < 0.02
        interior = line.points[5:-5]
        assert np.abs(interior[:, 1] - 1.5).max() < 0.15
        # equidistant samples
        seg = np.linalg.norm(np.diff(line.points, axis=0), axis=1)
        assert (np.abs(seg - seg.mean()) / seg.mean()).max() < 1e-6

    def test_annulus_arc_length(self, annulus_case):
        line = annulus_case["line"]
        target = np.pi * 2 * np.sqrt(2.0)  # 8.886
        assert abs(line.length() - target) / target < 0.02

    def test_runs_anterior_to_posterior(self, rect_case):
        line = rect_case["line"]
        # anterior anchor is on the x = 0 side
        assert line.points[0][0] < line.points[-1][0]

    def test_far_landmark_warning(self, rect_case):
        lm = mo.Landmarks2D(np.array([-200.0, 1.5]), np.array([22.0, 1.5]))
        with pytest.warns(UserWarning, match="50 mm"):
            mo.intercallosal_line(rect_case["mesh"], lm, 10)

    def test_superior_side_same_on_every_mesh(self, rect_case):
        # the AC-PC line runs through the strip's centroid; the tie must pick
        # the same long side as superior on a triangulated and a grid mesh
        grid = rectangle_grid_mesh(20.0, 3.0, 0.25)
        _, f_grid = mo.intercallosal_line(grid, rectangle_landmarks(), 10)
        for mesh, f in ((rect_case["mesh"], rect_case["f"]), (grid, f_grid)):
            top = f[np.abs(mesh.vertices[:, 1] - 3.0) < 1e-9]
            assert len(top) and np.all(top == 1.0)


class TestThicknessProfile:
    def test_rectangle_interior(self, rect_case):
        prof = mo.thickness_profile(rect_case["mesh"], rect_case["f"], rect_case["line"], 100)
        assert prof.valid.all()
        interior = prof.thickness_mm[10:90]
        assert np.abs(interior - 3.0).max() / 3.0 < 0.02

    def test_rectangle_near_ends_match_conformal_oracle(
        self, rect_case, conformal_strip_thickness
    ):
        # near the endpoints the level paths wrap around the boundary-condition
        # singularity; their lengths follow the conformal-map solution, not the
        # strip width
        prof = mo.thickness_profile(rect_case["mesh"], rect_case["f"], rect_case["line"], 100)
        L = rect_case["line"].length()
        for k in (2, 3, 5, 8):
            d = k * L / 101.0
            oracle = conformal_strip_thickness(d, 3.0)
            assert abs(prof.thickness_mm[k - 1] - oracle) / oracle < 0.30
        # and the collapse toward the tip is monotone-ish and far below 3 mm
        assert prof.thickness_mm[0] < 1.2

    def test_annulus_interior(self, annulus_case):
        prof = mo.thickness_profile(
            annulus_case["mesh"], annulus_case["f"], annulus_case["line"], 100
        )
        interior = prof.thickness_mm[10:90]
        assert np.isfinite(interior).all()
        assert np.abs(interior - 2.0).max() / 2.0 < 0.05

    def test_varying_width_tracked(self):
        # half-annulus with a sinusoidally narrowing inner boundary: the
        # profile must follow the local radial width, not just a constant
        a = 0.4
        th = np.linspace(0.0, np.pi, 300)
        outer = np.column_stack([4 * np.cos(th), 4 * np.sin(th)])
        rin = 2 + a * np.sin(th[::-1])
        inner = np.column_stack([rin * np.cos(th[::-1]), rin * np.sin(th[::-1])])
        capn = 20
        cap_left = np.column_stack([-np.linspace(4.0, 2.0, capn)[1:-1], np.zeros(capn - 2)])
        cap_right = np.column_stack([np.linspace(2.0, 4.0, capn)[1:-1], np.zeros(capn - 2)])
        contour = Polyline(np.vstack([outer, cap_left, inner, cap_right]), closed=True)
        from ccmorph.triangulate import triangulate

        mesh = triangulate(contour, 0.02)
        lm = mo.Landmarks2D(np.array([3.0, -1.0]), np.array([-3.0, -1.0]))
        line, f = mo.intercallosal_line(mesh, lm, 100)
        prof = mo.thickness_profile(mesh, f, line, 100)
        assert prof.valid.all()
        samples = line.points[1:-1]
        theta_s = np.arctan2(samples[:, 1], samples[:, 0])
        expected = 4.0 - (2.0 + a * np.sin(theta_s))
        rel = np.abs(prof.thickness_mm[10:90] - expected[10:90]) / expected[10:90]
        assert rel.max() < 0.02

    def test_single_sample(self, rect_case):
        line, f = mo.intercallosal_line(rect_case["mesh"], rect_case["lm"], 1)
        prof = mo.thickness_profile(rect_case["mesh"], f, line, 1)
        assert prof.n == 1
        assert abs(prof.thickness_mm[0] - 3.0) / 3.0 < 0.05

    def test_profile_csv(self, rect_case):
        prof = mo.thickness_profile(rect_case["mesh"], rect_case["f"], rect_case["line"], 100)
        csv = prof.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "position_fraction,thickness_mm"
        assert len(lines) == 101


class TestValiditySpanCheck:
    def test_component_classification(self, annulus_case):
        # the array rule against the per-component dict rule, on every level-set component of a
        # radial field (loops, and open paths with ends on one arc or on both) and of the Laplace
        # field; random signs also give loops whose first and last edges lie on opposite sides
        mesh, f = annulus_case["mesh"], annulus_case["f"]
        noise = np.random.default_rng(4).standard_normal(mesh.n_vertices)
        got, want = [], []
        for field in (_field(mesh, "radial"), f):
            sets = fem._level_sets(mesh, field, np.quantile(field, np.linspace(0.01, 0.99, 25)))
            assert sets.closed.any() == (field is not f)
            for judge in (f, noise):
                got += mo._spanning(judge, sets).tolist()
                want += [_reference_spans(judge, sets.component(c)) for c in range(len(sets.closed))]
        assert got == want
        assert 0 < sum(want) < len(want)

    def test_one_sided_field_has_no_valid_sample(self, rect_case):
        # f + 2 and f - 2 have f's gradient, so the level paths stay and every end lies on one side
        mesh, f, line = rect_case["mesh"], rect_case["f"], rect_case["line"]
        assert mo.thickness_profile(mesh, f, line, 100).valid.sum() > 90
        for shifted in (f + 2.0, f - 2.0):
            prof = mo.thickness_profile(mesh, shifted, line, 100)
            assert np.isnan(prof.thickness_mm).all() and not prof.valid.any()

    def test_invalid_sample_reported_as_nan(self, rect_case):
        # profile with a doctored field: thickness values are NaN (not
        # interpolated) wherever the level path does not span both arcs
        prof = mo.ThicknessProfile(
            positions=np.array([0.25, 0.5, 0.75]),
            thickness_mm=np.array([3.0, np.nan, 3.1]),
            valid=np.array([True, False, True]),
            intercallosal_length_mm=20.0,
            curvature=0.0,
        )
        csv = prof.to_csv()
        assert csv.splitlines()[2].endswith(",nan")


class TestLengthCurvature:
    def test_straight_line(self):
        pts = np.column_stack([np.linspace(0, 20, 50), np.zeros(50)])
        L, k = mo.length_and_curvature(Polyline(pts, closed=False))
        assert L == 20.0
        assert k == 0.0

    def test_semicircle(self):
        t = np.linspace(0, np.pi, 102)
        pts = np.column_stack([3 * np.cos(t), 3 * np.sin(t)])
        L, k = mo.length_and_curvature(Polyline(pts, closed=False))
        assert abs(L - np.pi * 3) / (np.pi * 3) < 0.005
        assert abs(k - 1.0 / 3.0) / (1.0 / 3.0) < 0.02

    def test_scaling_law(self):
        t = np.linspace(0, np.pi, 102)
        pts = np.column_stack([3 * np.cos(t), 3 * np.sin(t)])
        L1, k1 = mo.length_and_curvature(Polyline(pts, closed=False))
        L2, k2 = mo.length_and_curvature(Polyline(2 * pts, closed=False))
        assert abs(L2 - 2 * L1) < 1e-9
        assert abs(k2 - k1 / 2) < 1e-12


class TestCCIndex:
    def test_rectangle(self):
        idx = mo.cc_index(rectangle_contour())
        assert abs(idx.raw - 9.0) < 1e-6
        assert abs(idx.normalized - 0.45) < 1e-7

    def test_rigid_invariance(self):
        c = rectangle_contour()
        a = np.radians(29.0)
        R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        moved = Polyline(c.points @ R.T + [31.0, -17.0], closed=True)
        idx = mo.cc_index(c)
        idx2 = mo.cc_index(moved)
        assert abs(idx.raw - idx2.raw) < 1e-6
        assert abs(idx.normalized - idx2.normalized) < 1e-9

    def test_scaling(self):
        c = rectangle_contour()
        idx = mo.cc_index(c)
        idx2 = mo.cc_index(Polyline(2 * c.points, closed=True))
        assert abs(idx2.raw - 2 * idx.raw) < 1e-6
        assert abs(idx2.normalized - idx.normalized) < 1e-9

    def test_annulus_has_sensible_index(self):
        idx = mo.cc_index(half_annulus_contour())
        assert idx.raw > 0
        assert np.isfinite(idx.normalized)


class TestCorrectedVolume:
    def test_weight_rule(self):
        assert mo.corrected_volume([100.0] * 5, 1.0) == pytest.approx(500.0, rel=1e-12)
        assert mo.corrected_volume([100.0] * 7, 0.8) == pytest.approx(500.0, rel=1e-12)
        assert mo.corrected_volume([100.0] * 11, 0.5) == pytest.approx(500.0, rel=1e-12)

    def test_spacing_independence_on_constant_slab(self):
        from ccmorph.midplane import slice_count

        for spacing in (1.0, 0.8, 0.5):
            n = slice_count(5.0, spacing)
            v = mo.corrected_volume([42.0] * n, spacing)
            assert v == pytest.approx(5.0 * 42.0, rel=1e-12)

    def test_varying_areas(self):
        # n = 5, spacing 1: w = 1, so plain sum
        areas = [10.0, 20.0, 30.0, 20.0, 10.0]
        assert mo.corrected_volume(areas, 1.0) == pytest.approx(sum(areas), rel=1e-12)

    def test_single_slice(self):
        assert mo.corrected_volume([42.0], 6.0) == pytest.approx(5.0 * 42.0)


class TestShapeSummary:
    def test_rectangle_summary(self, rect_case):
        summary = mo.shape_summary(
            rect_case["mesh"],
            rect_case["contour"],
            rect_case["line"],
            [60.0] * 5,
            1.0,
        )
        assert summary.area_mm2 == pytest.approx(60.0, rel=1e-6)
        assert summary.perimeter_mm == pytest.approx(46.0, rel=1e-9)
        assert summary.circularity == pytest.approx(4 * np.pi * 60 / 46**2, rel=1e-6)
        assert summary.cc_index_raw == pytest.approx(9.0, abs=1e-6)
        assert summary.volume_mm3 == pytest.approx(300.0, rel=1e-12)
        d = summary.to_dict()
        assert set(d) == {
            "area_mm2",
            "perimeter_mm",
            "circularity",
            "cc_index_raw",
            "cc_index_norm",
            "volume_mm3",
            "length_mm",
            "curvature_per_mm",
        }

    def test_disc_circularity(self):
        from ccmorph.phantoms import disc_contour
        from ccmorph.triangulate import triangulate

        c = disc_contour(10.0)
        mesh = triangulate(c, 1.0)
        circ = 4 * np.pi * mesh.area() / c.length() ** 2
        assert circ >= 0.98
        assert circ <= 1.0 + 0.01

    def test_square_circularity(self):
        sq = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), closed=True)
        circ = 4 * np.pi * sq.area() / sq.length() ** 2
        assert circ == pytest.approx(np.pi / 4, rel=1e-12)


class TestConsistencyInvariants:
    def test_riemann_sum_thickness_vs_area(self, rect_case):
        # sum of thickness samples times the midline spacing approximates the
        # mesh area on a convex strip
        prof = mo.thickness_profile(rect_case["mesh"], rect_case["f"], rect_case["line"], 100)
        L = rect_case["line"].length()
        riemann = np.nansum(prof.thickness_mm) * (L / 100.0)
        area = rect_case["mesh"].area()
        assert abs(riemann - area) / area < 0.10

    def test_circularity_isoperimetric_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            t = np.linspace(0, 2 * np.pi, 200, endpoint=False)
            r = 5.0 + np.zeros_like(t)
            for k in range(2, 7):
                r += rng.uniform(-0.5, 0.5) * np.cos(k * t + rng.uniform(0, 2 * np.pi))
            c = Polyline(np.column_stack([r * np.cos(t), r * np.sin(t)]), closed=True)
            circ = 4 * np.pi * abs(c.area()) / c.length() ** 2
            assert circ <= 1.0 + 0.01


class TestRigidInvarianceOfMetrics:
    def test_thickness_invariant_under_rigid_motion(self):
        # same mask geometry, rotated: re-mesh and compare profile
        contour = rectangle_contour(step=0.5)
        lm = rectangle_landmarks()
        a = np.radians(33.0)
        R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        t = np.array([7.0, -11.0])
        from ccmorph.triangulate import triangulate

        mesh1 = triangulate(contour, 0.25)
        line1, f1 = mo.intercallosal_line(mesh1, lm, 40)
        p1 = mo.thickness_profile(mesh1, f1, line1, 40)

        moved = Polyline(contour.points @ R.T + t, closed=True)
        lm2 = mo.Landmarks2D(R @ lm.ac + t, R @ lm.pc + t)
        mesh2 = triangulate(moved, 0.25)
        line2, f2 = mo.intercallosal_line(mesh2, lm2, 40)
        p2 = mo.thickness_profile(mesh2, f2, line2, 40)

        assert abs(p1.intercallosal_length_mm - p2.intercallosal_length_mm) < 0.05
        ok = p1.valid & p2.valid
        assert ok[5:-5].all()
        diff = np.abs(p1.thickness_mm[ok] - p2.thickness_mm[ok])
        assert diff.max() < 0.08
