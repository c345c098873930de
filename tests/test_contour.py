import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from ccmorph.contour import (
    Mask2D,
    Polyline,
    extract_contour,
    polygon_area,
    resample_polyline,
    smooth_mask,
)


def _disc_mask(n=32, radius=10.0, center=None):
    c = (n - 1) / 2.0 if center is None else center
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return Mask2D(((ii - c) ** 2 + (jj - c) ** 2 <= radius**2).astype(np.uint8), (1.0, 1.0))


class TestSmoothMask:
    def test_tiny_sigma_is_identity(self):
        m = _disc_mask()
        out = smooth_mask(m, 1e-6)
        np.testing.assert_allclose(out, m.data, atol=1e-6)

    def test_constant_preserved(self):
        m = Mask2D(np.ones((16, 16), dtype=np.uint8), (1.0, 1.0))
        out = smooth_mask(m, 2.5)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_range(self):
        out = smooth_mask(_disc_mask(), 2.0)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12

    def test_single_pixel_matches_direct_convolution(self):
        n = 21
        data = np.zeros((n, n), dtype=np.uint8)
        data[10, 10] = 1
        m = Mask2D(data, (1.0, 1.0))
        sigma = 1.0
        out = smooth_mask(m, sigma)
        # direct separable kernel with the same truncation rule (4 sigma)
        radius = int(4.0 * sigma + 0.5)
        x = np.arange(-radius, radius + 1)
        k = np.exp(-(x**2) / (2 * sigma**2))
        k /= k.sum()
        direct = np.outer(k, k)
        np.testing.assert_allclose(out[10, 10], direct[radius, radius], atol=1e-9)
        np.testing.assert_allclose(out[10 - 3 : 10 + 4, 10 - 3 : 10 + 4], direct[radius - 3 : radius + 4, radius - 3 : radius + 4], atol=1e-9)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            smooth_mask(_disc_mask(), 0.0)

    def test_anisotropic_pixels(self):
        data = np.zeros((15, 15), dtype=np.uint8)
        data[7, 7] = 1
        m = Mask2D(data, (0.5, 1.0))
        out = smooth_mask(m, 1.0)  # 2 px along axis 0, 1 px along axis 1
        assert out[5, 7] > out[7, 5]

    @pytest.mark.parametrize("seed", range(50))
    def test_window_equals_the_full_grid_bit_for_bit(self, seed):
        # only the mask's non-zero box, widened by the kernel radius, is filtered
        rng = np.random.default_rng([seed, 27])
        shape = rng.integers(5, 60, 2)
        lo = rng.integers(0, shape)
        hi = lo + rng.integers(1, shape - lo + 1)
        side = seed % 5  # 1-4: the box touches one border of the grid, 0: maybe none
        if side:
            axis = (side - 1) // 2
            lo[axis], hi[axis] = (0, hi[axis]) if side % 2 else (lo[axis], shape[axis])
        data = np.zeros(shape, dtype=np.uint8)
        data[lo[0] : hi[0], lo[1] : hi[1]] = rng.random(hi - lo) < 0.6
        pixel = (1.0, float(rng.uniform(0.5, 2.0)))
        sigma_mm = float(rng.uniform(0.3, 3.0))
        full = ndimage.gaussian_filter(data.astype(float), sigma=(sigma_mm, sigma_mm / pixel[1]), mode="reflect", truncate=4.0)
        out = smooth_mask(Mask2D(data, pixel), sigma_mm)
        assert out.shape == full.shape and out.dtype == full.dtype
        assert np.array_equal(out.view(np.uint64), full.view(np.uint64))

    def test_all_zero_mask(self):
        out = smooth_mask(Mask2D(np.zeros((9, 7), dtype=np.uint8), (0.5, 1.0)), 1.0)
        assert out.shape == (9, 7) and out.dtype == np.float64 and not out.view(np.uint64).any()


class TestExtractContour:
    def test_disc_area(self):
        m = _disc_mask(32, 10.0)
        field = np.pad(smooth_mask(m, 1.0), 1)
        c = extract_contour(field, 0.5, (1.0, 1.0), origin=(-1.0, -1.0))
        assert c.closed
        area = c.area()
        assert area > 0  # counter-clockwise
        assert abs(area - np.pi * 100) / (np.pi * 100) < 0.03

    @pytest.mark.parametrize("radius", [8.0, 10.0, 14.0])
    def test_disc_area_tracks_pixel_count(self, radius):
        # smoothed iso-0.5 contour area stays within 3% of the mask pixel
        # count for discs of radius >= 8 px
        n = int(4 * radius)
        m = _disc_mask(n, radius)
        field = np.pad(smooth_mask(m, 1.0), 1)
        c = extract_contour(field, 0.5, (1.0, 1.0), origin=(-1.0, -1.0))
        count = float(m.data.sum())
        assert abs(c.area() - count) / count < 0.03

    def test_largest_component_selected(self):
        n = 48
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        big = (ii - 20) ** 2 + (jj - 20) ** 2 <= 10**2
        small = (ii - 40) ** 2 + (jj - 40) ** 2 <= 3**2
        m = Mask2D((big | small).astype(np.uint8), (1.0, 1.0))
        field = np.pad(smooth_mask(m, 1.0), 1)
        c = extract_contour(field, 0.5, (1.0, 1.0), origin=(-1.0, -1.0))
        assert abs(c.area() - np.pi * 100) / (np.pi * 100) < 0.05
        # contour points stay near the big disc
        assert np.linalg.norm(c.points.mean(axis=0) - [20, 20]) < 2.0

    def test_empty_contour(self):
        with pytest.raises(ValueError, match="empty contour"):
            extract_contour(np.zeros((8, 8)), 0.5)

    def test_open_contour_error(self):
        g = np.zeros((8, 8))
        g[:4, :] = 1.0
        with pytest.raises(ValueError, match="contour not closed"):
            extract_contour(g, 0.5)

    def test_pixel_size_and_origin(self):
        m = _disc_mask(32, 10.0)
        field = np.pad(smooth_mask(m, 1.0), 1)
        c = extract_contour(field, 0.5, (0.5, 0.5), origin=(-0.5, -0.5))
        assert abs(c.area() - np.pi * 25) / (np.pi * 25) < 0.03

    def test_hole_is_ignored(self):
        n = 40
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        r2 = (ii - 20) ** 2 + (jj - 20) ** 2
        ring = (r2 <= 15**2) & (r2 >= 6**2)
        m = Mask2D(ring.astype(np.uint8), (1.0, 1.0))
        field = np.pad(smooth_mask(m, 1.0), 1)
        c = extract_contour(field, 0.5, (1.0, 1.0), origin=(-1.0, -1.0))
        # outer contour selected, so the enclosed area is the full disc
        assert abs(c.area() - np.pi * 15**2) / (np.pi * 15**2) < 0.05


def _reference_contour(field, iso, pixel_size=(1.0, 1.0), origin=(0.0, 0.0)):
    """The earlier algorithm: a Python case ladder over every cell of the grid."""
    f = np.asarray(field, dtype=float)
    px = np.broadcast_to(np.asarray(pixel_size, dtype=float).ravel(), (2,))
    ox, oy = float(origin[0]), float(origin[1])
    table = {1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)]}
    table.update({9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)]})
    saddles = {(5, False): [(3, 0), (1, 2)], (5, True): [(3, 2), (1, 0)]}
    saddles.update({(10, False): [(0, 1), (2, 3)], (10, True): [(0, 3), (2, 1)]})
    verts, segs = {}, {}

    def edge_vertex(i0, j0, i1, j1):
        if (i0, j0, i1, j1) not in verts:
            t = (iso - f[i0, j0]) / (f[i1, j1] - f[i0, j0])
            x = (i0 + t * (i1 - i0)) * px[0] + ox
            y = (j0 + t * (j1 - j0)) * px[1] + oy
            verts[i0, j0, i1, j1] = (len(verts), x, y)
        return verts[i0, j0, i1, j1]

    above = f > iso
    for i in range(f.shape[0] - 1):
        for j in range(f.shape[1] - 1):
            case = int(above[i, j]) | 2 * above[i + 1, j] | 4 * above[i + 1, j + 1] | 8 * above[i, j + 1]
            if case in (0, 15):
                continue
            center_above = (f[i, j] + f[i + 1, j] + f[i + 1, j + 1] + f[i, j + 1]) / 4.0 > iso
            for ea, eb in saddles[case, center_above] if case in (5, 10) else table[case]:
                ends = []
                for e in (ea, eb):
                    if e == 0:
                        ends.append(edge_vertex(i, j, i + 1, j))
                    elif e == 1:
                        ends.append(edge_vertex(i + 1, j, i + 1, j + 1))
                    elif e == 2:
                        ends.append(edge_vertex(i, j + 1, i + 1, j + 1))
                    else:
                        ends.append(edge_vertex(i, j, i, j + 1))
                segs.setdefault(ends[0][0], []).append((ends[0], ends[1]))
                segs.setdefault(ends[1][0], []).append((ends[1], ends[0]))

    visited, loops = set(), []
    for start_id in sorted(segs):
        if start_id in visited:
            continue
        cur, nxt = segs[start_id][0]
        loop = [cur]
        visited.add(cur[0])
        while nxt[0] != start_id:
            loop.append(nxt)
            visited.add(nxt[0])
            cand = segs[nxt[0]]
            nxt = cand[0][1] if cand[0][1][0] != loop[-2][0] else cand[1][1]
        loops.append(np.array([(x, y) for _, x, y in loop]))
    best = max(loops, key=lambda L: abs(polygon_area(L)))
    return best[::-1] if polygon_area(best) < 0 else best


def _saddle_sides(field, iso):
    """Set of cell-center sides (True = above iso) over the field's saddle cells."""
    f = np.asarray(field, dtype=float)
    a = f > iso
    saddle = (a[:-1, :-1] == a[1:, 1:]) & (a[1:, :-1] == a[:-1, 1:]) & (a[:-1, :-1] != a[1:, :-1])
    center = (f[:-1, :-1] + f[1:, :-1] + f[1:, 1:] + f[:-1, 1:]) / 4.0 > iso
    return set(center[saddle].tolist())


class TestExtractContourMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("iso", [0.3, 0.5, 0.7])
    def test_random_field(self, seed, iso):
        rng = np.random.default_rng([seed, 51])
        field = np.pad(rng.random((int(rng.integers(12, 30)), int(rng.integers(12, 30)))), 1)
        assert _saddle_sides(field, iso) == {False, True}  # both saddle cases, both center sides
        px, origin = tuple(rng.uniform(0.3, 1.5, 2)), tuple(rng.uniform(-5.0, 5.0, 2))
        got = extract_contour(field, iso, px, origin)
        np.testing.assert_array_equal(got.points, _reference_contour(field, iso, px, origin))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("iso", [0.25, 0.5, 0.75])
    def test_smoothed_random_mask(self, seed, iso):
        rng = np.random.default_rng([seed, 52])
        mask = Mask2D((rng.random((40, 32)) < 0.55).astype(np.uint8), (0.5, 0.5))
        field = np.pad(smooth_mask(mask, 0.4), 1)
        got = extract_contour(field, iso, mask.pixel_size, (-0.5, -0.5))
        np.testing.assert_array_equal(got.points, _reference_contour(field, iso, mask.pixel_size, (-0.5, -0.5)))

    def test_binary_mask_saddles(self):
        # a raw 0/1 mask: every saddle center sits at 0.5, so iso decides the side
        rng = np.random.default_rng(53)
        field = np.pad((rng.random((30, 30)) < 0.5).astype(float), 1)
        for iso in (0.4, 0.6):
            assert _saddle_sides(field, iso) == {iso < 0.5}
            np.testing.assert_array_equal(extract_contour(field, iso).points, _reference_contour(field, iso))


class TestPolyline:
    def test_closed_needs_three(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=True)

    def test_duplicate_removal(self):
        p = Polyline(np.array([[0, 0], [0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float), closed=True)
        assert len(p) == 4

    def test_area_sign(self):
        ccw = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), closed=True)
        assert ccw.area() == 1.0
        cw = Polyline(ccw.points[::-1], closed=True)
        assert cw.area() == -1.0

    def test_csv(self):
        p = Polyline(np.array([[0.5, 1.5], [2.0, 3.0]]), closed=False)
        csv = p.to_csv()
        assert csv.startswith("x_mm,y_mm\n")
        assert "0.5,1.5" in csv


class TestResample:
    def test_equidistance_straight(self):
        pts = np.column_stack([np.linspace(0, 20, 7), np.zeros(7)])
        out = resample_polyline(pts, 102)
        seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert (abs(seg - seg.mean()) / seg.mean()).max() < 1e-9
        np.testing.assert_allclose(out[0], pts[0])
        np.testing.assert_allclose(out[-1], pts[-1])

    def test_equidistance_arc(self):
        t = np.linspace(0, np.pi, 400)
        pts = np.column_stack([3 * np.cos(t), 3 * np.sin(t)])
        out = resample_polyline(pts, 102)
        seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert (abs(seg - seg.mean()) / seg.mean()).max() < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 60), st.integers(3, 40))
    def test_endpoint_preservation(self, n_in, n_out):
        rng = np.random.default_rng(n_in * 100 + n_out)
        pts = np.cumsum(rng.uniform(0.1, 1.0, size=(n_in, 2)), axis=0)
        out = resample_polyline(pts, n_out)
        assert len(out) == n_out
        np.testing.assert_allclose(out[0], pts[0], atol=1e-12)
        np.testing.assert_allclose(out[-1], pts[-1], atol=1e-9)


def test_polygon_area_shoelace():
    tri = np.array([[0, 0], [2, 0], [0, 2]], dtype=float)
    assert polygon_area(tri) == 2.0
