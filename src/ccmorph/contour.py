"""2D masks, Gaussian smoothing, marching-squares contours, and polyline utilities.

Pixel (i, j) of a :class:`Mask2D` sits at mm coordinates
``(i * pixel_size[0], j * pixel_size[1])`` (pixel centers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "Mask2D",
    "Polyline",
    "smooth_mask",
    "extract_contour",
    "polygon_area",
    "resample_polyline",
    "polyline_length",
]


@dataclass(frozen=True)
class Mask2D:
    """Binary 2D mask with physical pixel sizes (mm)."""

    data: np.ndarray
    pixel_size: tuple

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError("mask must be 2D")
        vals = np.unique(data)
        if not np.all(np.isin(vals, (0, 1))):
            raise ValueError("mask values must be 0/1")
        ps = tuple(float(p) for p in np.broadcast_to(np.asarray(self.pixel_size, dtype=float).ravel(), (2,)))
        if min(ps) <= 0:
            raise ValueError("pixel sizes must be positive")
        object.__setattr__(self, "data", data.astype(np.uint8))
        object.__setattr__(self, "pixel_size", ps)


@dataclass(frozen=True)
class Polyline:
    """Ordered point sequence in mm; closed polylines do not repeat the first point."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("polyline points must be (n, 2)")
        if not np.isfinite(pts).all():
            raise ValueError("polyline points must be finite")
        # drop consecutive duplicates
        if len(pts) > 1:
            keep = np.ones(len(pts), dtype=bool)
            keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-12
            pts = pts[keep]
        if self.closed:
            if len(pts) > 1 and np.linalg.norm(pts[-1] - pts[0]) <= 1e-12:
                pts = pts[:-1]
            if len(pts) < 3:
                raise ValueError("closed polyline needs at least 3 distinct points")
        elif len(pts) < 2:
            raise ValueError("open polyline needs at least 2 distinct points")
        pts = pts.view()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @property
    def segments(self) -> np.ndarray:
        """Segment endpoint pairs, shape (m, 2, 2)."""
        p = self.points
        if self.closed:
            q = np.roll(p, -1, axis=0)
        else:
            q = p[1:]
            p = p[:-1]
        return np.stack([p, q], axis=1)

    def length(self) -> float:
        return polyline_length(self.points, self.closed)

    def area(self) -> float:
        """Signed enclosed area (shoelace); positive for counter-clockwise."""
        if not self.closed:
            raise ValueError("area requires a closed polyline")
        return polygon_area(self.points)

    def to_csv(self) -> str:
        lines = ["x_mm,y_mm"]
        lines += [f"{x!r},{y!r}" for x, y in self.points.tolist()]
        return "\n".join(lines) + "\n"


def polyline_length(points: np.ndarray, closed: bool = False) -> float:
    pts = np.asarray(points, dtype=float)
    d = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    if closed:
        d += np.linalg.norm(pts[-1] - pts[0])
    return float(d)


def polygon_area(points: np.ndarray) -> float:
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def smooth_mask(mask: Mask2D, sigma_mm: float) -> np.ndarray:
    """Separable Gaussian smoothing of the binary mask.

    The kernel is truncated at 4 sigma with reflect padding, so constants are
    preserved and the output stays in [0, 1]. Sigma is given in mm and
    converted per axis into pixels.
    """
    if sigma_mm <= 0:
        raise ValueError("sigma must be positive")
    sig = (sigma_mm / mask.pixel_size[0], sigma_mm / mask.pixel_size[1])
    return ndimage.gaussian_filter(mask.data.astype(float), sigma=sig, mode="reflect", truncate=4.0)


# marching squares. Corners are numbered 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1)
# and a cell's case sets bit c when corner c is above iso. Edge e joins grid
# points (i, j) + _EDGES[e][:2] and (i, j) + _EDGES[e][2:].
_EDGES = ((0, 0, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1))
# (edge_a, edge_b) segments per case, oriented so the above-iso region lies to
# the left; a saddle (5, 10) whose cell center is above iso is keyed case | 16
_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((3, 0), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((2, 0),), 10: ((0, 1), (2, 3)),
    11: ((2, 1),), 12: ((1, 3),), 13: ((1, 0),), 14: ((0, 3),),
    5 | 16: ((3, 2), (1, 0)), 10 | 16: ((0, 3), (2, 1)),
}


def extract_contour(
    field: np.ndarray,
    iso: float,
    pixel_size=(1.0, 1.0),
    origin=(0.0, 0.0),
) -> Polyline:
    """Largest closed iso-contour of a 2D scalar field via marching squares.

    Edge crossings are linearly interpolated; saddle cells are disambiguated
    with the cell-center average. If several closed contours exist, the one
    enclosing the largest area is returned, oriented counter-clockwise.
    The field must be padded (e.g. with zeros) so no contour touches the
    image border.

    Raises
    ------
    ValueError
        "empty contour" if the field never crosses iso, "contour not closed"
        if a contour runs into the border.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim != 2:
        raise ValueError("field must be 2D")
    above = f > iso
    if above.all() or (~above).all():
        raise ValueError("empty contour: field does not cross the iso value")

    px = np.broadcast_to(np.asarray(pixel_size, dtype=float).ravel(), (2,))
    ox, oy = float(origin[0]), float(origin[1])

    # vertex on a grid edge, keyed so neighboring cells agree exactly
    verts: dict = {}

    def edge_vertex(i, j, e):
        di0, dj0, di1, dj1 = _EDGES[e]
        i0, j0, i1, j1 = key = (i + di0, j + dj0, i + di1, j + dj1)
        v = verts.get(key)
        if v is None:
            f0, f1 = f[i0, j0], f[i1, j1]
            t = (iso - f0) / (f1 - f0)
            x = (i0 + t * (i1 - i0)) * px[0] + ox
            y = (j0 + t * (j1 - j0)) * px[1] + oy
            v = (len(verts), x, y)
            verts[key] = v
        return v

    # adjacency between edge-vertices
    segs: dict = {}

    def add_seg(a, b):
        segs.setdefault(a[0], []).append((a, b))
        segs.setdefault(b[0], []).append((b, a))

    up = above.astype(np.uint8)
    case = up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2 | up[:-1, 1:] << 3
    center_above = (f[:-1, :-1] + f[1:, :-1] + f[1:, 1:] + f[:-1, 1:]) / 4.0 > iso
    case[((case == 5) | (case == 10)) & center_above] |= 16
    # crossed cells only, in row-major order: vertex ids follow first use
    ii, jj = np.nonzero((case != 0) & (case != 15))
    for i, j, c in zip(ii.tolist(), jj.tolist(), case[ii, jj].tolist()):
        for ea, eb in _SEGMENTS[c]:
            add_seg(edge_vertex(i, j, ea), edge_vertex(i, j, eb))

    if not segs:
        raise ValueError("empty contour: field does not cross the iso value")

    # chain segments into loops
    visited = set()
    loops = []
    for start_id in sorted(segs):
        if start_id in visited:
            continue
        nbrs = segs[start_id]
        if len(nbrs) != 2:
            raise ValueError("contour not closed (crosses the field border); pad the field first")
        cur, nxt = nbrs[0]
        loop = [cur]
        visited.add(cur[0])
        while nxt[0] != start_id:
            loop.append(nxt)
            visited.add(nxt[0])
            candidates = segs.get(nxt[0], [])
            if len(candidates) != 2:
                raise ValueError("contour not closed (crosses the field border); pad the field first")
            prev = loop[-2]
            nxt = candidates[0][1] if candidates[0][1][0] != prev[0] else candidates[1][1]
        loops.append(np.array([(x, y) for _, x, y in loop]))

    best = max(loops, key=lambda L: abs(polygon_area(L)))
    if polygon_area(best) < 0:
        best = best[::-1]
    return Polyline(best, closed=True)


def resample_polyline(points: np.ndarray, n: int, closed: bool = False, iterations: int = 12) -> np.ndarray:
    """Resample a polyline to n points with equal spacing between neighbors.

    Arc-length resampling followed by a few equalization passes, so the
    chord distances between consecutive output points are constant (to
    rounding) on smooth inputs. Endpoints of open polylines are preserved.
    """
    pts = np.asarray(points, dtype=float)
    if closed:
        pts = np.vstack([pts, pts[:1]])
    if n < 2:
        raise ValueError("need at least 2 output points")
    out = pts
    for _ in range(max(iterations, 1)):
        seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        total = s[-1]
        if total <= 0:
            raise ValueError("degenerate polyline")
        target = np.linspace(0.0, total, n)
        x = np.interp(target, s, out[:, 0])
        y = np.interp(target, s, out[:, 1])
        nxt = np.column_stack([x, y])
        if len(out) == len(nxt) and np.allclose(out, nxt, rtol=0.0, atol=1e-13):
            out = nxt
            break
        out = nxt
    return out
