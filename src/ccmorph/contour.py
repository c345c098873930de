"""2D masks, Gaussian smoothing, marching-squares contours, and polyline utilities.

Pixel (i, j) of a :class:`Mask2D` sits at mm coordinates
``(i * pixel_size[0], j * pixel_size[1])`` (pixel centers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

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

    Only the mask's non-zero box, widened by the kernel radius, is filtered;
    the rest of the field is 0. That is the full-grid filter bit for bit: a
    pixel farther than the radius from the box reads only zeros, and inside
    the window every read, reflected at a window side or not, finds the
    value the full grid has there.
    """
    if sigma_mm <= 0:
        raise ValueError("sigma must be positive")
    sig = (sigma_mm / mask.pixel_size[0], sigma_mm / mask.pixel_size[1])
    field = np.zeros(mask.data.shape)
    for box in ndimage.find_objects(mask.data):  # one box, or none for an all-zero mask
        radius = [int(4.0 * s + 0.5) for s in sig]  # gaussian_filter's at truncate=4
        window = tuple(slice(max(b.start - r, 0), b.stop + r) for b, r in zip(box, radius))
        field[window] = ndimage.gaussian_filter(mask.data[window].astype(float), sigma=sig, mode="reflect", truncate=4.0)
    return field


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
# the same as arrays indexed by case: the segment count and the (edge_a, edge_b) pairs
_SEG_COUNT = np.array([len(_SEGMENTS.get(c, ())) for c in range(32)])
_SEG_EDGES = np.array([(_SEGMENTS.get(c, ()) + ((0, 0), (0, 0)))[:2] for c in range(32)])
_EDGE_STEPS = np.array(_EDGES)


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

    up = above.astype(np.uint8)
    case = up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2 | up[:-1, 1:] << 3
    si, sj = np.nonzero((case == 5) | (case == 10))  # saddles: the cell-center average decides
    center_above = (f[si, sj] + f[si + 1, sj] + f[si + 1, sj + 1] + f[si, sj + 1]) / 4.0 > iso
    case[si[center_above], sj[center_above]] |= 16
    # crossed cells only, in row-major order, and their segments in ``_SEGMENTS`` order
    ii, jj = np.nonzero((case != 0) & (case != 15))
    if not len(ii):
        raise ValueError("empty contour: field does not cross the iso value")
    c = case[ii, jj]
    count = _SEG_COUNT[c]
    cell = np.repeat(np.arange(len(c)), count)
    nth = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    edge = _SEG_EDGES[c[cell], nth].ravel()  # each segment's (edge_a, edge_b), one after the other

    # the grid edge of each segment end, keyed so neighbouring cells agree; vertex ids
    # follow first use
    i0, j0, i1, j1 = (np.repeat(base[cell], 2) + _EDGE_STEPS[edge, k] for base, k in ((ii, 0), (jj, 1), (ii, 2), (jj, 3)))
    _, first, inverse = np.unique((i0 * f.shape[1] + j0) * 2 + (i1 - i0), return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    vid = np.empty_like(by_use)
    vid[by_use] = np.arange(len(by_use))
    ends = vid[inverse.ravel()]
    at = first[by_use]
    i0, j0, i1, j1 = i0[at], j0[at], i1[at], j1[at]
    f0, f1 = f[i0, j0], f[i1, j1]
    t = (iso - f0) / (f1 - f0)
    x = (i0 + t * (i1 - i0)) * px[0] + ox
    y = (j0 + t * (j1 - j0)) * px[1] + oy

    # each vertex's neighbours, the first recorded first
    n = len(at)
    if (np.bincount(ends, minlength=n) != 2).any():
        raise ValueError("contour not closed (crosses the field border); pad the field first")
    nbrs = ends.reshape(-1, 2)[:, ::-1].ravel()[np.argsort(ends, kind="stable")]

    # chain the loops: a depth-first order from a virtual root whose row lists every
    # vertex by id starts each loop at its smallest id and walks to its first neighbour
    indptr = np.append(np.arange(0, 2 * n + 1, 2), 3 * n)
    graph = csr_matrix((np.ones(3 * n), np.concatenate([nbrs, np.arange(n)]), indptr), shape=(n + 1, n + 1))
    order, pred = depth_first_order(graph, n, directed=True, return_predecessors=True)
    order = order[1:]
    loops = [np.column_stack([x[L], y[L]]) for L in np.split(order, np.flatnonzero(pred[order] == n)[1:])]

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
