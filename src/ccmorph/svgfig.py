"""Dependency-free SVG rendering for pipeline figures."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["profile_svg", "shape_svg", "subseg_svg", "pmap_svg"]

_SEGMENT_COLORS = ["#4878cf", "#e8a33d", "#6acc65", "#d65f5f", "#956cb4", "#8c613c", "#dc7ec0"]


def _fmt(x) -> str:
    return f"{x:.3f}"


def _points(pts) -> str:
    """An SVG ``points`` value: "x,y" pairs at three decimals."""
    return " ".join([f"{x:.3f},{y:.3f}" for x, y in np.asarray(pts, dtype=float).tolist()])


class _Canvas:
    def __init__(self, width, height):
        self.w = width
        self.h = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def polyline(self, pts, stroke="#333", width=1.0, fill="none"):
        self.parts.append(
            f'<polyline points="{_points(pts)}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polygon(self, pts, fill="#ddd", stroke="none", width=0.5):
        self.parts.append(
            f'<polygon points="{_points(pts)}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def line(self, a, b, stroke="#888", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(self, pos, s, size=11, anchor="start", color="#222"):
        self.parts.append(
            f'<text x="{_fmt(pos[0])}" y="{_fmt(pos[1])}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}">{s}</text>'
        )

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _MapToCanvas:
    """Affine map from data mm coordinates into canvas pixels (y flipped)."""

    def __init__(self, points, width, height, margin=30.0):
        p = np.asarray(points, dtype=float)
        self.lo = p.min(axis=0)
        hi = p.max(axis=0)
        span = np.maximum(hi - self.lo, 1e-9)
        self.s = min((width - 2 * margin) / span[0], (height - 2 * margin) / span[1])
        self.margin = margin
        self.height = height

    def __call__(self, pts):
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        x = self.margin + (p[:, 0] - self.lo[0]) * self.s
        y = self.height - self.margin - (p[:, 1] - self.lo[1]) * self.s
        return np.column_stack([x, y])


def profile_svg(positions, thickness, width=640, height=360) -> str:
    """Thickness-profile line plot with axes."""
    pos = np.asarray(positions, dtype=float)
    th = np.asarray(thickness, dtype=float)
    c = _Canvas(width, height)
    mx, my = 55.0, 35.0
    valid = np.isfinite(th)
    tmax = float(th[valid].max()) if valid.any() else 1.0
    tmax = max(tmax * 1.15, 1e-6)

    def to_px(p, t):
        return (mx + p * (width - mx - 20), height - my - t / tmax * (height - 2 * my))

    c.line((mx, height - my), (width - 20, height - my))
    c.line((mx, height - my), (mx, my))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = to_px(frac, 0)
        c.text((x, height - my + 16), f"{frac:.2f}", anchor="middle")
    for k in range(5):
        t = tmax * k / 4
        x, y = to_px(0, t)
        c.text((mx - 6, y + 4), f"{t:.1f}", anchor="end")
        c.line((mx - 3, y), (mx, y))
    c.text((width / 2, height - 6), "position along intercallosal line", anchor="middle")
    c.text((14, height / 2), "thickness (mm)", anchor="middle")
    runs = []
    cur = []
    for p, t, v in zip(pos, th, valid):
        if v:
            cur.append(to_px(p, t))
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    for run in runs:
        c.polyline(run, stroke="#b33", width=1.6)
    return c.to_string()


def shape_svg(contour_pts, line_pts=None, levelpaths=None, width=640, height=420) -> str:
    """Contour with the intercallosal line and optional thickness levelpaths."""
    m = _MapToCanvas(contour_pts, width, height)
    c = _Canvas(width, height)
    c.polygon(m(contour_pts), fill="#f3e6c9", stroke="#8a6d1d", width=1.2)
    if levelpaths:
        for lp in levelpaths:
            c.polyline(m(lp), stroke="#4878cf", width=0.8)
    if line_pts is not None:
        c.polyline(m(line_pts), stroke="#b33", width=1.6)
    return c.to_string()


def subseg_svg(vertices, triangles, labels, width=640, height=420) -> str:
    """Mesh triangles filled per segment label.

    Each vertex is formatted once; a triangle's polygon joins the strings
    of its three corners.
    """
    m = _MapToCanvas(vertices, width, height)
    c = _Canvas(width, height)
    xy = [f"{x:.3f},{y:.3f}" for x, y in m(vertices).tolist()]
    n = len(_SEGMENT_COLORS)
    c.parts += [
        f'<polygon points="{xy[a]} {xy[b]} {xy[d]}" fill="{_SEGMENT_COLORS[lab % n]}" stroke="none" stroke-width="0.5"/>'
        for (a, b, d), lab in zip(np.asarray(triangles).tolist(), np.asarray(labels, dtype=np.int64).tolist())
    ]
    return c.to_string()


def _p_color(p_adj: float) -> str:
    """White (p=1) to dark red (p<=1e-6) on a log scale."""
    p = min(max(p_adj, 1e-12), 1.0)
    x = min(-math.log10(p) / 6.0, 1.0)
    r = 255 - int(x * 115)
    g = int(245 * (1.0 - x))
    b = int(240 * (1.0 - x))
    return f"#{r:02x}{g:02x}{b:02x}"


def pmap_svg(positions, p_adj, mean_thickness, mean_length, width=720, height=320) -> str:
    """Adjusted p-values mapped onto a straightened template contour.

    The template is the mean contour implied by the mean thickness profile
    along a straight midline of the mean intercallosal length; each
    position's band is colored by adjusted p on a log scale.
    """
    pos = np.asarray(positions, dtype=float)
    th = np.asarray(mean_thickness, dtype=float)
    th = np.where(np.isfinite(th), th, np.nanmedian(th))
    xs = pos * mean_length
    upper = np.column_stack([xs, th / 2.0])
    lower = np.column_stack([xs, -th / 2.0])
    all_pts = np.vstack([upper, lower])
    m = _MapToCanvas(all_pts, width, height - 40)
    c = _Canvas(width, height)
    for k in range(len(pos) - 1):
        band = np.array(
            [upper[k], upper[k + 1], lower[k + 1], lower[k]]
        )
        c.polygon(m(band), fill=_p_color(float(p_adj[k])), stroke="none")
    c.polyline(m(np.vstack([upper, lower[::-1], upper[:1]])), stroke="#555", width=1.0)
    # legend
    for i, pv in enumerate((1.0, 0.05, 1e-3, 1e-6)):
        x0 = 20 + i * 150
        c.parts.append(
            f'<rect x="{x0}" y="{height - 28}" width="18" height="14" fill="{_p_color(pv)}" stroke="#777"/>'
        )
        c.text((x0 + 24, height - 16), f"p_adj = {pv:g}")
    return c.to_string()
