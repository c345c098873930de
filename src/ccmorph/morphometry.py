"""Endpoint detection, intercallosal line, thickness profiles, and shape metrics."""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import fem
from .contour import Polyline, polygon_area, polyline_length, resample_polyline
from .mesh import TriMesh2D

__all__ = [
    "Landmarks2D",
    "EndpointPair",
    "ThicknessProfile",
    "ShapeSummary",
    "CCIndex",
    "find_endpoints",
    "intercallosal_line",
    "thickness_profile",
    "length_and_curvature",
    "cc_index",
    "corrected_volume",
    "shape_summary",
]


class EndpointError(ValueError):
    """AC and PC pick the same or adjacent contour endpoints: a fault of the landmarks, not of the contour."""


@dataclass(frozen=True)
class Landmarks2D:
    """AC and PC projected into the mid-sagittal plane frame (mm)."""

    ac: np.ndarray
    pc: np.ndarray

    def __post_init__(self):
        ac = np.asarray(self.ac, dtype=float).reshape(2)
        pc = np.asarray(self.pc, dtype=float).reshape(2)
        if np.linalg.norm(ac - pc) <= 0:
            raise ValueError("AC and PC coincide in the plane")
        object.__setattr__(self, "ac", ac)
        object.__setattr__(self, "pc", pc)

    def anterior_dir(self) -> np.ndarray:
        u = self.ac - self.pc
        return u / np.linalg.norm(u)


@dataclass(frozen=True)
class EndpointPair:
    """Indices of the anterior and posterior endpoints on a contour."""

    anterior: int
    posterior: int
    far_landmarks: bool = False  # warning flag: anchors > 50 mm from the contour box

    def __post_init__(self):
        if self.anterior == self.posterior:
            raise ValueError("endpoints must be distinct")


@dataclass(frozen=True)
class ThicknessProfile:
    """Thickness at n arc-length fractions along the intercallosal line."""

    positions: np.ndarray  # arc-length fractions in (0, 1), strictly increasing
    thickness_mm: np.ndarray  # NaN where the level path is invalid
    valid: np.ndarray
    intercallosal_length_mm: float
    curvature: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        th = np.asarray(self.thickness_mm, dtype=float)
        va = np.asarray(self.valid, dtype=bool)
        if not (len(pos) == len(th) == len(va)):
            raise ValueError("profile arrays must have equal length")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(th[va] <= 0):
            raise ValueError("valid thickness values must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "thickness_mm", th)
        object.__setattr__(self, "valid", va)

    @property
    def n(self) -> int:
        return len(self.positions)

    def to_csv(self) -> str:
        rows = zip(self.positions.tolist(), self.thickness_mm.tolist(), self.valid.tolist())
        lines = ["position_fraction,thickness_mm"]
        lines += [f"{p!r},{t!r}" if v else f"{p!r},nan" for p, t, v in rows]
        return "\n".join(lines) + "\n"


class CCIndex(NamedTuple):
    raw: float  # sum of the three cut lengths, mm
    normalized: float  # raw divided by the chord length


@dataclass(frozen=True)
class ShapeSummary:
    area_mm2: float
    perimeter_mm: float
    circularity: float
    cc_index_raw: float
    cc_index_norm: float
    volume_mm3: float
    length_mm: float
    curvature_per_mm: float

    def to_dict(self) -> dict:
        return asdict(self)


def _superior_dir(lm: Landmarks2D, outline: np.ndarray) -> np.ndarray:
    """Unit vector perpendicular to the AC-PC line pointing toward the CC.

    The CC side is the side of the AC-PC line that holds the area centroid
    of the closed ``outline``. When the line passes through the centroid
    (within 1e-9 of the outline's extent) that side is rounding noise, so
    the tie goes to a fixed side, the anterior direction turned by -90
    degrees, and every mesh of a shape gets the same answer.
    """
    u = lm.anterior_dir()
    m = np.array([-u[1], u[0]])
    _, centroid, _ = polygon_moments(outline)
    s = float(m @ (centroid - (lm.ac + lm.pc) / 2.0))
    return m if s > 1e-9 * float(np.ptp(outline, axis=0).max()) else -m


def _extremes(points: np.ndarray, direction: np.ndarray):
    """(low, high): the mean of the points at the smallest and at the largest
    projection on ``direction``; points within 1e-9 of the projected extent
    of an extreme tie with it (flat extremes are averaged for stability)."""
    proj = points @ direction
    lo, hi = proj.min(), proj.max()
    scale = max(hi - lo, 1e-12)
    return points[proj <= lo + 1e-9 * scale].mean(axis=0), points[proj >= hi - 1e-9 * scale].mean(axis=0)


def _nearest_index(points: np.ndarray, anchor: np.ndarray) -> int:
    d2 = ((points - anchor) ** 2).sum(axis=1)
    return int(np.argmin(d2))  # argmin takes the lowest index on ties


def find_endpoints(
    contour: Polyline,
    lm: Landmarks2D,
    anterior_offset=(0.0, 0.0),
    posterior_offset=(0.0, 0.0),
) -> EndpointPair:
    """Anterior/posterior contour endpoints nearest the AC/PC anchors.

    The anchors default to AC and PC themselves; the offsets move them
    along the AC-PC line (first component, toward anterior for the anterior
    anchor and toward posterior for the posterior one) and orthogonal to it
    (second component, toward the CC side).
    """
    pts = contour.points
    u = lm.anterior_dir()
    m = _superior_dir(lm, pts)
    anchor_a = lm.ac + anterior_offset[0] * u + anterior_offset[1] * m
    anchor_p = lm.pc - posterior_offset[0] * u + posterior_offset[1] * m

    lo = pts.min(axis=0) - 50.0
    hi = pts.max(axis=0) + 50.0
    far = bool(
        np.any(anchor_a < lo) or np.any(anchor_a > hi) or np.any(anchor_p < lo) or np.any(anchor_p > hi)
    )
    if far:
        warnings.warn("landmarks lie more than 50 mm outside the contour bounding box")

    ia = _nearest_index(pts, anchor_a)
    ip = _nearest_index(pts, anchor_p)
    if ia == ip:
        raise EndpointError("anterior and posterior endpoints coincide")
    return EndpointPair(ia, ip, far)


def _split_boundary(mesh: TriMesh2D, lm: Landmarks2D):
    """Boundary loop split at the endpoint vertices into inferior/superior arcs.

    Returns (anterior_vertex, posterior_vertex, inferior_arc, superior_arc)
    with the arcs excluding the endpoint vertices. Raises ``EndpointError``
    when the endpoints coincide or are neighbours, which leaves an arc empty.
    """
    loop = mesh.boundary_loop()
    vpts = mesh.vertices[loop]
    m = _superior_dir(lm, vpts)
    ends = find_endpoints(Polyline(vpts, closed=True), lm)
    loop = np.roll(loop, -ends.anterior)
    ip = (ends.posterior - ends.anterior) % len(loop)
    arc1 = loop[1:ip]
    arc2 = loop[ip + 1 :]
    if not len(arc1) or not len(arc2):  # no vertex to hold -1 or +1: the Laplace problem has no midline
        raise EndpointError("anterior and posterior endpoints are adjacent on the contour")
    anterior = int(loop[0])
    posterior = int(loop[ip])

    def height(arc):
        return float((mesh.vertices[arc] @ m).mean())

    if height(arc1) >= height(arc2):
        superior, inferior = arc1, arc2
    else:
        superior, inferior = arc2, arc1
    return anterior, posterior, inferior, superior


def intercallosal_line(mesh: TriMesh2D, lm: Landmarks2D, n: int):
    """The CC midline: zero level set of the Laplace solution.

    Splits the mesh boundary loop at the endpoint vertices picked by
    :func:`find_endpoints`, solves the Laplace equation with -1 on the
    inferior arc, +1 on the superior arc, and 0 at the two endpoints, then
    extracts the zero level set and resamples it to n + 2 equidistant
    points running anterior to posterior.

    Returns
    -------
    (line, f) : the resampled midline as an open Polyline and the per-vertex
    Laplace solution.
    """
    if n < 1:
        raise ValueError("n must be positive")
    anterior, posterior, inferior, superior = _split_boundary(mesh, lm)
    fixed = [(anterior, 0.0), (posterior, 0.0)]
    fixed += [(int(v), -1.0) for v in inferior]
    fixed += [(int(v), +1.0) for v in superior]
    f = fem.solve_dirichlet(mesh, fixed)

    comps = [c for c in fem.level_set_components(mesh, f, 0.0) if len(c["points"]) >= 2]
    if len(comps) != 1:
        raise ValueError(
            f"degenerate midline: zero level set has {len(comps)} components"
        )
    path = comps[0]["points"]
    if comps[0]["closed"]:
        raise ValueError("degenerate midline: zero level set is a closed loop")

    pa = mesh.vertices[anterior]
    if np.linalg.norm(path[0] - pa) > np.linalg.norm(path[-1] - pa):
        path = path[::-1]
    line = Polyline(resample_polyline(path, n + 2), closed=False)
    return line, f


def thickness_profile(mesh: TriMesh2D, f: np.ndarray, line: Polyline, n: int) -> ThicknessProfile:
    """Thickness at the n interior midline samples via rotated-field level sets.

    Rotates the gradients of the Laplace solution by 90 degrees, solves the
    Poisson equation for the conjugate field g, and measures the length of
    the level path of g through each interior line sample: the level-set
    component that crosses the triangle holding the sample. One
    ``fem._level_sets`` pass gives the components of all sample levels.
    A level path that does not span from the inferior to the superior boundary is
    flagged invalid (NaN) rather than interpolated.
    """
    if len(line.points) != n + 2:
        raise ValueError(f"line must have n + 2 = {n + 2} points, got {len(line.points)}")
    g_field = conjugate_field(mesh, f, line)

    tids, barys = fem._locate_all(mesh, line.points[1:-1])
    # the stacked product gives each sample level the bits of g[t[tid]] @ bary
    levels = np.matmul(g_field[mesh.triangles[tids]][:, None, :], barys[:, :, None])[:, 0, 0]
    paths = fem._level_sets(mesh, g_field, levels)
    seg = np.linalg.norm(np.diff(paths.points, axis=0), axis=1)
    comp = paths.find(levels, tids)
    spans = np.append(_spanning(f, paths), False)[comp]  # comp -1: no path
    thickness = np.full(n, np.nan)
    for k in np.flatnonzero(spans).tolist():
        thickness[k] = seg[paths.starts[comp[k]] : paths.starts[comp[k] + 1] - 1].sum()  # polyline_length's bits
    valid = thickness > 0

    length, curvature = length_and_curvature(line)
    positions = np.arange(1, n + 1) / (n + 1)
    return ThicknessProfile(positions, thickness, valid, length, curvature)


def _spanning(f: np.ndarray, paths: fem._LevelSets) -> np.ndarray:
    """Per component of ``paths``: True where it runs from the inferior to the superior arc.

    Open components end on boundary mesh edges; the sign of the Laplace
    boundary values on those edges tells the arc (negative inferior,
    positive superior; the endpoint vertices themselves sit at 0), so a
    path spans when ``f`` summed over its first edge and over its last edge
    have opposite signs. A loop spans nothing.
    """
    ends = f[paths.edges].sum(axis=1)
    return ~paths.closed & (ends[paths.starts[:-1]] * ends[paths.starts[1:] - 1] < 0)


def conjugate_field(mesh: TriMesh2D, f: np.ndarray, line: Polyline) -> np.ndarray:
    """Solve the Poisson equation for the rotated-gradient (conjugate) field.

    The solve is anchored at 0 on the boundary vertex closest to the
    anterior end of ``line``.
    """
    rot = fem.rotate90(fem.gradient(mesh, f))
    h = fem.divergence(mesh, rot)
    bidx = np.nonzero(mesh.boundary_flags)[0]
    anchor_vertex = int(bidx[_nearest_index(mesh.vertices[bidx], line.points[0])])
    return fem.solve_poisson(mesh, h, (anchor_vertex, 0.0))


def length_and_curvature(line: Polyline):
    """Arc length (mm) and mean unsigned discrete curvature (1/mm).

    Curvature at each interior sample is the turning angle divided by the
    mean of the two adjacent segment lengths; the line value is the mean
    over interior samples.
    """
    p = line.points
    length = polyline_length(p, line.closed)
    if len(p) < 3:
        return length, 0.0
    d = np.diff(p, axis=0)
    seg = np.linalg.norm(d, axis=1)
    cosang = (d[:-1] * d[1:]).sum(axis=1) / (seg[:-1] * seg[1:])
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    mean_adjacent = 0.5 * (seg[:-1] + seg[1:])
    kappa = ang / mean_adjacent
    return float(length), float(kappa.mean())


def polygon_moments(points: np.ndarray):
    """(area, centroid, covariance) of a simple closed polygon (CCW positive)."""
    p = np.asarray(points, dtype=float)
    q = np.roll(p, -1, axis=0)
    cr = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    area = 0.5 * cr.sum()
    if area == 0:
        raise ValueError("degenerate polygon")
    cx = ((p[:, 0] + q[:, 0]) * cr).sum() / (6.0 * area)
    cy = ((p[:, 1] + q[:, 1]) * cr).sum() / (6.0 * area)
    sxx = ((p[:, 0] ** 2 + p[:, 0] * q[:, 0] + q[:, 0] ** 2) * cr).sum() / 12.0
    syy = ((p[:, 1] ** 2 + p[:, 1] * q[:, 1] + q[:, 1] ** 2) * cr).sum() / 12.0
    sxy = (
        (2 * p[:, 0] * p[:, 1] + p[:, 0] * q[:, 1] + q[:, 0] * p[:, 1] + 2 * q[:, 0] * q[:, 1]) * cr
    ).sum() / 24.0
    c = np.array([cx, cy])
    cov = np.array([[sxx, sxy], [sxy, syy]]) / area - np.outer(c, c)
    return float(area), c, cov


def _line_polygon_cut(q: np.ndarray, direction: np.ndarray, poly: np.ndarray) -> float:
    """Total in-polygon length of the line through q along direction."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    e = b - a
    denom = e[:, 0] * direction[1] - e[:, 1] * direction[0]
    w = q - a
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (w[:, 0] * direction[1] - w[:, 1] * direction[0]) / denom
        s = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / -denom
    hit = np.isfinite(u) & (u >= 0.0) & (u < 1.0)
    svals = np.sort(s[hit])
    if len(svals) < 2:
        return 0.0
    if len(svals) % 2 == 1:
        raise ValueError("index undefined: cut line grazes the contour")
    return float((svals[1::2] - svals[0::2]).sum())


def cc_index(contour: Polyline) -> CCIndex:
    """Three-cut corpus callosum index of a closed contour.

    The anchor chord joins the contour extremes along the principal axis of
    the enclosed region; three cuts perpendicular to the chord are measured
    at its two ends and its midpoint, and their in-structure lengths are
    summed. Both the raw sum (mm) and the chord-normalized variant are
    returned.
    """
    pts = contour.points
    if polygon_area(pts) < 0:
        pts = pts[::-1]
    _, _, cov = polygon_moments(pts)
    evals, evecs = np.linalg.eigh(cov)
    p_ant, p_post = _extremes(pts, evecs[:, int(np.argmax(evals))])
    chord = p_post - p_ant
    chord_len = float(np.linalg.norm(chord))
    if chord_len <= 0:
        raise ValueError("index undefined: degenerate chord")
    cdir = chord / chord_len
    perp = np.array([-cdir[1], cdir[0]])

    eps = 1e-7
    cuts = []
    for tfrac in (eps, 0.5, 1.0 - eps):
        q = p_ant + tfrac * chord
        length = None
        for nudge in (0.0, 3e-7, -3e-7):
            try:
                length = _line_polygon_cut(q + nudge * chord_len * cdir, perp, pts)
                break
            except ValueError:
                continue
        if length is None:
            raise ValueError("index undefined: cut line grazes the contour")
        if length <= 0:
            raise ValueError("index undefined: perpendicular misses the structure")
        cuts.append(length)
    raw = float(sum(cuts))
    return CCIndex(raw, raw / chord_len)


def corrected_volume(slab_areas, spacing_mm: float, width_mm: float = 5.0) -> float:
    """Slab volume normalized to a consistent width by weighting edge slices.

    volume = spacing * (sum of interior areas + w * (first + last)) with
    w = (width - (n - 2) * spacing) / (2 * spacing), which makes the total
    integration width exactly ``width_mm`` for the slice counts produced by
    :func:`ccmorph.midplane.slice_count`.
    """
    areas = np.asarray(slab_areas, dtype=float)
    n = len(areas)
    if n == 0:
        raise ValueError("no slab areas")
    if n == 1:
        return float(width_mm * areas[0])
    w = (width_mm - (n - 2) * spacing_mm) / (2.0 * spacing_mm)
    if w < 0:
        raise ValueError("slab thicker than the target width; check slice count")
    return float(spacing_mm * (areas[1:-1].sum() + w * (areas[0] + areas[-1])))


def shape_summary(
    mesh: TriMesh2D,
    contour: Polyline,
    line: Polyline,
    slab_areas,
    spacing_mm: float,
    width_mm: float = 5.0,
) -> ShapeSummary:
    """Aggregate shape metrics for one case."""
    area = mesh.area()
    perimeter = contour.length()
    circ = 4.0 * np.pi * area / perimeter**2
    idx = cc_index(contour)
    length, curvature = length_and_curvature(line)
    vol = corrected_volume(slab_areas, spacing_mm, width_mm)
    return ShapeSummary(
        area_mm2=float(area),
        perimeter_mm=float(perimeter),
        circularity=float(circ),
        cc_index_raw=idx.raw,
        cc_index_norm=idx.normalized,
        volume_mm3=vol,
        length_mm=length,
        curvature_per_mm=curvature,
    )
