"""Parametric geometric sub-division of the CC mesh.

Six schemes: witelson, jancke, hofer_frahm, hampel, eigendirection, and the
shape-aware scheme that cuts perpendicular to the intercallosal line.
Triangles are labeled by centroid position relative to the cut lines/rays;
segment ids run anterior to posterior except for hampel, whose ray fan is
ordered posterior to anterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Polyline
from .mesh import TriMesh2D
from .morphometry import Landmarks2D, _extremes, _superior_dir

__all__ = ["SubsegScheme", "SubsegResult", "subsegment", "default_fractions", "SCHEME_KINDS"]

SCHEME_KINDS = ("witelson", "jancke", "hofer_frahm", "hampel", "eigendirection", "shape_aware")

_FRACTIONS = {
    "witelson": (1 / 3, 1 / 2, 2 / 3, 4 / 5),
    "jancke": (1 / 3, 1 / 2, 2 / 3, 4 / 5),
    "hofer_frahm": (1 / 6, 1 / 2, 2 / 3, 3 / 4),
    "hampel": (0.2, 0.4, 0.6, 0.8),  # five equal-angle sectors
    "eigendirection": (0.2, 0.4, 0.6, 0.8),
    "shape_aware": (1 / 6, 1 / 2, 2 / 3, 3 / 4),
}


def default_fractions(kind: str):
    """Default cut fractions per scheme (from the respective originals)."""
    if kind not in _FRACTIONS:
        raise ValueError(f"unknown sub-segmentation scheme {kind!r}")
    return _FRACTIONS[kind]


@dataclass(frozen=True)
class SubsegScheme:
    kind: str
    fractions: tuple = None
    segment_count: int = 5

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown sub-segmentation scheme {self.kind!r}")
        fr = self.fractions
        if fr is None:
            if self.kind in ("hampel", "eigendirection"):
                if self.segment_count < 2:
                    raise ValueError("segment_count must be >= 2")
                fr = tuple(k / self.segment_count for k in range(1, self.segment_count))
            else:
                fr = default_fractions(self.kind)
        fr = tuple(float(x) for x in fr)
        if any(not (0.0 < x < 1.0) for x in fr) or any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be strictly increasing within (0, 1)")
        object.__setattr__(self, "fractions", fr)
        object.__setattr__(self, "segment_count", len(fr) + 1)


@dataclass(frozen=True)
class SubsegResult:
    scheme: SubsegScheme
    triangle_labels: np.ndarray
    segment_areas_mm2: np.ndarray

    def to_csv(self) -> str:
        lines = ["scheme,segment_id,area_mm2"]
        areas = np.asarray(self.segment_areas_mm2, dtype=float).tolist()
        lines += [f"{self.scheme.kind},{k},{a!r}" for k, a in enumerate(areas)]
        return "\n".join(lines) + "\n"


def _result(scheme, mesh, labels):
    areas = mesh.signed_areas()
    seg_areas = np.zeros(scheme.segment_count)
    np.add.at(seg_areas, labels, areas)
    return SubsegResult(scheme, labels.astype(np.int64), seg_areas)


def subsegment(
    mesh: TriMesh2D,
    scheme: SubsegScheme,
    lm: Landmarks2D,
    line: Polyline | None = None,
) -> SubsegResult:
    """Label every triangle with a segment id and report per-segment areas.

    ``line`` (the resampled intercallosal line) is required for the
    shape_aware scheme. A cut that misses the mesh yields an empty segment
    with zero area.
    """
    cent = mesh.centroids()
    u = lm.anterior_dir()  # points anterior
    ap = -u  # anterior -> posterior direction

    if scheme.kind == "hampel":
        # rectangle fitted around the CC, axis-aligned in the standardized
        # frame; rays fan 180 degrees from a midpoint on the inferior border
        m_sup = _superior_dir(lm, mesh.vertices[mesh.boundary_loop()])
        pr_u = mesh.vertices @ ap
        pr_m = mesh.vertices @ m_sup
        mid = 0.5 * (pr_u.min() + pr_u.max()) * ap + pr_m.min() * m_sup
        rel = cent - mid
        x = rel @ ap  # toward posterior
        y = rel @ m_sup
        theta = np.arctan2(np.maximum(y, 0.0), x)  # 0 = posterior, pi = anterior
        bounds = np.asarray(scheme.fractions) * np.pi
        labels = np.searchsorted(bounds, theta, side="right")
        return _result(scheme, mesh, labels)

    if scheme.kind == "shape_aware":
        if line is None:
            raise ValueError("shape_aware sub-segmentation needs the intercallosal line")
        pts = line.points
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        total = s[-1]
        labels = np.zeros(mesh.n_triangles, dtype=np.int64)
        for frac in scheme.fractions:
            target = frac * total
            k = int(np.searchsorted(s, target) - 1)
            k = min(max(k, 0), len(seg) - 1)
            t = (target - s[k]) / seg[k]
            q = (1 - t) * pts[k] + t * pts[k + 1]
            tang = pts[k + 1] - pts[k]
            tang = tang / np.linalg.norm(tang)
            if tang @ ap < 0:
                tang = -tang
            labels += ((cent - q) @ tang > 0).astype(np.int64)
        return _result(scheme, mesh, labels)

    # the other four cut at fractions of the mesh's extent along one axis d
    if scheme.kind in ("witelson", "hofer_frahm"):
        # anchor line through the most anterior and most posterior mesh points
        p_ant, p_post = _extremes(mesh.vertices, ap)
        d = p_post - p_ant
        d = d / np.linalg.norm(d)
    elif scheme.kind == "jancke":
        d = ap
    elif scheme.kind == "eigendirection":
        areas = mesh.signed_areas()
        a, b, c = mesh.corners()
        mids = ((a + b) / 2, (b + c) / 2, (c + a) / 2)
        total = areas.sum()
        mean = sum((areas[:, None] * mm).sum(axis=0) for mm in mids) / (3.0 * total)
        cov = np.zeros((2, 2))
        for mm in mids:
            d0 = mm - mean
            cov += (areas[:, None, None] * (d0[:, :, None] * d0[:, None, :])).sum(axis=0)
        cov /= 3.0 * total
        evals, evecs = np.linalg.eigh(cov)
        if evals[1] - evals[0] <= 1e-6 * max(evals[1], 1e-30):
            raise ValueError("degenerate principal axis: shape is isotropic")
        d = evecs[:, 1]
        if d @ ap < 0:
            d = -d  # orient anterior -> posterior
    else:
        raise ValueError(f"unknown sub-segmentation scheme {scheme.kind!r}")
    pr = mesh.vertices @ d
    t = (cent @ d - pr.min()) / max(pr.max() - pr.min(), 1e-30)
    return _result(scheme, mesh, np.searchsorted(np.asarray(scheme.fractions), t, side="right"))
