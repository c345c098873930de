"""Mid-sagittal plane estimation, slab resampling, and the plane-disagreement metric."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .transforms import Plane, kabsch_rigid
from .volume import Volume, _read_box

__all__ = [
    "label_centroids",
    "midsagittal_plane",
    "resample_slab",
    "plane_disagreement",
]


def label_centroids(vol: Volume, other: Volume, labels=None):
    """World-space centroids of ``vol`` for labels present in both volumes.

    Background (label 0) is excluded. By default all shared non-background
    labels are used; pass ``labels`` to restrict to an explicit list.

    Returns
    -------
    list of (label, centroid) with centroid a length-3 array in mm, sorted
    by label id.
    """
    if not vol.is_label_map() or not other.is_label_map():
        raise ValueError("label_centroids requires integer label maps")
    labs, _, cents = vol.label_table
    shared = np.isin(labs, other.label_table[0])
    if labels is not None:
        shared &= np.isin(labs, np.asarray(labels))
    if shared.sum() < 3:
        raise ValueError(
            f"insufficient correspondences: {shared.sum()} shared labels, need at least 3"
        )
    return [(int(lab), c) for lab, c in zip(labs[shared], cents[shared])]


def midsagittal_plane(subject_seg: Volume, template_seg: Volume, template_plane: Plane, labels=None):
    """Map a template mid-sagittal plane into subject space.

    Registers the label-centroid point clouds of subject and template rigidly
    (subject -> template) and pulls the template plane back through the
    inverse map.

    Returns
    -------
    (plane, transform) : the mid-sagittal plane in subject world space and
    the subject-to-template rigid transform.
    """
    # both calls return the same sorted shared labels, so rows pair by position
    src = np.array([c for _, c in label_centroids(subject_seg, template_seg, labels)])
    dst = np.array([c for _, c in label_centroids(template_seg, subject_seg, labels)])
    t = kabsch_rigid(src, dst)
    return template_plane.transformed(t.inverse()), t


def _plane_basis(normal: np.ndarray):
    """Deterministic in-plane orthonormal axes (e1, e2) with e1 x e2 = normal."""
    n = np.asarray(normal, dtype=float)
    axis = int(np.argmin(np.abs(n)))
    u = np.zeros(3)
    u[axis] = 1.0
    e1 = u - (u @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def slice_count(width_mm: float, spacing_mm: float) -> int:
    """Smallest odd n with n * spacing >= width (keeps a central slice)."""
    n = int(np.ceil(width_mm / spacing_mm - 1e-12))
    if n % 2 == 0:
        n += 1
    return max(n, 1)


def resample_slab(
    vol: Volume,
    plane: Plane,
    width_mm: float,
    spacing_mm: float,
    inplane_spacing_mm: float | None = None,
    labels=None,
) -> Volume:
    """Resample a slab of slices parallel to ``plane``, centered on it.

    The slab has the smallest odd number of slices with total thickness at
    least ``width_mm`` so a central slice lies exactly on the plane. Scalar
    volumes are interpolated trilinearly, label volumes nearest-neighbor
    (labels must stay integers). The slab affine maps slab voxels back to
    the original world space exactly; axis 2 of the result is the plane
    normal direction.

    Given ``labels``, a label volume is sampled only in the in-plane window
    that can hold those labels (from ``Volume.label_bounds``): the result
    keeps the full grid's shape and affine, equals it inside the window,
    and is 0 outside, where none of ``labels`` can fall.

    The samples are read from an in-memory copy of the source voxel box
    they can reach, not from ``vol.data`` itself. The copy is made chunk by
    chunk (``volume._read_box``), so of a volume mapped from a ``.nii``
    file only the box's rows are read, by positional reads that map no
    page; the slab is the same bit for bit as one sampled from the whole
    volume.
    """
    if width_mm <= 0 or spacing_mm <= 0:
        raise ValueError("width and spacing must be positive")
    corners = vol.world_corners()
    d = plane.signed_distance(corners)
    if d.min() > 0 or d.max() < 0:
        raise ValueError("plane misses volume")

    sp_in = spacing_mm if inplane_spacing_mm is None else inplane_spacing_mm
    nsl = slice_count(width_mm, spacing_mm)
    e1, e2 = _plane_basis(plane.normal)

    # in-plane extent: projection of the volume corners onto the plane frame,
    # with the grid anchored at the projection of the volume center
    center = vol.world_center()
    origin0 = center - plane.signed_distance(center[None])[0] * plane.normal
    u = (corners - origin0) @ e1
    v = (corners - origin0) @ e2
    iu0, iu1 = int(np.floor(u.min() / sp_in)), int(np.ceil(u.max() / sp_in))
    iv0, iv1 = int(np.floor(v.min() / sp_in)), int(np.ceil(v.max() / sp_in))
    nu, nv = iu1 - iu0 + 1, iv1 - iv0 + 1

    grid_origin = origin0 + iu0 * sp_in * e1 + iv0 * sp_in * e2 - (nsl - 1) / 2.0 * spacing_mm * plane.normal
    slab_affine = np.eye(4)
    slab_affine[:3, 0] = e1 * sp_in
    slab_affine[:3, 1] = e2 * sp_in
    slab_affine[:3, 2] = plane.normal * spacing_mm
    slab_affine[:3, 3] = grid_origin

    # one affine map, slab index -> world -> source voxel, applied by ndimage
    to_source = np.linalg.inv(vol.affine) @ slab_affine
    nearest = vol.is_label_map()
    (i0, i1), (j0, j1) = (0, nu), (0, nv)
    if nearest and labels is not None:
        (i0, i1), (j0, j1) = _label_window(vol, labels, to_source, (nu, nv))
        to_source[:3, 3] += to_source[:3, :2] @ (i0, j0)  # the window's first voxel is slab index (i0, j0)
    data = np.zeros((nu, nv, nsl), dtype=vol.data.dtype.name if nearest else float)
    window = data[i0:i1, j0:j1]
    lo, hi = _source_box(to_source, window.shape, vol.dims)
    if np.all(hi > lo):  # else every sample lies a voxel or more outside the volume and reads cval
        to_source[:3, 3] -= lo  # the box's first voxel is source index lo
        ndimage.affine_transform(
            _read_box(vol.data, lo, hi),
            to_source,
            output=window,
            order=0 if nearest else 1,
            mode="constant",
            cval=0.0,
            prefilter=False,
        )
    return Volume(data, np.array([sp_in, sp_in, spacing_mm]), slab_affine)


def _source_box(to_source, shape, dims):
    """(lo, hi): the source voxel box ``lo <= index < hi`` that samples of an output of ``shape`` can read.

    The samples' source positions lie in the box of the output corners'
    positions under ``to_source``; widened by a voxel, it holds every voxel a
    nearest or linear sample reads, and clipped to ``dims``, its clipped sides
    are the volume's own. An empty output gives an empty box.
    """
    if 0 in shape:
        return np.zeros(3, dtype=int), np.zeros(3, dtype=int)
    corners = np.array([[i, j, k, 1.0] for i in (0, shape[0] - 1) for j in (0, shape[1] - 1) for k in (0, shape[2] - 1)])
    xyz = (corners @ to_source.T)[:, :3]
    lo = np.clip(np.floor(xyz.min(axis=0)).astype(int) - 1, 0, dims)
    hi = np.clip(np.ceil(xyz.max(axis=0)).astype(int) + 2, lo, dims)  # exclusive
    return lo, hi


def _label_window(vol: Volume, labels, to_source, shape):
    """In-plane slab index ranges ``(i0, i1), (j0, j1)`` outside which no voxel of ``labels`` is sampled.

    Nearest-neighbour sampling gives a slab voxel a label only when its
    source position falls in a voxel cell of that label, so the window
    holds the slab indices of the labels' cell box (voxel bounds +- 0.5),
    widened by a pixel for rounding and clipped to the grid. It is empty
    when none of ``labels`` is present.
    """
    present = np.isin(vol.label_table[0], np.asarray(labels))
    if not present.any():
        return (0, 0), (0, 0)
    lo, hi = vol.label_bounds
    box = np.stack([lo[present].min(axis=0) - 0.5, hi[present].max(axis=0) + 0.5])
    corners = np.array([[x, y, z, 1.0] for x in box[:, 0] for y in box[:, 1] for z in box[:, 2]])
    ij = (corners @ np.linalg.inv(to_source).T)[:, :2]
    start = np.clip(np.floor(ij.min(axis=0)).astype(int) - 1, 0, shape)
    stop = np.clip(np.ceil(ij.max(axis=0)).astype(int) + 2, start, shape)  # exclusive
    return (int(start[0]), int(stop[0])), (int(start[1]), int(stop[1]))


def plane_disagreement(
    p1: Plane,
    p2: Plane,
    radius_mm: float = 60.0,
    height_mm: float = 180.0,
    n_radial: int = 96,
    n_angular: int = 256,
) -> float:
    """Volume in mm^3 enclosed between two planes inside a cylinder.

    The cylinder is centered at the world origin with its axis along the
    normalized average of the two (sign-aligned) plane normals; the gap is
    clipped to a height window of ``height_mm`` centered at the origin.
    Computed by Gauss-Legendre x trapezoid quadrature over the cylinder
    cross-section.
    """
    if radius_mm <= 0:
        raise ValueError("radius must be positive")
    n1, o1 = p1.normal, p1.offset
    n2, o2 = p2.normal, p2.offset
    dot = float(n1 @ n2)
    if dot < -1.0 + 1e-12:
        raise ValueError("ambiguous orientation: plane normals are exactly opposite")
    if dot < 0:
        n2, o2 = -n2, -o2
    axis = n1 + n2
    axis /= np.linalg.norm(axis)
    b1, b2 = _plane_basis(axis)

    # Gauss-Legendre in r (weighted by r) and uniform angular samples
    xg, wg = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * radius_mm * (xg + 1.0)
    wr = 0.5 * radius_mm * wg * r
    theta = (np.arange(n_angular) + 0.5) * (2.0 * np.pi / n_angular)
    wt = 2.0 * np.pi / n_angular

    pts = (
        r[:, None, None] * np.cos(theta)[None, :, None] * b1[None, None, :]
        + r[:, None, None] * np.sin(theta)[None, :, None] * b2[None, None, :]
    )
    c1 = float(n1 @ axis)
    c2 = float(n2 @ axis)
    t1 = (o1 - pts @ n1) / c1
    t2 = (o2 - pts @ n2) / c2
    h = height_mm / 2.0
    gap = np.abs(np.clip(t1, -h, h) - np.clip(t2, -h, h))
    return float((wr[:, None] * gap).sum() * wt)
