"""Rigid transforms, oriented planes, AC/PC landmarks, and point-set registration.

World coordinates follow the NIfTI RAS convention (x: left-to-right,
y: posterior-to-anterior, z: inferior-to-superior).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RigidTransform",
    "Plane",
    "Landmarks",
    "kabsch_rigid",
    "acpc_standardize",
]

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid map x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation is improper (det = -1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "RigidTransform":
        m = np.asarray(m, dtype=float).reshape(4, 4)
        return cls(m[:3, :3], m[:3, 3])

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        out = np.atleast_2d(pts) @ self.rotation.T + self.translation
        return out[0] if single else out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self @ other)(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)

    def to_json(self) -> str:
        return json.dumps({"matrix": [[float(v) for v in row] for row in self.as_matrix()]})

    @classmethod
    def from_json(cls, s: str) -> "RigidTransform":
        return cls.from_matrix(json.loads(s)["matrix"])


@dataclass(frozen=True)
class Plane:
    """Oriented plane {x : normal . x = offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3)
        offset = float(self.offset)
        if not (np.isfinite(n).all() and np.isfinite(offset)):
            raise ValueError(f"plane normal and offset must be finite, got {n.tolist()} and {offset}")
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ValueError("plane normal has zero length")
        # re-normalize; the offset is interpreted against the unit normal
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", offset / norm)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal - self.offset

    def point_on_plane(self) -> np.ndarray:
        return self.normal * self.offset

    def transformed(self, t: RigidTransform) -> "Plane":
        """Image of the plane under the rigid map t."""
        n = t.rotation @ self.normal
        return Plane(n, self.offset + float(n @ t.translation))

    def to_json(self) -> str:
        return json.dumps({"normal": [float(v) for v in self.normal], "offset": float(self.offset)})

    @classmethod
    def from_json(cls, s: str) -> "Plane":
        d = json.loads(s)
        return cls(np.asarray(d["normal"], dtype=float), float(d["offset"]))


@dataclass(frozen=True)
class Landmarks:
    """Anterior and posterior commissure points in world mm."""

    ac: np.ndarray
    pc: np.ndarray

    def __post_init__(self):
        ac = np.asarray(self.ac, dtype=float).reshape(3)
        pc = np.asarray(self.pc, dtype=float).reshape(3)
        for name, p in (("AC", ac), ("PC", pc)):
            if not np.isfinite(p).all():
                raise ValueError(f"{name} must be finite, got {p.tolist()}")
        if np.linalg.norm(ac - pc) <= 0:
            raise ValueError("AC and PC coincide")
        object.__setattr__(self, "ac", ac)
        object.__setattr__(self, "pc", pc)

    @classmethod
    def from_json(cls, s: str) -> "Landmarks":
        d = json.loads(s)
        return cls(np.asarray(d["ac"], dtype=float), np.asarray(d["pc"], dtype=float))

    def to_json(self) -> str:
        return json.dumps({"ac": [float(v) for v in self.ac], "pc": [float(v) for v in self.pc]})


def kabsch_rigid(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid map T minimizing sum ||T(src_i) - dst_i||^2.

    Points are paired by position. Uses SVD of the cross-covariance with the
    determinant sign corrected along the smallest singular direction, so the
    returned rotation is always proper.

    Raises
    ------
    ValueError
        Fewer than 3 pairs, or a collinear/coincident configuration.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape or src.shape[1] != 3:
        raise ValueError(f"point lists must both be (n, 3), got {src.shape} and {dst.shape}")
    if src.shape[0] < 3:
        raise ValueError("degenerate configuration: need at least 3 point pairs")

    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    a = src - c_src
    # collinearity of the source cloud makes the rotation non-unique
    s_src = np.linalg.svd(a, compute_uv=False)
    if s_src[1] <= 1e-9 * max(s_src[0], 1e-30):
        raise ValueError("degenerate configuration: points coincident or collinear")

    H = a.T @ (dst - c_dst)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    t = c_dst - R @ c_src
    return RigidTransform(R, t)


def acpc_standardize(lm: Landmarks, cc_centroid: np.ndarray) -> RigidTransform:
    """Head-pose standardization from AC/PC landmarks and the CC centroid.

    The returned transform maps AC to the origin, PC onto the negative
    anterior-posterior axis at (0, -|AC-PC|, 0), and zeroes the left-right
    coordinate of ``cc_centroid`` (which ends up on the +z side).
    """
    cc = np.asarray(cc_centroid, dtype=float).reshape(3)
    y = lm.ac - lm.pc
    y = y / np.linalg.norm(y)
    w = cc - lm.ac
    w_perp = w - (w @ y) * y
    nw = np.linalg.norm(w_perp)
    if nw <= 1e-9 * max(np.linalg.norm(w), 1.0):
        raise ValueError("cannot fix roll: CC centroid lies on the AC-PC line")
    z = w_perp / nw
    x = np.cross(y, z)
    R = np.vstack([x, y, z])
    return RigidTransform(R, -R @ lm.ac)
