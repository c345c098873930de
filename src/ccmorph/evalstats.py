"""Segmentation evaluation metrics and group statistics.

DSC and 95th-percentile boundary distance for binary masks; Wilcoxon
rank-sum (exact for small samples, tie- and continuity-corrected normal
approximation otherwise); OLS with t-based p-values; Benjamini-Hochberg
correction; and per-position thickness group maps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree
from scipy.special import stdtr

__all__ = [
    "dice",
    "hausdorff95",
    "boundary_voxels",
    "wilcoxon_ranksum",
    "OLSResult",
    "ols_fit",
    "bh_correct",
    "GroupTable",
    "PositionStat",
    "thickness_group_map",
]


def _as_mask(x) -> np.ndarray:
    m = np.asarray(x)
    if m.dtype != bool:
        vals = np.unique(m)
        if not np.all(np.isin(vals, (0, 1))):
            raise ValueError("mask must be binary")
        m = m.astype(bool)
    return m


def _box(*masks) -> tuple:
    """The smallest box (a tuple of slices) that holds every non-zero voxel of the
    same-shaped boolean ``masks``; the whole array if there is none. Outside it every
    mask is 0, so a mask's sums and its surface are those of its part in the box."""
    boxes = [b for m in masks for b in ndimage.find_objects(m.view(np.uint8))]  # no full-volume temporary
    if not boxes:
        return tuple(slice(0, n) for n in masks[0].shape)
    return tuple(slice(min(b[d].start for b in boxes), max(b[d].stop for b in boxes)) for d in range(masks[0].ndim))


def dice(x, y) -> float:
    """Dice similarity 2|X n Y| / (|X| + |Y|); both-empty is 1 with a warning."""
    mx = _as_mask(x)
    my = _as_mask(y)
    if mx.shape != my.shape:
        raise ValueError("masks must have the same shape")
    box = _box(mx, my)
    mx, my = mx[box], my[box]
    nx = int(mx.sum())
    ny = int(my.sum())
    if nx == 0 and ny == 0:
        warnings.warn("dice of two empty masks defined as 1")
        return 1.0
    inter = int(np.logical_and(mx, my).sum())
    return 2.0 * inter / (nx + ny)


def boundary_voxels(mask, voxel_size=(1.0, 1.0, 1.0)) -> np.ndarray:
    """World-space centers (mm) of surface voxels (6-connectivity)."""
    m = _as_mask(mask)
    if m.ndim != 3:
        raise ValueError("mask must be 3D")
    box = _box(m)
    m = m[box]
    # voxels at the box's faces face the outside: the array border, or zeros beyond the box
    interior = ndimage.binary_erosion(m, ndimage.generate_binary_structure(3, 1), border_value=0)
    return (np.argwhere(m & ~interior) + [b.start for b in box]) * np.asarray(voxel_size, dtype=float)


def hausdorff95(x, y, voxel_size=(1.0, 1.0, 1.0), pooled: bool = True) -> float:
    """95th-percentile symmetric boundary distance in mm.

    Boundary voxel centers are extracted with 6-connectivity; the directed
    nearest-neighbor distances of both directions are pooled and the
    95th percentile taken with linear interpolation. ``pooled=False``
    instead takes the max of the two directed 95th percentiles.
    """
    bx = boundary_voxels(x, voxel_size)
    by = boundary_voxels(y, voxel_size)
    if len(bx) == 0 or len(by) == 0:
        raise ValueError("hausdorff95 requires non-empty masks")
    d_xy = cKDTree(by).query(bx)[0]
    d_yx = cKDTree(bx).query(by)[0]
    if pooled:
        return float(np.percentile(np.concatenate([d_xy, d_yx]), 95))
    return float(max(np.percentile(d_xy, 95), np.percentile(d_yx, 95)))


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def wilcoxon_ranksum(a, b):
    """Two-sided Wilcoxon rank-sum test.

    Returns (W, p) where W is the rank sum of the first sample using
    midranks. For n + m <= 10 the p-value is computed by exact enumeration
    of all assignments; otherwise a normal approximation with tie and
    continuity corrections is used.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w = float(ranks[:n].sum())
    N = n + m
    mu = n * (N + 1) / 2.0

    if N <= 10:
        dev = abs(w - mu)
        hits = 0
        total = 0
        for comb in combinations(range(N), n):
            total += 1
            ws = ranks[list(comb)].sum()
            if abs(ws - mu) >= dev - 1e-12:
                hits += 1
        return w, hits / total

    # normal approximation with tie correction
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = (counts**3 - counts).sum()
    var = n * m / 12.0 * ((N + 1) - tie_term / (N * (N - 1)))
    if var <= 0:
        return w, 1.0
    z = (abs(w - mu) - 0.5) / math.sqrt(var)
    if z < 0:
        return w, 1.0
    p = math.erfc(z / math.sqrt(2.0))
    return w, min(p, 1.0)


@dataclass(frozen=True)
class OLSResult:
    beta: np.ndarray
    stderr: np.ndarray
    tstat: np.ndarray
    p_value: np.ndarray
    dof: int
    residuals: np.ndarray

    @property
    def rss(self) -> float:
        return float((self.residuals**2).sum())


def ols_fit(y, design) -> OLSResult:
    """Ordinary least squares via QR with per-coefficient two-sided t tests.

    ``design`` must include its own intercept column if one is wanted.
    Raises on rank-deficient designs.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(design, dtype=float))
    if X.shape[0] != len(y):
        raise ValueError("design and response lengths differ")
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more observations ({n}) than predictors ({p})")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-10 * max(diag.max(), 1.0):
        raise ValueError("rank-deficient design matrix")
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    dof = n - p
    sigma2 = float(resid @ resid) / dof
    Rinv = np.linalg.solve(R, np.eye(p))
    cov = sigma2 * (Rinv @ Rinv.T)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.where(beta == 0, 0.0, np.inf * np.sign(beta)))
    p_val = np.where(np.isinf(t), 0.0, 2.0 * stdtr(dof, -np.abs(np.where(np.isinf(t), 0.0, t))))
    p_val = np.where((se == 0) & (beta == 0), 1.0, p_val)
    return OLSResult(beta, se, t, np.clip(p_val, 0.0, 1.0), dof, resid)


def bh_correct(p) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values, in the input order."""
    p = np.asarray(p, dtype=float).ravel()
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adj = p[order] * m / np.arange(1, m + 1)
    adj = np.minimum.accumulate(adj[::-1])[::-1]
    adj = np.clip(adj, 0.0, 1.0)
    out = np.empty(m)
    out[order] = adj
    return out


@dataclass(frozen=True)
class GroupTable:
    """Per-case rows: group indicator (1 = patient), covariates, thickness."""

    case_ids: list
    group: np.ndarray  # 0/1
    age: np.ndarray
    sex: np.ndarray  # 0/1 indicator
    tbv: np.ndarray  # total brain volume
    thickness: np.ndarray  # (cases, positions)

    def __post_init__(self):
        g = np.asarray(self.group, dtype=float)
        th = np.atleast_2d(np.asarray(self.thickness, dtype=float))
        n = len(g)
        for name in ("age", "sex", "tbv"):
            v = np.asarray(getattr(self, name), dtype=float)
            if len(v) != n or not np.all(np.isfinite(v)):
                raise ValueError(f"covariate {name} missing or non-finite")
            object.__setattr__(self, name, v)
        if th.shape[0] != n:
            raise ValueError("thickness rows must match the number of cases")
        object.__setattr__(self, "group", g)
        object.__setattr__(self, "thickness", th)

    @property
    def n_positions(self) -> int:
        return self.thickness.shape[1]


@dataclass(frozen=True)
class PositionStat:
    position: int
    beta: float
    p: float
    p_adj: float


def thickness_group_map(table: GroupTable) -> list:
    """Per-position group effect: OLS of thickness on group + covariates.

    Fits thickness[:, k] ~ 1 + group + age + sex + tbv for each position k,
    collects the group-coefficient p-values, and BH-corrects them across
    positions.
    """
    X = np.column_stack(
        [np.ones(len(table.group)), table.group, table.age, table.sex, table.tbv]
    )
    betas = []
    ps = []
    for k in range(table.n_positions):
        y = table.thickness[:, k]
        ok = np.isfinite(y)
        fit = ols_fit(y[ok], X[ok])
        betas.append(float(fit.beta[1]))
        ps.append(float(fit.p_value[1]))
    p_adj = bh_correct(np.array(ps))
    return [
        PositionStat(k, betas[k], ps[k], float(p_adj[k]))
        for k in range(table.n_positions)
    ]
