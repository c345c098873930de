"""Linear (P1) finite elements on planar triangle meshes.

Implements the cotangent stiffness matrix, Dirichlet and anchored Poisson
solves, exact piecewise-linear gradients, the discrete divergence adjoint
to the stiffness discretization (so that divergence(gradient(f)) == W @ f),
and level-set extraction by marching triangles.

Scalar fields are plain per-vertex float arrays; triangle vector fields are
(T, 2) arrays.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .contour import Polyline
from .mesh import TriMesh2D
from .triangulate import _widen

__all__ = [
    "stiffness_matrix",
    "solve_dirichlet",
    "gradient",
    "rotate90",
    "divergence",
    "solve_poisson",
    "extract_level_set",
    "level_set_components",
    "interpolate",
    "field_to_csv",
]


def field_to_csv(values: np.ndarray) -> str:
    """Per-vertex scalar field as CSV (vertex, value)."""
    lines = ["vertex,value"]
    lines += [f"{i},{v!r}" for i, v in enumerate(np.asarray(values, dtype=float).tolist())]
    return "\n".join(lines) + "\n"

_LEVEL_SNAP = 1e-12


def stiffness_matrix(mesh: TriMesh2D) -> sparse.csr_matrix:
    """Cotangent-weight stiffness matrix W (positive semi-definite).

    Off-diagonal entries are -(cot a_ij + cot b_ij)/2 for edge ij; the
    diagonal is minus the sum of the off-diagonals, so rows sum to zero.
    Returns the mesh's one matrix, read-only, assembled on the first call.
    """
    return mesh._stiffness


def solve_dirichlet(mesh: TriMesh2D, fixed) -> np.ndarray:
    """Minimize the Dirichlet energy subject to fixed vertex values.

    ``fixed`` is a sequence of (vertex_index, value) pairs. The reduced
    system is solved with a direct sparse factorization; the maximum
    principle holds on Delaunay meshes, so interior values stay inside
    [min fixed, max fixed].
    """
    fixed = list(fixed)
    if not fixed:
        raise ValueError("need at least one fixed vertex")
    return _solve_reduced(stiffness_matrix(mesh), np.zeros(mesh.n_vertices), fixed)


def _solve_reduced(W: sparse.csr_matrix, h: np.ndarray, fixed) -> np.ndarray:
    """Solve (W @ u)[free] = h[free] for u, holding the (vertex, value) pairs.

    The reduced right-hand side is h[free] - W[free][:, fixed] @ u[fixed];
    a direct sparse factorization solves it. A singular reduced system (a
    mesh part with no fixed vertex) raises ValueError.
    """
    vals = np.zeros(len(h))
    is_fixed = np.zeros(len(h), dtype=bool)
    for v, val in fixed:
        is_fixed[v] = True
        vals[v] = val
    free = np.nonzero(~is_fixed)[0]
    if free.size == 0:
        return vals
    W_free = W[free]
    rhs = h[free] - W_free[:, is_fixed] @ vals[is_fixed]
    try:
        sol = splu(W_free[:, free].tocsc()).solve(rhs)
    except RuntimeError as e:
        raise ValueError(f"singular reduced system: {e}") from None
    if not np.all(np.isfinite(sol)):
        raise ValueError("singular reduced system")
    vals[free] = sol
    return vals


def gradient(mesh: TriMesh2D, values: np.ndarray) -> np.ndarray:
    """Exact gradient of the piecewise-linear interpolant, (T, 2)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("values must be per-vertex")
    g, _ = mesh._hat_gradients
    f = values[mesh.triangles]  # (T, 3)
    return (g * f[:, :, None]).sum(axis=1)


def rotate90(vectors: np.ndarray) -> np.ndarray:
    """Rotate triangle vectors by +90 degrees about the +z mesh normal."""
    v = np.asarray(vectors, dtype=float)
    return np.column_stack([-v[:, 1], v[:, 0]])


def divergence(mesh: TriMesh2D, vectors: np.ndarray) -> np.ndarray:
    """Discrete divergence: div_i = sum_t area_t * (grad phi_i . v_t).

    Consistent with :func:`stiffness_matrix`, so
    ``divergence(mesh, gradient(mesh, f)) == W @ f`` to rounding.
    """
    v = np.asarray(vectors, dtype=float)
    if v.shape != (mesh.n_triangles, 2):
        raise ValueError("vectors must be per-triangle 2-vectors")
    g, areas = mesh._hat_gradients
    contrib = areas[:, None] * (g * v[:, None, :]).sum(axis=2)  # (T, 3)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out


def solve_poisson(mesh: TriMesh2D, h: np.ndarray, anchor) -> np.ndarray:
    """Solve W g = h with one anchored vertex fixing the free constant.

    ``anchor`` is a (vertex_index, value) pair. ``h`` must be orthogonal to
    constants (sum zero) for an exactly solvable system; the anchored direct
    solve leaves a residual below 1e-9 on consistent right-hand sides. A
    singular reduced system (a mesh part without the anchor) raises
    ValueError.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (mesh.n_vertices,):
        raise ValueError("h must be per-vertex")
    return _solve_reduced(stiffness_matrix(mesh), h, [anchor])


def interpolate(mesh: TriMesh2D, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of a vertex field at arbitrary points."""
    values = np.asarray(values, dtype=float)
    tids, barys = _locate_all(mesh, points)
    return np.array([f @ b for f, b in zip(values[mesh.triangles[tids]], barys)], dtype=float)


def _lowest(v, corners, q):
    """Smallest barycentric coordinate of ``q`` in each (3, K) corner-id column, NaN if degenerate."""
    # corners relative to q; cross[k] is twice the area of (q, corner k,
    # corner k + 1), so cross over its sum are barycentrics
    x, y = v[corners, 0] - q[..., 0], v[corners, 1] - q[..., 1]
    cross = x * np.roll(y, -1, axis=0) - y * np.roll(x, -1, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return cross.min(axis=0) / cross.sum(axis=0)


def _locate_all(mesh: TriMesh2D, points):
    """Triangle ids (n,) and barycentric coords (n, 3) of the triangle holding each point.

    A triangle holds p when its smallest coordinate is >= -1e-12; the
    lowest id wins, and its coordinates are clipped to [0, 1]. One cKDTree
    ball query over the triangle centroids shortlists each point's
    triangles: a triangle holding p has p no farther from its centroid than
    its farthest corner, so the largest centroid-to-corner distance,
    widened past rounding, is the radius. A point no triangle holds gets
    the least-negative triangle over the whole mesh, with normalized
    coordinates.
    """
    v, t = mesh.vertices, mesh.triangles
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    corners = np.take(v, t, axis=0)
    cent = corners.mean(axis=1)
    radius = float(np.sqrt(((corners - cent[:, None, :]) ** 2).sum(axis=2).max()))
    near = cKDTree(cent).query_ball_point(pts, _widen(radius, v), return_sorted=True)
    pi = np.repeat(np.arange(len(pts)), [len(c) for c in near])
    tj = np.fromiter(chain.from_iterable(near), dtype=np.int64, count=len(pi))
    short = _lowest(v, t[tj].T, pts[pi]) >= -1e-9  # a shortlist: the solved coordinates decide
    pi, tj = pi[short], tj[short]
    bary = _barycentrics(corners[tj], pts[pi])
    held = bary.min(axis=1) >= -1e-12
    # pairs run by point, then by triangle id, so a point's first held pair is its lowest id
    first, k = np.unique(pi[held], return_index=True)
    tids, barys = np.full(len(pts), -1, dtype=np.int64), np.empty((len(pts), 3))
    tids[first], barys[first] = tj[held][k], np.clip(bary[held][k], 0.0, 1.0)
    miss = np.flatnonzero(tids < 0)
    far = np.array([np.nanargmax(_lowest(v, t.T, pts[i])) for i in miss.tolist()], dtype=np.int64)
    bary = np.clip(_barycentrics(corners[far], pts[miss]), 0.0, None)
    tids[miss], barys[miss] = far, bary / np.maximum(bary.sum(axis=1), 1e-30)[:, None]
    return tids, barys


def _barycentrics(tri, p):
    """Barycentric coords (K, 3) of points p (K, 2) in triangles tri (K, 3, 2), -1s where singular.

    One stacked 2x2 solve gives the single solves' bits. A singular system
    would fail the whole stack, so the same LU factorization (slogdet) finds it first.
    """
    a = tri[:, 0]
    m = np.stack([tri[:, 1] - a, tri[:, 2] - a], axis=2)
    ok = np.linalg.slogdet(m)[0] != 0
    uv = np.linalg.solve(m[ok], (p - a)[ok, :, None])[:, :, 0]
    out = np.full((len(p), 3), -1.0)
    out[ok] = np.column_stack([1.0 - uv[:, 0] - uv[:, 1], uv[:, 0], uv[:, 1]])
    return out


def _above_cut(level: float) -> float:
    """The c for which x - level > c exactly when x, snapped, lies above ``level``.

    A value within _LEVEL_SNAP of the level snaps to level + _LEVEL_SNAP,
    which rounding can absorb; any other x is above when x - level >= _LEVEL_SNAP.
    """
    return -_LEVEL_SNAP if level + _LEVEL_SNAP > level else math.nextafter(_LEVEL_SNAP, 0.0)


def _trace(mesh: TriMesh2D, values, level: float, tid: int):
    """(first edge, component) of the level path of ``values`` through ``tid``, or None.

    Reads and snaps only the visited vertices of ``values`` (fastest as a list).
    Walks ``mesh.neighbors`` both ways from ``tid``. Edges are sorted vertex
    pairs; an open path runs from its smaller end edge, a loop from its
    smallest edge through the lower-numbered of that edge's two triangles.
    """
    (t, nb), cut = mesh.adjacency_lists, _above_cut(level)

    def crossed(s):  # (k, sorted edge) for each edge k -> k+1 of s the level crosses
        a, b, c = t[s]
        up_a, up_b, up_c = values[a] - level > cut, values[b] - level > cut, values[c] - level > cut
        sides = ((0, a, b, up_a != up_b), (1, b, c, up_b != up_c), (2, c, a, up_c != up_a))
        return [(k, (p, q) if p < q else (q, p)) for k, p, q, x in sides if x]

    halves = []
    for k, e in crossed(tid):  # none, or the two edges the path leaves tid by
        edges, tris, s = [e], [], tid
        while (nxt := nb[s][k]) not in (-1, tid):
            k, e = next(c for c in crossed(nxt) if c[1] != edges[-1])
            edges.append(e)
            tris.append(nxt)
            s = nxt
        if nxt == tid:  # a loop: tris[i] lies between edges i and i + 1
            tris.append(tid)
            i = min(range(len(edges)), key=edges.__getitem__)
            if tris[i] > tris[i - 1]:  # leave the smallest edge by its lower-numbered triangle
                edges, tris, i = edges[::-1], tris[-2::-1] + tris[-1:], len(edges) - 1 - i
            edges, tris = edges[i:] + edges[:i], tris[i:] + tris[:i]
            break
        halves.append((edges, tris))
    else:
        if not halves:
            return None
        (ea, ta), (eb, tb) = halves
        edges, tris = eb[::-1] + ea, tb[::-1] + [tid] + ta
        if edges[0] > edges[-1]:
            edges, tris = edges[::-1], tris[::-1]
    closed = nxt == tid
    e = np.array(edges, dtype=np.int64)
    w = np.array([(values[p], values[q]) for p, q in edges])
    w[np.abs(w - level) < _LEVEL_SNAP] = level + _LEVEL_SNAP
    frac = (level - w[:, 0]) / (w[:, 1] - w[:, 0])
    pts = (1.0 - frac)[:, None] * mesh.vertices[e[:, 0]] + frac[:, None] * mesh.vertices[e[:, 1]]
    end_edges = None if closed else (tuple(e[0]), tuple(e[-1]))
    return edges[0], {"points": pts, "closed": closed, "end_edges": end_edges, "tri_ids": np.array(tris)}


def _level_path(mesh: TriMesh2D, values, level: float, tid: int):
    """The :func:`level_set_components` component through triangle ``tid``, or None."""
    path = _trace(mesh, values, level, tid)
    return None if path is None else path[1]


def level_set_components(mesh: TriMesh2D, values: np.ndarray, level: float):
    """Marching-triangles level set, chained into maximal components.

    Returns a list of dicts with keys:

    - ``points``: (m, 2) ordered coordinates,
    - ``closed``: True for loops,
    - ``end_edges``: for open paths, the two boundary mesh edges (u, v)
      the endpoints lie on (None for loops),
    - ``tri_ids``: triangle index per segment.

    Open paths come before loops, each in the order of their first edge.
    Vertex values within 1e-12 of the level are nudged by +1e-12 so no
    crossing is degenerate.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_vertices,):
        raise ValueError("values must be per-vertex")
    count = (v - level > _above_cut(level))[mesh.triangles].sum(axis=1)
    vals, seen = v.tolist(), np.zeros(mesh.n_triangles, dtype=bool)
    paths = []
    for tid in np.flatnonzero((count == 1) | (count == 2)):
        if not seen[tid]:
            start, comp = _trace(mesh, vals, level, int(tid))
            seen[comp["tri_ids"]] = True
            paths.append((comp["closed"], start, comp))
    return [comp for *_, comp in sorted(paths, key=lambda p: p[:2])]


def extract_level_set(mesh: TriMesh2D, values: np.ndarray, level: float):
    """Level-set polylines of a vertex field at ``level``.

    Segments are chained into maximal polylines; open paths end on the mesh
    boundary, others close into loops. Values outside the field range give
    an empty list.
    """
    return [
        Polyline(c["points"], closed=c["closed"])
        for c in level_set_components(mesh, values, level)
        if len(c["points"]) >= (3 if c["closed"] else 2)
    ]
