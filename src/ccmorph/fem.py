"""Linear (P1) finite elements on planar triangle meshes.

Implements the cotangent stiffness matrix, Dirichlet and anchored Poisson
solves, exact piecewise-linear gradients, the discrete divergence adjoint
to the stiffness discretization (so that divergence(gradient(f)) == W @ f),
and level-set extraction by marching triangles. The level sets of many
levels come from one pass of array operations and one csgraph depth-first
order, which serves both the midline's zero level set and the thickness
profile's level paths.

Scalar fields are plain per-vertex float arrays; triangle vector fields are
(T, 2) arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import depth_first_order
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .contour import Polyline
from .mesh import TriMesh2D
from .triangulate import _ball_pairs

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
    [min fixed, max fixed]. A mesh part with no fixed vertex raises
    ValueError.
    """
    fixed = list(fixed)
    if not fixed:
        raise ValueError("need at least one fixed vertex")
    return _solve_reduced(mesh, np.zeros(mesh.n_vertices), fixed)


def _solve_reduced(mesh: TriMesh2D, h: np.ndarray, fixed) -> np.ndarray:
    """Solve (W @ u)[free] = h[free] for u, holding the (vertex, value) pairs.

    The reduced right-hand side is h[free] - W[free][:, fixed] @ u[fixed].
    A mesh part with no fixed vertex leaves the reduced system singular and
    raises ValueError before any factoring. The free vertices take the
    mesh's one reverse Cuthill-McKee order, and SuperLU factors the reduced
    matrix, symmetric positive definite, in that order without pivoting.
    """
    W = stiffness_matrix(mesh)
    perm, part = mesh._solve_order
    vals = np.zeros(len(h))
    is_fixed = np.zeros(len(h), dtype=bool)
    for v, val in fixed:
        is_fixed[v] = True
        vals[v] = val
    loose = np.setdiff1d(part, part[is_fixed])
    if loose.size:
        v = int(np.flatnonzero(part == loose[0])[0])
        raise ValueError(f"singular reduced system: the mesh part of vertex {v} has no fixed vertex")
    free = perm[~is_fixed[perm]]
    if free.size == 0:
        return vals
    W_free = W[free]
    rhs = h[free] - W_free[:, is_fixed] @ vals[is_fixed]
    try:
        lu = splu(W_free[:, free].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0, options={"SymmetricMode": True})
        sol = lu.solve(rhs)
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
    return _solve_reduced(mesh, h, [anchor])


def interpolate(mesh: TriMesh2D, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of a vertex field at arbitrary points."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("values must be per-vertex")
    tids, barys = _locate_all(mesh, points)
    # the stacked product gives each point the bits of values[t[tid]] @ bary
    return np.matmul(values[mesh.triangles[tids]][:, None, :], barys[:, :, None])[:, 0, 0]


def _locate_all(mesh: TriMesh2D, points):
    """Triangle ids (n,) and barycentric coords (n, 3) of the triangle holding each point.

    A triangle holds p when its smallest solved coordinate is >= -1e-12;
    the lowest id wins, and its coordinates are clipped to [0, 1]. One
    cKDTree ball query over the triangle centroids gives each point's
    candidates: a triangle holding p has p no farther from its centroid
    than its farthest corner, so the largest centroid-to-corner distance,
    widened past rounding, is the radius. A point no triangle holds gets
    the triangle whose smallest coordinate is largest over the whole mesh,
    with its coordinates clipped at 0 and normalized.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    corners = np.take(mesh.vertices, mesh.triangles, axis=0)
    cent = corners.mean(axis=1)
    radius = float(np.sqrt(((corners - cent[:, None, :]) ** 2).sum(axis=2).max()))
    tj, pi = _ball_pairs(cKDTree(cent), pts, radius)
    bary = _barycentrics(corners[tj], pts[pi])
    held = bary.min(axis=1) >= -1e-12
    # pairs run by point, then by triangle id, so a point's first held pair is its lowest id
    first, k = np.unique(pi[held], return_index=True)
    tids, barys = np.full(len(pts), -1, dtype=np.int64), np.empty((len(pts), 3))
    tids[first], barys[first] = tj[held][k], np.clip(bary[held][k], 0.0, 1.0)
    miss = np.flatnonzero(tids < 0)
    lowest = [_barycentrics(corners, np.broadcast_to(pts[i], cent.shape)).min(axis=1) for i in miss.tolist()]
    far = np.array([low.argmax() for low in lowest], dtype=np.int64)
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


def _snapped(x: np.ndarray, level: np.ndarray) -> np.ndarray:
    """``x`` with each value within _LEVEL_SNAP of its level moved to level + _LEVEL_SNAP.

    A value lies above its level when its snapped value is greater. At a
    large level rounding can absorb the nudge, and a value snapped onto the
    level lies below it.
    """
    return np.where(np.abs(x - level) < _LEVEL_SNAP, level + _LEVEL_SNAP, x)


class _LevelSets(NamedTuple):
    """Every level-set component of a vertex field at some levels, from :func:`_level_sets`.

    Component c holds positions ``starts[c]`` to ``starts[c + 1]``: ``points``
    are its ordered crossings, ``edges`` the sorted mesh edges they lie on,
    and ``tris[i]`` the triangle between positions i and i + 1 (for a loop's
    last position, the one back to its first).
    """

    levels: np.ndarray  # sorted unique levels
    points: np.ndarray
    edges: np.ndarray
    tris: np.ndarray
    starts: np.ndarray
    closed: np.ndarray
    seg_keys: np.ndarray  # level index * T + triangle of every crossed (level, triangle), sorted
    seg_comps: np.ndarray  # the component each one lies on
    n_triangles: int

    def component(self, c: int) -> dict:
        """Component ``c`` as a :func:`level_set_components` dict."""
        a, b = int(self.starts[c]), int(self.starts[c + 1])
        closed = bool(self.closed[c])
        e = self.edges[a:b]
        return {
            "points": self.points[a:b],
            "closed": closed,
            "end_edges": None if closed else (tuple(e[0]), tuple(e[-1])),
            "tri_ids": self.tris[a : b if closed else b - 1],
        }

    def find(self, levels, tids) -> np.ndarray:
        """The component through triangle ``tids[k]`` at ``levels[k]``, -1 where that triangle is not crossed.

        Each level must be one of ``self.levels``.
        """
        key = np.searchsorted(self.levels, levels) * self.n_triangles + np.asarray(tids, dtype=np.int64)
        if not len(self.seg_keys):
            return np.full(key.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.seg_keys, key), len(self.seg_keys) - 1)
        return np.where(self.seg_keys[at] == key, self.seg_comps[at], -1)


def _level_sets(mesh: TriMesh2D, values: np.ndarray, levels) -> _LevelSets:
    """All level-set components of ``values`` at every one of ``levels``, in one pass.

    A triangle is crossed at a level when its vertices, snapped as in
    :func:`level_set_components`, lie on both sides; only levels within
    2e-12 of its value range can cross it, so one ``searchsorted`` of each
    triangle's lowest and highest value shortlists them. Each crossed
    (level, triangle) is a segment joining its two crossed (level, edge)
    nodes, and one depth-first order of that graph orders every component:
    a virtual root visits the path ends, then the other nodes, each in
    (level, edge) order, and each node's row lists its segments by
    triangle. So an open path runs from its smaller end edge, and a loop
    from its smallest edge through the lower-numbered of that edge's
    triangles. Open paths come before loops, each in (level, first edge)
    order.
    """
    v = np.asarray(values, dtype=float)
    t = mesh.triangles
    n_v, n_t = len(v), len(t)
    lv = np.unique(np.asarray(levels, dtype=float))
    tv = v[t]
    # rounding is monotone, so a level that crosses a triangle lies in [lo - 2e-12, hi + 2e-12]
    j0 = np.searchsorted(lv, tv.min(axis=1) - 2 * _LEVEL_SNAP, "left")
    n = np.searchsorted(lv, tv.max(axis=1) + 2 * _LEVEL_SNAP, "right") - j0
    tri = np.repeat(np.arange(n_t), n)
    lvl = np.arange(len(tri)) - np.repeat(np.cumsum(n) - n - j0, n)
    up = _snapped(tv[tri], lv[lvl, None]) > lv[lvl, None]
    count = up.sum(axis=1)
    keep = np.flatnonzero((count == 1) | (count == 2))
    seg_keys = lvl[keep] * n_t + tri[keep]
    order = np.argsort(seg_keys, kind="stable")
    seg_keys, keep = seg_keys[order], keep[order]
    tri, lvl, up = tri[keep], lvl[keep], up[keep]

    # the two crossed edges k -> k + 1 of each segment, as (level, sorted edge) node keys
    k = np.nonzero(up != np.roll(up, -1, axis=1))[1].reshape(-1, 2)
    p, q = t[tri[:, None], k], t[tri[:, None], (k + 1) % 3]
    edge = np.minimum(p, q) * n_v + np.maximum(p, q)
    node_keys, node, deg = np.unique(lvl[:, None] * (n_v * n_v) + edge, return_inverse=True, return_counts=True)
    node = node.reshape(-1, 2)
    n_nodes = len(node_keys)
    if n_nodes and deg.max() > 2:
        raise ValueError("mesh edge shared by more than two triangles")
    # each node's row lists its segments by triangle, then the root's row its children
    half = np.lexsort((np.repeat(tri, 2), node.ravel()))
    nbr, via = node[:, ::-1].ravel()[half], np.repeat(tri, 2)[half]
    roots = np.concatenate([np.flatnonzero(deg == 1), np.flatnonzero(deg == 2)])
    indptr = np.concatenate([[0], np.cumsum(deg), [len(half) + len(roots)]])
    graph = sparse.csr_matrix(
        (np.ones(len(half) + len(roots)), np.concatenate([nbr, roots]), indptr), shape=(n_nodes + 1,) * 2
    )
    walk, pred = depth_first_order(graph, n_nodes, directed=True, return_predecessors=True)
    walk = walk[1:]
    first = indptr[walk]
    begins = pred[walk] == n_nodes
    # the triangle each node is entered by; a component's start takes its loop's closing triangle
    entered = np.where(nbr[first] == pred[walk], via[first], via[np.minimum(first + 1, len(half) - 1)])
    starts = np.append(np.flatnonzero(begins), n_nodes)
    closed = deg[walk[starts[:-1]]] == 2
    tris = np.append(entered[1:], -1)
    tris[starts[1:] - 1] = np.where(closed, entered[starts[:-1]], -1)

    level = lv[node_keys[walk] // (n_v * n_v)]
    e = node_keys[walk] % (n_v * n_v)
    edges = np.column_stack([e // n_v, e % n_v])
    w = _snapped(v[edges], level[:, None])
    frac = (level - w[:, 0]) / (w[:, 1] - w[:, 0])
    points = (1.0 - frac)[:, None] * mesh.vertices[edges[:, 0]] + frac[:, None] * mesh.vertices[edges[:, 1]]
    at = np.empty(n_nodes, dtype=np.int64)
    at[walk] = np.arange(n_nodes)
    comp_of = np.cumsum(begins) - 1
    return _LevelSets(lv, points, edges, tris, starts, closed, seg_keys, comp_of[at[node[:, 0]]], n_t)


def level_set_components(mesh: TriMesh2D, values: np.ndarray, level: float):
    """Marching-triangles level set, chained into maximal components.

    Returns a list of dicts with keys:

    - ``points``: (m, 2) ordered coordinates,
    - ``closed``: True for loops,
    - ``end_edges``: for open paths, the two boundary mesh edges (u, v)
      the endpoints lie on (None for loops),
    - ``tri_ids``: triangle index per segment.

    Open paths come before loops, each in the order of their first edge;
    an open path runs from its smaller end edge, a loop from its smallest
    edge through the lower-numbered of that edge's two triangles. Vertex
    values within 1e-12 of the level are nudged by +1e-12 so no crossing
    is degenerate.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (mesh.n_vertices,):
        raise ValueError("values must be per-vertex")
    sets = _level_sets(mesh, v, [level])
    return [sets.component(c) for c in range(len(sets.closed))]


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
