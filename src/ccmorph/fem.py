"""Linear (P1) finite elements on planar triangle meshes.

Implements the cotangent stiffness matrix, Dirichlet and anchored Poisson
solves, exact piecewise-linear gradients, the discrete divergence adjoint
to the stiffness discretization (so that divergence(gradient(f)) == W @ f),
and level-set extraction by marching triangles.

Scalar fields are plain per-vertex float arrays; triangle vector fields are
(T, 2) arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .contour import Polyline
from .mesh import TriMesh2D

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
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(np.asarray(values, dtype=float))]
    return "\n".join(lines) + "\n"

_LEVEL_SNAP = 1e-12


def _shape_gradients(mesh: TriMesh2D):
    """Per-triangle gradients of the three hat functions, (T, 3, 2), and areas."""
    a, b, c = mesh.corners()
    e1 = b - a
    e2 = c - a
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    bad = np.nonzero(areas <= 0)[0]
    if bad.size:
        raise ValueError(f"degenerate triangle {int(bad[0])} (non-positive area)")
    g = np.empty((mesh.n_triangles, 3, 2))
    # grad phi_i = rot90(p_k - p_j) / (2 A), (i, j, k) cyclic
    for i, (pj, pk) in enumerate(((b, c), (c, a), (a, b))):
        e = pk - pj
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * areas)[:, None, None]
    return g, areas


def stiffness_matrix(mesh: TriMesh2D) -> sparse.csr_matrix:
    """Cotangent-weight stiffness matrix W (positive semi-definite).

    Off-diagonal entries are -(cot a_ij + cot b_ij)/2 for edge ij; the
    diagonal is minus the sum of the off-diagonals, so rows sum to zero.
    """
    g, areas = _shape_gradients(mesh)
    t = mesh.triangles
    n = mesh.n_vertices
    rows = []
    cols = []
    vals = []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append(areas * (g[:, i, :] * g[:, j, :]).sum(axis=1))
    W = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    W.sum_duplicates()
    return W


def solve_dirichlet(mesh: TriMesh2D, fixed, matrix: sparse.csr_matrix | None = None) -> np.ndarray:
    """Minimize the Dirichlet energy subject to fixed vertex values.

    ``fixed`` is a sequence of (vertex_index, value) pairs. The reduced
    system is solved with a direct sparse factorization; the maximum
    principle holds on Delaunay meshes, so interior values stay inside
    [min fixed, max fixed].
    """
    fixed = list(fixed)
    if not fixed:
        raise ValueError("need at least one fixed vertex")
    W = stiffness_matrix(mesh) if matrix is None else matrix
    return _solve_reduced(W, np.zeros(mesh.n_vertices), fixed)


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
    g, _ = _shape_gradients(mesh)
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
    g, areas = _shape_gradients(mesh)
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


def interpolate(mesh: TriMesh2D, values: np.ndarray, points: np.ndarray, locator=None) -> np.ndarray:
    """Barycentric interpolation of a vertex field at arbitrary points."""
    values = np.asarray(values, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    loc = locator if locator is not None else TriangleLocator(mesh)
    out = np.empty(len(pts))
    for k, p in enumerate(pts):
        tid, bary = loc.locate(p)
        out[k] = float(values[mesh.triangles[tid]] @ bary)
    return out


class TriangleLocator:
    """Uniform-grid point locator over a triangle mesh."""

    def __init__(self, mesh: TriMesh2D, cells: int = 64):
        self.mesh = mesh
        v = mesh.vertices
        self.lo = v.min(axis=0)
        hi = v.max(axis=0)
        span = np.maximum(hi - self.lo, 1e-12)
        self.n = max(4, min(cells, int(np.sqrt(mesh.n_triangles)) + 1))
        self.h = span / self.n
        a, b, c = mesh.corners()
        tlo = np.minimum(np.minimum(a, b), c)
        thi = np.maximum(np.maximum(a, b), c)
        ilo = np.clip(((tlo - self.lo) / self.h).astype(int), 0, self.n - 1)
        ihi = np.clip(((thi - self.lo) / self.h).astype(int), 0, self.n - 1)
        self.bins = {}
        for t in range(mesh.n_triangles):
            for i in range(ilo[t, 0], ihi[t, 0] + 1):
                for j in range(ilo[t, 1], ihi[t, 1] + 1):
                    self.bins.setdefault((i, j), []).append(t)

    def locate(self, p):
        """(triangle id, barycentric coords) for the triangle containing p.

        Falls back to the nearest triangle (clamped barycentrics) when p is
        marginally outside the mesh.
        """
        i = int(np.clip((p[0] - self.lo[0]) / self.h[0], 0, self.n - 1))
        j = int(np.clip((p[1] - self.lo[1]) / self.h[1], 0, self.n - 1))
        v = self.mesh.vertices
        t = self.mesh.triangles
        best = None
        for di in (0, -1, 1):
            for dj in (0, -1, 1):
                for tid in self.bins.get((i + di, j + dj), ()):
                    bary = _barycentric(v[t[tid]], p)
                    m = bary.min()
                    if m >= -1e-12:
                        return tid, np.clip(bary, 0.0, 1.0)
                    if best is None or m > best[1]:
                        best = (tid, m, bary)
        if best is None:
            # point far outside any bin; brute-force nearest centroid
            cent = self.mesh.centroids()
            tid = int(np.argmin(((cent - p) ** 2).sum(axis=1)))
            bary = _barycentric(v[t[tid]], p)
            return tid, np.clip(bary, 0.0, None) / max(np.clip(bary, 0.0, None).sum(), 1e-30)
        tid, _, bary = best
        bary = np.clip(bary, 0.0, None)
        return tid, bary / max(bary.sum(), 1e-30)


def _barycentric(tri, p):
    a, b, c = tri
    m = np.column_stack([b - a, c - a])
    try:
        uv = np.linalg.solve(m, np.asarray(p, dtype=float) - a)
    except np.linalg.LinAlgError:
        return np.array([-1.0, -1.0, -1.0])
    return np.array([1.0 - uv[0] - uv[1], uv[0], uv[1]])


def level_set_components(mesh: TriMesh2D, values: np.ndarray, level: float):
    """Marching-triangles level set, chained into maximal components.

    Returns a list of dicts with keys:

    - ``points``: (m, 2) ordered coordinates,
    - ``closed``: True for loops,
    - ``end_edges``: for open paths, the two boundary mesh edges (u, v)
      the endpoints lie on (None for loops),
    - ``tri_ids``: triangle index per segment.

    Vertex values within 1e-12 of the level are nudged by +1e-12 so no
    crossing is degenerate.
    """
    v = np.asarray(values, dtype=float).copy()
    if v.shape != (mesh.n_vertices,):
        raise ValueError("values must be per-vertex")
    snap = np.abs(v - level) < _LEVEL_SNAP
    v[snap] = level + _LEVEL_SNAP

    t = mesh.triangles
    above = v[t] > level
    count = above.sum(axis=1)
    crossed = np.nonzero((count == 1) | (count == 2))[0]
    if crossed.size == 0:
        return []

    tc = t[crossed]
    ab = above[crossed]
    # orient so exactly one vertex is on the "single" side
    flip = ab.sum(axis=1) == 2
    ab[flip] = ~ab[flip]
    idx_single = np.argmax(ab, axis=1)
    i0 = tc[np.arange(len(tc)), idx_single]
    i1 = tc[np.arange(len(tc)), (idx_single + 1) % 3]
    i2 = tc[np.arange(len(tc)), (idx_single + 2) % 3]

    e1 = np.sort(np.column_stack([i0, i1]), axis=1)
    e2 = np.sort(np.column_stack([i0, i2]), axis=1)
    edges = np.vstack([e1, e2])
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    frac = (level - v[uniq[:, 0]]) / (v[uniq[:, 1]] - v[uniq[:, 0]])
    pts = (1.0 - frac)[:, None] * mesh.vertices[uniq[:, 0]] + frac[:, None] * mesh.vertices[uniq[:, 1]]

    m = len(tc)
    seg_a = inv[:m]
    seg_b = inv[m:]

    adj = {}
    for k in range(m):
        a_, b_ = int(seg_a[k]), int(seg_b[k])
        adj.setdefault(a_, []).append((b_, int(crossed[k])))
        adj.setdefault(b_, []).append((a_, int(crossed[k])))

    visited_seg = set()
    comps = []

    def walk(start):
        path = [start]
        tris = []
        cur = start
        while True:
            nxt = None
            for nb, tid in adj[cur]:
                if (min(cur, nb), max(cur, nb), tid) in visited_seg:
                    continue
                nxt = (nb, tid)
                break
            if nxt is None:
                return path, tris, False
            nb, tid = nxt
            visited_seg.add((min(cur, nb), max(cur, nb), tid))
            path.append(nb)
            tris.append(tid)
            cur = nb
            if cur == start:
                return path[:-1], tris, True

    # consume open paths from their degree-1 ends first, then loops
    order = sorted(adj, key=lambda n: (len(adj[n]) != 1, n))
    for start in order:
        remaining = any(
            (min(start, nb), max(start, nb), tid) not in visited_seg
            for nb, tid in adj[start]
        )
        if not remaining:
            continue
        path, tris, closed = walk(start)
        if len(path) < 2:
            continue
        end_edges = None
        if not closed:
            end_edges = (tuple(uniq[path[0]]), tuple(uniq[path[-1]]))
        comps.append(
            {
                "points": pts[path],
                "closed": closed,
                "end_edges": end_edges,
                "tri_ids": np.array(tris, dtype=np.int64),
            }
        )
    return comps


def extract_level_set(mesh: TriMesh2D, values: np.ndarray, level: float):
    """Level-set polylines of a vertex field at ``level``.

    Segments are chained into maximal polylines; open paths end on the mesh
    boundary, others close into loops. Values outside the field range give
    an empty list.
    """
    comps = level_set_components(mesh, values, level)
    out = []
    for c in comps:
        if len(c["points"]) < (3 if c["closed"] else 2):
            continue
        out.append(Polyline(c["points"], closed=c["closed"]))
    return out
