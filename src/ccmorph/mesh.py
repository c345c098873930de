"""Planar triangle meshes: validation, areas, boundary loops, P1 operators, OFF export."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, depth_first_order, reverse_cuthill_mckee

__all__ = ["TriMesh2D"]


@dataclass(frozen=True)
class TriMesh2D:
    """A planar triangle mesh.

    vertices : (V, 2) float mm coordinates
    triangles : (T, 3) int vertex indices, counter-clockwise
    boundary_flags : (V,) bool, True for vertices on the mesh boundary
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be (V, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        b = np.asarray(self.boundary_flags, dtype=bool).reshape(len(v))
        v, t, b = v.view(), t.view(), b.view()
        for arr in (v, t, b):
            arr.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary_flags", b)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def corners(self) -> tuple:
        """Vertex coordinate arrays (a, b, c) per triangle, each (T, 2)."""
        c = np.take(self.vertices, self.triangles, axis=0)  # (T, 3, 2) in one gather
        return c[:, 0], c[:, 1], c[:, 2]

    def signed_areas(self) -> np.ndarray:
        a, b, c = self.corners()
        e1 = b - a
        e2 = c - a
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def area(self) -> float:
        return float(self.signed_areas().sum())

    def centroids(self) -> np.ndarray:
        a, b, c = self.corners()
        return (a + b + c) / 3.0

    def angles(self) -> np.ndarray:
        """Interior angles per triangle in radians, shape (T, 3)."""
        a, b, c = self.corners()
        out = np.empty((self.n_triangles, 3))
        for k, (p, q, r) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
            u = q - p
            w = r - p
            cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
            out[:, k] = np.arctan2(np.abs(cross), (u * w).sum(axis=1))
        return out

    def _directed_edges(self) -> tuple:
        """All 3T directed edges (u, v) and their undirected keys min * V + max."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        return e, e.min(axis=1) * self.n_vertices + e.max(axis=1)

    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape (E, 2), sorted pairs."""
        key = np.unique(self._directed_edges()[1])
        return np.column_stack(np.divmod(key, self.n_vertices))

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        """Read-only (T, 3) adjacency: entry k is the triangle across edge k -> k+1, or -1.

        Built on first use by pairing equal edge keys; an edge of more than
        two triangles raises ValueError.
        """
        n = self.n_triangles
        key = self._directed_edges()[1]  # directed edge j is edge j // n of triangle j % n
        order = np.argsort(key)
        same = key[order[1:]] == key[order[:-1]]
        if np.any(same[1:] & same[:-1]):
            raise ValueError("mesh edge shared by more than two triangles")
        a, b = order[:-1][same], order[1:][same]
        flat = np.full(3 * n, -1, dtype=np.int64)
        flat[a], flat[b] = b % n, a % n
        nb = np.ascontiguousarray(flat.reshape(3, n).T)
        nb.flags.writeable = False
        return nb

    @functools.cached_property
    def _hat_gradients(self) -> tuple:
        """Read-only P1 hat-function gradients (T, 3, 2) and areas (T,); a degenerate triangle raises on every use."""
        a, b, c = self.corners()
        areas = self.signed_areas()
        bad = np.nonzero(areas <= 0)[0]
        if bad.size:
            raise ValueError(f"degenerate triangle {int(bad[0])} (non-positive area)")
        # grad phi_i = rot90(p_k - p_j) / (2 A), (i, j, k) cyclic
        e = np.stack([c - b, a - c, b - a], axis=1)
        g = np.stack([-e[..., 1], e[..., 0]], axis=2) / (2.0 * areas)[:, None, None]
        g.flags.writeable = areas.flags.writeable = False
        return g, areas

    @functools.cached_property
    def _stiffness(self) -> sparse.csr_matrix:
        """Read-only cotangent stiffness matrix, assembled from ``_hat_gradients`` on first use."""
        g, areas = self._hat_gradients
        gi, t = g.transpose(1, 0, 2), self.triangles.T
        # entry (i, j, tri) is area * grad phi_i . grad phi_j, in the order duplicates are summed
        vals = areas * (gi[:, None] * gi[None]).sum(axis=3)
        rows, cols = np.broadcast_to(t[:, None], vals.shape), np.broadcast_to(t[None], vals.shape)
        W = sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(self.n_vertices,) * 2)
        W.sum_duplicates()
        W.data.flags.writeable = W.indices.flags.writeable = W.indptr.flags.writeable = False
        return W

    @functools.cached_property
    def _solve_order(self) -> tuple:
        """Reverse Cuthill-McKee order of ``_stiffness``'s graph and each vertex's connected part, on first use.

        A vertex in no triangle has an empty row, so it is a part of its own.
        """
        W = self._stiffness
        perm = reverse_cuthill_mckee(W, symmetric_mode=True).astype(np.int64)
        part = connected_components(W, directed=False)[1]
        perm.flags.writeable = part.flags.writeable = False
        return perm, part

    def boundary_edges(self) -> np.ndarray:
        """Directed boundary edges (u, v) with the interior to the left."""
        return self._directed_edges()[0][self.neighbors.T.ravel() == -1]

    def boundary_loop(self) -> np.ndarray:
        """The ordered boundary vertex loop (single loop required), walked by one depth-first order."""
        u, v = self.boundary_edges().T
        if len(np.unique(u)) != len(u):
            raise ValueError("mesh boundary is not a single simple loop")
        nxt = np.full(self.n_vertices, -1, dtype=np.int64)
        nxt[u] = v
        walk = sparse.csr_matrix((np.ones(len(u)), (u, v)), shape=(self.n_vertices,) * 2)
        loop = depth_first_order(walk, u[0], directed=True, return_predecessors=False).astype(np.int64)
        if nxt[loop[-1]] != loop[0]:  # the walk ran into a dead end or a loop that misses its start
            raise ValueError("mesh boundary is not a single simple loop")
        if len(loop) != len(u):
            raise ValueError("mesh has more than one boundary loop")
        return loop

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges()) + self.n_triangles

    def to_off(self) -> str:
        lines = ["OFF", f"{self.n_vertices} {self.n_triangles} 0"]
        lines += [f"{x!r} {y!r} 0.0" for x, y in self.vertices.tolist()]
        lines += [f"3 {a} {b} {c}" for a, b, c in self.triangles.tolist()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_off(cls, text: str) -> "TriMesh2D":
        tok = text.split()
        if tok[0] != "OFF":
            raise ValueError("not an OFF file")
        nv, nt = int(tok[1]), int(tok[2])
        pos = 4
        verts = np.array(tok[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)[:, :2]
        pos += 3 * nv
        tris = []
        for _ in range(nt):
            k = int(tok[pos])
            tris.append([int(x) for x in tok[pos + 1 : pos + 1 + k]])
            pos += 1 + k
        tris = np.array(tris, dtype=np.int64)
        mesh = cls(verts, tris, np.zeros(nv, dtype=bool))
        flags = np.zeros(nv, dtype=bool)
        flags[np.unique(mesh.boundary_edges())] = True
        return cls(verts, tris, flags)
