import functools
import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from ccmorph import fem
from ccmorph import morphometry as mo
from ccmorph.contour import polyline_length
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import half_annulus_contour, half_annulus_landmarks, rectangle_grid_mesh
from ccmorph.triangulate import triangulate


@pytest.fixture(scope="module")
def unit_square_two_tris():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    flags = np.ones(4, dtype=bool)
    return TriMesh2D(verts, tris, flags)


class TestStiffness:
    def test_hand_computed_square(self, unit_square_two_tris):
        # two right triangles: boundary edges carry cot(45)/2 = 1/2, the
        # diagonal cot(90) = 0 on both sides
        W = fem.stiffness_matrix(unit_square_two_tris).toarray()
        expected = np.array(
            [
                [1.0, -0.5, 0.0, -0.5],
                [-0.5, 1.0, -0.5, 0.0],
                [0.0, -0.5, 1.0, -0.5],
                [-0.5, 0.0, -0.5, 1.0],
            ]
        )
        np.testing.assert_allclose(W, expected, atol=1e-12)

    def test_constant_nullspace(self, square_mesh):
        W = fem.stiffness_matrix(square_mesh)
        assert np.abs(W @ np.ones(square_mesh.n_vertices)).max() < 1e-9

    def test_symmetric_zero_rowsum(self, annulus_case):
        W = fem.stiffness_matrix(annulus_case["mesh"])
        assert abs(W - W.T).max() < 1e-12
        assert np.abs(np.asarray(W.sum(axis=1)).ravel()).max() < 1e-9

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        mesh = TriMesh2D(verts, np.array([[0, 1, 2]]), np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="degenerate triangle 0"):
            fem.stiffness_matrix(mesh)


def _count_builds(monkeypatch, name):
    """The meshes the ``TriMesh2D`` cached property ``name`` gets built for while the test runs."""
    prop, built = TriMesh2D.__dict__[name], []
    assert isinstance(prop, functools.cached_property)  # stored on the mesh once built

    def build(mesh):
        built.append(mesh)
        return prop.func(mesh)

    counted = functools.cached_property(build)
    counted.__set_name__(TriMesh2D, name)
    monkeypatch.setattr(TriMesh2D, name, counted)
    return built


class TestOneAssemblyPerMesh:
    def test_thickness_case_builds_each_operator_once(self, rect_case, monkeypatch):
        names = ("_hat_gradients", "_stiffness", "_solve_order")
        built = {name: _count_builds(monkeypatch, name) for name in names}
        m = rect_case["mesh"]
        mesh = TriMesh2D(m.vertices, m.triangles, m.boundary_flags)  # a new mesh: nothing built yet
        line, f = mo.intercallosal_line(mesh, rect_case["lm"], 100)
        profile = mo.thickness_profile(mesh, f, line, 100)
        # two solves, the gradient and the divergence all read one copy; both solves one ordering
        assert {name: len(meshes) for name, meshes in built.items()} == dict.fromkeys(names, 1)
        assert profile.valid.sum() > 90

    def test_stored_operators_are_read_only(self, unit_square_two_tris):
        mesh = unit_square_two_tris
        W = fem.stiffness_matrix(mesh)
        assert fem.stiffness_matrix(mesh) is W
        g, areas = mesh._hat_gradients
        for arr in (g, areas, W.data, W.indices, W.indptr, *mesh._solve_order):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            W[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            areas[0] = 1.0

    def test_degenerate_mesh_raises_on_every_call(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        mesh = TriMesh2D(verts, np.array([[0, 1, 3], [1, 2, 1]]), np.ones(4, dtype=bool))
        for _ in range(2):
            with pytest.raises(ValueError, match="degenerate triangle 1"):
                fem.stiffness_matrix(mesh)
            with pytest.raises(ValueError, match="degenerate triangle 1"):
                fem.gradient(mesh, np.zeros(4))
        assert not {"_hat_gradients", "_stiffness"} & set(vars(mesh))  # nothing stored


class TestDirichlet:
    def test_linear_solution_exact(self, square_mesh):
        V = square_mesh.vertices
        fixed = [(int(i), -1.0) for i in np.nonzero(np.abs(V[:, 0]) < 1e-12)[0]]
        fixed += [(int(i), 1.0) for i in np.nonzero(np.abs(V[:, 0] - 1) < 1e-12)[0]]
        f = fem.solve_dirichlet(square_mesh, fixed)
        assert np.abs(f - (2 * V[:, 0] - 1)).max() < 1e-9

    def test_constant_boundary(self, square_mesh):
        fixed = [(int(i), 7.0) for i in np.nonzero(square_mesh.boundary_flags)[0]]
        f = fem.solve_dirichlet(square_mesh, fixed)
        assert np.abs(f - 7.0).max() < 1e-10

    def test_half_annulus_radial(self, annulus_case):
        mesh = annulus_case["mesh"]
        r = np.linalg.norm(mesh.vertices, axis=1)
        fixed = [(int(i), -1.0) for i in np.nonzero(np.abs(r - 2) < 1e-9)[0]]
        fixed += [(int(i), 1.0) for i in np.nonzero(np.abs(r - 4) < 1e-9)[0]]
        f = fem.solve_dirichlet(mesh, fixed)
        analytic = 2 * np.log(r / 2) / np.log(2) - 1
        free = np.ones(mesh.n_vertices, dtype=bool)
        for i, _ in fixed:
            free[i] = False
        assert np.abs(f - analytic)[free].max() < 2e-3

    def test_maximum_principle(self, annulus_case):
        mesh = annulus_case["mesh"]
        rng = np.random.default_rng(0)
        bidx = np.nonzero(mesh.boundary_flags)[0]
        vals = rng.uniform(-3.0, 5.0, size=len(bidx))
        f = fem.solve_dirichlet(mesh, list(zip(map(int, bidx), vals)))
        assert f.min() >= vals.min() - 1e-9
        assert f.max() <= vals.max() + 1e-9

    def test_needs_fixed_vertex(self, square_mesh):
        with pytest.raises(ValueError):
            fem.solve_dirichlet(square_mesh, [])


class TestGradientRotateDivergence:
    def test_linear_gradients(self, square_mesh):
        V = square_mesh.vertices
        g = fem.gradient(square_mesh, 2 * V[:, 0])
        np.testing.assert_allclose(g, np.tile([2.0, 0.0], (square_mesh.n_triangles, 1)), atol=1e-12)
        g2 = fem.gradient(square_mesh, V[:, 0] + 3 * V[:, 1])
        np.testing.assert_allclose(g2, np.tile([1.0, 3.0], (square_mesh.n_triangles, 1)), atol=1e-12)
        g3 = fem.gradient(square_mesh, np.full(square_mesh.n_vertices, 4.2))
        np.testing.assert_allclose(g3, 0.0, atol=1e-12)

    def test_rotate90(self):
        v = np.array([[2.0, 0.0], [0.0, 1.0], [3.0, -4.0]])
        r = fem.rotate90(v)
        np.testing.assert_allclose(r[0], [0.0, 2.0])
        out = v
        for _ in range(4):
            out = fem.rotate90(out)
        np.testing.assert_allclose(out, v)
        np.testing.assert_allclose(
            np.linalg.norm(r, axis=1), np.linalg.norm(v, axis=1)
        )

    def test_divergence_consistency(self, annulus_case):
        mesh = annulus_case["mesh"]
        W = fem.stiffness_matrix(mesh)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.normal(size=mesh.n_vertices)
            d = fem.divergence(mesh, fem.gradient(mesh, f))
            assert np.abs(d - W @ f).max() < 1e-10

    def test_divergence_total_zero(self, square_mesh):
        vf = np.tile([1.3, -0.7], (square_mesh.n_triangles, 1))
        d = fem.divergence(square_mesh, vf)
        assert abs(d.sum()) < 1e-9

    def test_rotated_divergence_orthogonal_to_constants(self, square_mesh):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = rng.normal(size=square_mesh.n_vertices)
            h = fem.divergence(square_mesh, fem.rotate90(fem.gradient(square_mesh, f)))
            assert abs(h.sum()) < 1e-9


class TestPoisson:
    def test_inverse_consistency(self, square_mesh):
        rng = np.random.default_rng(3)
        W = fem.stiffness_matrix(square_mesh)
        f = rng.normal(size=square_mesh.n_vertices)
        h = W @ f
        g = fem.solve_poisson(square_mesh, h, (0, float(f[0])))
        assert np.abs(g - f).max() < 1e-8

    def test_harmonic_conjugate_on_square(self, square_mesh):
        V = square_mesh.vertices
        f = V[:, 0].copy()
        h = fem.divergence(square_mesh, fem.rotate90(fem.gradient(square_mesh, f)))
        g = fem.solve_poisson(square_mesh, h, (0, float(V[0, 1])))
        target = V[:, 1] - V[0, 1] + V[0, 1]
        assert np.abs(g - target).max() < 1e-6
        W = fem.stiffness_matrix(square_mesh)
        assert np.abs(W @ g - h).max() < 1e-9

    def test_zero_rhs_constant(self, square_mesh):
        g = fem.solve_poisson(square_mesh, np.zeros(square_mesh.n_vertices), (3, 5.0))
        np.testing.assert_allclose(g, 5.0, atol=1e-10)

    def test_singular_system_raises_value_error(self):
        # two disjoint triangles: the one without the anchor has no fixed value
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
        mesh = TriMesh2D(verts, np.array([[0, 1, 2], [3, 4, 5]]), np.ones(6, dtype=bool))
        with pytest.raises(ValueError, match="singular reduced system"):
            fem.solve_poisson(mesh, np.zeros(6), (0, 0.0))


def _two_parts():
    """Two copies of a half-annulus mesh 100 mm apart: vertices of the second part come after the first's."""
    one = triangulate(half_annulus_contour(), 1.0)
    n = one.n_vertices
    verts = np.vstack([one.vertices, one.vertices + [100.0, 0.0]])
    return TriMesh2D(verts, np.vstack([one.triangles, one.triangles + n]), np.tile(one.boundary_flags, 2)), n


class TestPartWithoutFixedVertex:
    """Every connected part of the mesh needs a fixed vertex; the check runs before any factoring."""

    def test_poisson_zero_mean_rhs(self):
        mesh, _ = _two_parts()
        h = np.random.default_rng(4).standard_normal(mesh.n_vertices)
        with pytest.raises(ValueError, match="singular reduced system: the mesh part of vertex"):
            fem.solve_poisson(mesh, h - h.mean(), (0, 0.0))

    def test_poisson_rhs_consistent_on_each_part(self):
        mesh, _ = _two_parts()
        h = fem.stiffness_matrix(mesh) @ np.random.default_rng(6).standard_normal(mesh.n_vertices)
        with pytest.raises(ValueError, match="singular reduced system"):
            fem.solve_poisson(mesh, h, (0, 0.0))

    def test_dirichlet_with_one_part_fixed(self):
        mesh, n = _two_parts()
        fixed = [(int(v), float(v % 2)) for v in np.flatnonzero(mesh.boundary_flags[:n])]
        with pytest.raises(ValueError, match="singular reduced system"):
            fem.solve_dirichlet(mesh, fixed)
        both = fixed + [(v + n, val) for v, val in fixed]
        u = fem.solve_dirichlet(mesh, both)
        assert np.array_equal(u[:n], u[n:]) or np.abs(u[:n] - u[n:]).max() < 1e-12

    def test_vertex_in_no_triangle_is_a_part(self, unit_square_two_tris):
        m = unit_square_two_tris
        mesh = TriMesh2D(np.vstack([m.vertices, [[5.0, 5.0]]]), m.triangles, np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="the mesh part of vertex 4 has no fixed vertex"):
            fem.solve_dirichlet(mesh, [(0, 0.0), (2, 1.0)])
        u = fem.solve_dirichlet(mesh, [(0, 0.0), (2, 1.0), (4, 7.0)])
        assert u[4] == 7.0 and np.abs(u[[1, 3]] - 0.5).max() < 1e-12


def _colamd_reference(mesh, h, fixed):
    """The reduced solve with SuperLU's default COLAMD order and partial pivoting."""
    W = fem.stiffness_matrix(mesh)
    u = np.zeros(mesh.n_vertices)
    idx = np.array([v for v, _ in fixed])
    u[idx] = [val for _, val in fixed]
    free = np.setdiff1d(np.arange(mesh.n_vertices), idx)
    u[free] = splu(W[free][:, free].tocsc()).solve(h[free] - W[free][:, idx] @ u[idx])
    return u


class TestReverseCuthillMcKeeSolves:
    @pytest.mark.parametrize("name", ["grid", "annulus", "arch"])
    def test_agree_with_colamd_reference(self, trace_meshes, name):
        mesh = trace_meshes[name]
        bnd = np.flatnonzero(mesh.boundary_flags)
        fixed = [(int(v), float(np.sign(mesh.vertices[v, 0] - mesh.vertices[:, 0].mean()))) for v in bnd]
        got = fem.solve_dirichlet(mesh, fixed)
        want = _colamd_reference(mesh, np.zeros(mesh.n_vertices), fixed)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        h = fem.divergence(mesh, fem.rotate90(fem.gradient(mesh, got)))
        got = fem.solve_poisson(mesh, h, (int(bnd[0]), 0.0))
        want = _colamd_reference(mesh, h, [(int(bnd[0]), 0.0)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestLevelSets:
    def test_planar_cut(self, square_mesh):
        V = square_mesh.vertices
        f = 2 * V[:, 0] - 1
        out = fem.extract_level_set(square_mesh, f, 0.0)
        assert len(out) == 1
        line = out[0]
        assert not line.closed
        assert abs(line.length() - 1.0) < 1e-9
        assert np.abs(line.points[:, 0] - 0.5).max() < 1e-12

    def test_value_out_of_range(self, square_mesh):
        V = square_mesh.vertices
        f = 2 * V[:, 0] - 1
        assert fem.extract_level_set(square_mesh, f, 2.0) == []

    def test_closed_loop(self):
        mesh = rectangle_grid_mesh(10.0, 10.0, 0.25)
        V = mesh.vertices
        f = (V[:, 0] - 5.0) ** 2 + (V[:, 1] - 5.0) ** 2
        out = fem.extract_level_set(mesh, f, 4.0)
        assert len(out) == 1
        loop = out[0]
        assert loop.closed
        assert abs(loop.length() - 2 * np.pi * 2.0) / (2 * np.pi * 2.0) < 0.02

    def test_annulus_zero_level_arc(self, annulus_case):
        out = fem.extract_level_set(annulus_case["mesh"], annulus_case["f"], 0.0)
        assert len(out) == 1
        target = np.pi * 2 * np.sqrt(2.0)
        assert abs(out[0].length() - target) / target < 0.02

    def test_paths_do_not_revisit_triangles(self, annulus_case):
        comps = fem.level_set_components(annulus_case["mesh"], annulus_case["f"], 0.2)
        for c in comps:
            tri_ids = c["tri_ids"]
            assert len(np.unique(tri_ids)) == len(tri_ids)

    def test_snapped_vertex_values(self, square_mesh):
        V = square_mesh.vertices
        f = V[:, 0].copy()  # many vertices exactly at 0 on the left edge
        out = fem.extract_level_set(square_mesh, f, 0.0)
        # snapping moves on-level vertices to the positive side; no crash and
        # any extracted geometry stays near x = 0
        for line in out:
            assert np.abs(line.points[:, 0]).max() < 1e-9


class TestInterpolate:
    def test_linear_field(self, square_mesh):
        V = square_mesh.vertices
        f = 3 * V[:, 0] - 2 * V[:, 1] + 0.5
        pts = np.array([[0.3, 0.4], [0.77, 0.12], [0.5, 0.5]])
        got = fem.interpolate(square_mesh, f, pts)
        np.testing.assert_allclose(got, 3 * pts[:, 0] - 2 * pts[:, 1] + 0.5, atol=1e-12)

    def test_rejects_wrong_length(self, square_mesh):
        f = np.zeros(square_mesh.n_vertices + 1)
        for values in (f[:-2], f):  # one short, one long
            with pytest.raises(ValueError, match="values must be per-vertex"):
                fem.interpolate(square_mesh, values, np.array([[0.5, 0.5]]))

    def test_field_csv(self):
        s = fem.field_to_csv(np.array([1.5, 2.0]))
        assert s == "vertex,value\n0,1.5\n1,2.0\n"


def _reference_level_set_components(mesh, values, level):
    """The whole-mesh edge-graph tracer that ``level_set_components`` replaced.

    Kept as the oracle of the adjacency walk: it dedups the crossed edges
    with ``np.unique``, links them into a dict graph and walks it from the
    degree-1 nodes first, then from the loops' smallest edges.
    """
    v = np.asarray(values, dtype=float).copy()
    v[np.abs(v - level) < 1e-12] = level + 1e-12
    t = mesh.triangles
    above = v[t] > level
    count = above.sum(axis=1)
    crossed = np.nonzero((count == 1) | (count == 2))[0]
    if crossed.size == 0:
        return []
    tc = t[crossed]
    ab = above[crossed]
    flip = ab.sum(axis=1) == 2
    ab[flip] = ~ab[flip]
    idx_single = np.argmax(ab, axis=1)
    rows = np.arange(len(tc))
    i0 = tc[rows, idx_single]
    i1 = tc[rows, (idx_single + 1) % 3]
    i2 = tc[rows, (idx_single + 2) % 3]
    e1 = np.sort(np.column_stack([i0, i1]), axis=1)
    e2 = np.sort(np.column_stack([i0, i2]), axis=1)
    uniq, inv = np.unique(np.vstack([e1, e2]), axis=0, return_inverse=True)
    inv = inv.ravel()
    frac = (level - v[uniq[:, 0]]) / (v[uniq[:, 1]] - v[uniq[:, 0]])
    pts = (1.0 - frac)[:, None] * mesh.vertices[uniq[:, 0]] + frac[:, None] * mesh.vertices[uniq[:, 1]]
    m = len(tc)
    adj = {}
    for k in range(m):
        a_, b_ = int(inv[k]), int(inv[m + k])
        adj.setdefault(a_, []).append((b_, int(crossed[k])))
        adj.setdefault(b_, []).append((a_, int(crossed[k])))
    visited = set()
    comps = []

    def walk(start):
        path, tris, cur = [start], [], start
        while True:
            nxt = next(((nb, tid) for nb, tid in adj[cur] if (min(cur, nb), max(cur, nb), tid) not in visited), None)
            if nxt is None:
                return path, tris, False
            nb, tid = nxt
            visited.add((min(cur, nb), max(cur, nb), tid))
            path.append(nb)
            tris.append(tid)
            cur = nb
            if cur == start:
                return path[:-1], tris, True

    for start in sorted(adj, key=lambda n: (len(adj[n]) != 1, n)):
        if all((min(start, nb), max(start, nb), tid) in visited for nb, tid in adj[start]):
            continue
        path, tris, closed = walk(start)
        comps.append(
            {
                "points": pts[path],
                "closed": closed,
                "end_edges": None if closed else (tuple(uniq[path[0]]), tuple(uniq[path[-1]])),
                "tri_ids": np.array(tris, dtype=np.int64),
            }
        )
    return comps


def _reference_trace(mesh, values, level, tid):
    """The per-triangle walk that ``fem._level_sets`` replaced: the component through ``tid``, or None.

    Walks ``mesh.neighbors`` both ways from ``tid``. Edges are sorted vertex
    pairs; an open path runs from its smaller end edge, a loop from its
    smallest edge through the lower-numbered of that edge's two triangles.
    """
    t, nb = mesh.triangles.tolist(), mesh.neighbors.tolist()
    cut = -1e-12 if level + 1e-12 > level else math.nextafter(1e-12, 0.0)

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
    w[np.abs(w - level) < 1e-12] = level + 1e-12
    frac = (level - w[:, 0]) / (w[:, 1] - w[:, 0])
    pts = (1.0 - frac)[:, None] * mesh.vertices[e[:, 0]] + frac[:, None] * mesh.vertices[e[:, 1]]
    end_edges = None if closed else (tuple(e[0]), tuple(e[-1]))
    return {"points": pts, "closed": closed, "end_edges": end_edges, "tri_ids": np.array(tris)}


def _same_component(a, b):
    return (
        np.array_equal(a["points"], b["points"])
        and a["closed"] == b["closed"]
        and a["end_edges"] == b["end_edges"]
        and np.array_equal(a["tri_ids"], b["tri_ids"])
    )


def _paths(mesh, values, levels, tids):
    """``fem._level_sets`` for many (level, triangle) samples in one call: a component dict or None each."""
    sets = fem._level_sets(mesh, values, levels)
    return [None if c < 0 else sets.component(c) for c in sets.find(levels, tids).tolist()]


def _agree(got, want):
    return (got is None) == (want is None) and (got is None or _same_component(got, want))


@pytest.fixture(scope="module")
def trace_meshes():
    return {
        "grid": rectangle_grid_mesh(10.0, 8.0, 0.5),
        "annulus": triangulate(half_annulus_contour(), 0.05),
        "arch": triangulate(half_annulus_contour(22.0, 30.0, 240), 1.0),
    }


def _field(mesh, kind):
    V = mesh.vertices
    if kind == "radial":  # closed level curves around the centroid deepest inside the mesh
        cent = mesh.centroids()
        depth = np.linalg.norm(cent[:, None, :] - V[mesh.boundary_flags][None, :, :], axis=2).min(axis=1)
        return ((V - cent[np.argmax(depth)]) ** 2).sum(axis=1)
    if kind == "linear":
        return 0.3 * V[:, 0] - 0.7 * V[:, 1]
    return np.random.default_rng(5).standard_normal(mesh.n_vertices)


def _levels(f):
    # quantile levels, and two levels equal to vertex values (the 1e-12 snap)
    return [float(q) for q in np.quantile(f, [0.05, 0.25, 0.5, 0.75, 0.95])] + [f[len(f) // 3], f[2 * len(f) // 3]]


class TestLevelPathTracing:
    @pytest.mark.parametrize("kind", ["radial", "linear", "random"])
    @pytest.mark.parametrize("name", ["grid", "annulus", "arch"])
    def test_matches_reference_tracer(self, trace_meshes, name, kind):
        mesh = trace_meshes[name]
        f = _field(mesh, kind)
        for level in _levels(f):
            got = fem.level_set_components(mesh, f, level)
            ref = _reference_level_set_components(mesh, f, level)
            assert len(got) == len(ref)
            assert all(_same_component(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("kind", ["radial", "linear", "random"])
    @pytest.mark.parametrize("name", ["grid", "annulus", "arch"])
    def test_level_path_through_any_triangle(self, trace_meshes, name, kind):
        mesh = trace_meshes[name]
        f = _field(mesh, kind)
        level = float(np.quantile(f, 0.02 if kind == "radial" else 0.5))
        comps = fem.level_set_components(mesh, f, level)
        assert any(c["closed"] for c in comps) == (kind != "linear")
        tids = np.concatenate([c["tri_ids"] for c in comps])
        uncrossed = np.setdiff1d(np.arange(mesh.n_triangles), tids)
        got = _paths(mesh, f, np.full(len(tids) + 1, level), np.append(tids, uncrossed[0]))
        want = [c for c in comps for _ in c["tri_ids"]]
        assert all(_same_component(a, b) for a, b in zip(got, want))
        assert got[-1] is None  # a triangle the level misses

    @pytest.mark.parametrize("kind", ["radial", "linear", "random"])
    @pytest.mark.parametrize("name", ["grid", "annulus", "arch"])
    def test_many_samples_match_reference_walk(self, trace_meshes, name, kind):
        # many levels in one call, repeated levels among them, each sample at a random triangle
        # or at one the level crosses; the random field has several components per level
        mesh = trace_meshes[name]
        f = _field(mesh, kind)
        rng = np.random.default_rng(21)
        levels = np.repeat(np.quantile(f, np.linspace(0.01, 0.99, 40)), 2)
        levels = np.concatenate([levels, f[rng.choice(len(f), 10)]])
        lo, hi = f[mesh.triangles].min(axis=1), f[mesh.triangles].max(axis=1)
        tids = np.array(
            [rng.choice(np.flatnonzero((lo < x) & (hi > x))) if k % 3 else rng.integers(mesh.n_triangles)
             for k, x in enumerate(levels)]
        )
        got = _paths(mesh, f, levels, tids)
        want = [_reference_trace(mesh, f.tolist(), float(x), int(tid)) for x, tid in zip(levels, tids)]
        assert all(_agree(a, b) for a, b in zip(got, want))
        assert sum(w is None for w in want) > 0 and sum(w is not None for w in want) > 40
        if kind == "radial":
            assert any(w is not None and w["closed"] for w in want)
        if kind == "random":
            per_level = fem._level_sets(mesh, f, levels[:1])
            assert len(per_level.closed) > 1


class TestLevelAtVertexValue:
    @pytest.mark.parametrize("offset", [0.0, 1e5])  # at 1e5, level + 1e-12 rounds back to the level
    def test_traces_as_the_reference_tracer(self, trace_meshes, offset):
        mesh = trace_meshes["annulus"]
        f = _field(mesh, "linear") + offset
        levels, tids, wants = [], [], []
        for k in (len(f) // 3, len(f) // 2):
            level = float(f[k])  # a sample level exactly equal to a vertex value
            ref = _reference_level_set_components(mesh, f, level)
            got = fem.level_set_components(mesh, f, level)
            assert len(got) == len(ref) and all(_same_component(a, b) for a, b in zip(got, ref))
            for tid in np.flatnonzero((mesh.triangles == k).any(axis=1)).tolist():
                want = next((c for c in ref if tid in c["tri_ids"]), None)
                assert _agree(_reference_trace(mesh, f.tolist(), level, tid), want)
                levels.append(level)
                tids.append(tid)
                wants.append(want)
        assert 0 < sum(w is None for w in wants) < len(wants)
        got = _paths(mesh, f, np.array(levels), np.array(tids))
        assert all(_agree(a, b) for a, b in zip(got, wants))


def _reference_spans(f, component):
    """The span rule on one component dict: an open path whose end edges lie
    on opposite sides, by the sign of ``f`` summed over each end edge."""
    if component["closed"] or component["end_edges"] is None:
        return False
    (u0, v0), (u1, v1) = component["end_edges"]
    return float(f[u0] + f[v0]) * float(f[u1] + f[v1]) < 0


class TestThicknessMatchesReferenceWalk:
    @pytest.mark.parametrize("name", ["annulus", "arch"])
    def test_all_samples(self, trace_meshes, name):
        mesh = trace_meshes[name]
        lm = half_annulus_landmarks(22.0, 30.0) if name == "arch" else half_annulus_landmarks()
        line, f = mo.intercallosal_line(mesh, lm, 100)
        prof = mo.thickness_profile(mesh, f, line, 100)
        # the per-sample loop thickness_profile ran before one call served all samples
        g = mo.conjugate_field(mesh, f, line)
        tids, barys = fem._locate_all(mesh, line.points[1:-1])
        want = np.full(100, np.nan)
        for k, (tid, bary) in enumerate(zip(tids.tolist(), barys)):
            level = float(g[mesh.triangles[tid]] @ bary)
            path = _reference_trace(mesh, g.tolist(), level, tid)
            if path is not None and _reference_spans(f, path):
                want[k] = polyline_length(path["points"])
        assert np.array_equal(prof.thickness_mm, want, equal_nan=True)
        assert prof.valid.sum() > 90


def _barycentric(tri, p):
    """Barycentric coords of p in one triangle by a single 2x2 solve; -1s if it is singular."""
    a, b, c = tri
    try:
        uv = np.linalg.solve(np.column_stack([b - a, c - a]), np.asarray(p, dtype=float) - a)
    except np.linalg.LinAlgError:
        return np.array([-1.0, -1.0, -1.0])
    return np.array([1.0 - uv[0] - uv[1], uv[0], uv[1]])


def _brute_locate(mesh, p):
    """First triangle (by id) whose barycentric coordinates hold p, else the least-negative one."""
    barys = [_barycentric(mesh.vertices[tri], p) for tri in mesh.triangles]
    for tid, bary in enumerate(barys):
        if bary.min() >= -1e-12:
            return tid, np.clip(bary, 0.0, 1.0)
    tid = int(np.argmax([b.min() for b in barys]))
    bary = np.clip(barys[tid], 0.0, None)
    return tid, bary / bary.sum()


def _probe_points(mesh):
    """Vertices (held by several triangles), edge midpoints, centroids, and boundary
    midpoints moved 1e-14 (within the tolerance) and 1e-6 (the fallback) outside."""
    rng = np.random.default_rng(3)
    V = mesh.vertices
    edges = mesh.edges()
    be = mesh.boundary_edges()[rng.choice(len(mesh.boundary_edges()), 10, replace=False)]
    d = V[be[:, 1]] - V[be[:, 0]]
    outward = np.column_stack([d[:, 1], -d[:, 0]]) / np.linalg.norm(d, axis=1)[:, None]
    mid = (V[be[:, 0]] + V[be[:, 1]]) / 2
    return np.vstack(
        [
            V[rng.choice(len(V), 20, replace=False)],
            (V[edges[:, 0]] + V[edges[:, 1]])[rng.choice(len(edges), 20, replace=False)] / 2,
            mesh.centroids()[rng.choice(mesh.n_triangles, 20, replace=False)],
            mid + 1e-14 * outward,
            mid + 1e-6 * outward,
        ]
    )


@pytest.fixture(scope="module", params=["grid", "annulus", "arch"])
def located(request):
    """A mesh, its probe points and ``_brute_locate`` of each point."""
    if request.param == "grid":
        mesh = rectangle_grid_mesh(4.0, 3.0, 0.5)
    elif request.param == "annulus":
        mesh = triangulate(half_annulus_contour(n_arc=48), 0.25)
    else:  # coordinates of tens of mm, as on the arch slabs
        mesh = triangulate(half_annulus_contour(22.0, 30.0, 120), 2.0)
    points = _probe_points(mesh)
    return mesh, points, [_brute_locate(mesh, p) for p in points]


class TestLocate:
    def test_shared_edges_and_vertices_go_to_the_lowest_id(self):
        mesh = rectangle_grid_mesh(4.0, 3.0, 0.5)  # vertices and edge midpoints are exact in binary
        V, E = mesh.vertices, mesh.edges()
        points = np.vstack([V, (V[E[:, 0]] + V[E[:, 1]]) / 2])
        holders = [
            [tid for tid, tri in enumerate(mesh.triangles) if _barycentric(V[tri], p).min() >= -1e-12] for p in points
        ]
        assert min(map(len, holders[: len(V)])) >= 1 and max(map(len, holders)) >= 3
        assert sum(len(h) == 2 for h in holders[len(V) :]) > 100  # interior edges: two triangles each
        tids, barys = fem._locate_all(mesh, points)
        assert tids.tolist() == [min(h) for h in holders]
        assert np.array_equal(barys, np.array([_brute_locate(mesh, p)[1] for p in points]))

    def test_stacked_solve_matches_single_solves(self):
        rng = np.random.default_rng(11)
        tri = rng.uniform(-30.0, 30.0, size=(2000, 3, 2))
        tri[7] = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]  # collinear corners: a singular system
        tri[9, 2] = tri[9, 1]  # two equal corners
        p = rng.uniform(-30.0, 30.0, size=(2000, 2))
        got = fem._barycentrics(tri, p)
        assert np.array_equal(got, np.array([_barycentric(t, q) for t, q in zip(tri, p)]))
        assert got[7].tolist() == [-1.0, -1.0, -1.0]  # rejected, as the single solve rejects it

    def test_matches_brute_force(self, located):
        mesh, points, ref = located
        for p, (ref_tid, ref_bary) in zip(points, ref):  # one point per query
            tids, barys = fem._locate_all(mesh, p)
            assert tids.tolist() == [ref_tid]
            assert np.array_equal(barys[0], ref_bary)

    def test_all_points_in_one_query(self, located):
        mesh, points, ref = located
        tids, barys = fem._locate_all(mesh, points)
        assert tids.tolist() == [tid for tid, _ in ref]
        assert np.array_equal(barys, np.array([bary for _, bary in ref]))
        held = [sum(_barycentric(mesh.vertices[t], p).min() >= -1e-12 for t in mesh.triangles) for p in points[:20]]
        assert max(held) > 1  # a vertex is held by each triangle around it: the lowest id wins

    def test_interpolate_matches_per_point(self, located):
        mesh, points, ref = located
        f = np.random.default_rng(8).standard_normal(mesh.n_vertices)
        want = np.array([float(f[mesh.triangles[tid]] @ bary) for tid, bary in ref])
        assert np.array_equal(fem.interpolate(mesh, f, points), want)
        assert np.array_equal(fem.interpolate(mesh, f, points[7]), want[7:8])
