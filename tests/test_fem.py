import numpy as np
import pytest

from ccmorph import fem
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import rectangle_grid_mesh


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

    def test_field_csv(self):
        s = fem.field_to_csv(np.array([1.5, 2.0]))
        assert s == "vertex,value\n0,1.5\n1,2.0\n"
