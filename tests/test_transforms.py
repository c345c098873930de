import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmorph.transforms import (
    Landmarks,
    Plane,
    RigidTransform,
    acpc_standardize,
    kabsch_rigid,
)


def rot_z(deg):
    a = np.radians(deg)
    return np.array(
        [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )


def _rotation_from(axis, angle):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-6:
        return np.eye(3)
    axis = axis / n
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


st_coord = st.floats(-50.0, 50.0)
st_angle = st.floats(-3.0, 3.0)


class TestRigidTransform:
    def test_compose_inverse(self):
        t = RigidTransform(rot_z(30.0), [1.0, 2.0, 3.0])
        ti = t.inverse()
        ident = t.compose(ti)
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)

    def test_matrix_roundtrip(self):
        t = RigidTransform(rot_z(-72.0), [0.5, -4.0, 9.0])
        t2 = RigidTransform.from_matrix(t.as_matrix())
        np.testing.assert_allclose(t.rotation, t2.rotation)
        t3 = RigidTransform.from_json(t.to_json())
        np.testing.assert_allclose(t.as_matrix(), t3.as_matrix())

    def test_rejects_improper(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(bad, np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))


class TestPlane:
    def test_normalization_and_json(self):
        p = Plane([0.0, 0.0, 2.0], 6.0)
        assert np.allclose(p.normal, [0, 0, 1])
        assert p.offset == 3.0
        p2 = Plane.from_json(p.to_json())
        np.testing.assert_allclose(p2.normal, p.normal)
        assert p2.offset == p.offset

    def test_transform_preserves_membership(self):
        p = Plane([1.0, 2.0, -1.0], 4.0)
        t = RigidTransform(rot_z(41.0), [3.0, -1.0, 2.0])
        x = p.point_on_plane()
        q = p.transformed(t)
        assert abs(q.signed_distance(t.apply(x))[0]) < 1e-12

    @pytest.mark.parametrize("normal, offset", [([np.nan, 0, 0], 0.0), ([1, np.inf, 0], 0.0), ([1, 0, 0], -np.inf)])
    def test_rejects_non_finite(self, normal, offset):
        with pytest.raises(ValueError, match="plane normal and offset must be finite"):
            Plane(normal, offset)
        text = json.dumps({"normal": normal, "offset": offset})  # NaN and Infinity, as json.loads reads them
        with pytest.raises(ValueError, match="plane normal and offset must be finite"):
            Plane.from_json(text)


class TestLandmarks:
    @pytest.mark.parametrize("which", ["ac", "pc"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, which, value):
        pts = {"ac": [0.0, 0.0, 5.0], "pc": [0.0, -25.0, 5.0]}
        pts[which][0] = value
        with pytest.raises(ValueError, match=f"{which.upper()} must be finite"):
            Landmarks(pts["ac"], pts["pc"])


class TestKabsch:
    def test_identity(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        t = kabsch_rigid(pts, pts)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-12)

    def test_pure_translation(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 1, 3]], dtype=float)
        t = kabsch_rigid(pts, pts + np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, [1, 2, 3], atol=1e-12)

    def test_known_rotation_translation(self):
        rng = np.random.default_rng(42)
        src = rng.normal(size=(10, 3))
        R = rot_z(30.0)
        tvec = np.array([5.0, 0.0, -2.0])
        dst = src @ R.T + tvec
        t = kabsch_rigid(src, dst)
        assert np.abs(t.rotation - R).max() < 1e-9
        assert np.abs(t.translation - tvec).max() < 1e-9

    def test_degenerate_collinear(self):
        src = np.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="degenerate configuration"):
            kabsch_rigid(src, src)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kabsch_rigid(np.zeros((2, 3)), np.zeros((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st_coord, st_coord, st_coord), min_size=4, max_size=12),
        st.tuples(st_coord, st_coord, st_coord),
        st.tuples(st_angle, st_angle, st_angle),
    )
    def test_recovers_inverse_property(self, pts, tvec, axis_angle):
        """kabsch(apply(T, P), P) recovers T^-1 for non-degenerate clouds."""
        pts = np.asarray(pts, dtype=float)
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        if s[1] <= 1e-6 * max(s[0], 1e-9):
            return  # degenerate cloud, covered by the error test
        R = _rotation_from(axis_angle, np.linalg.norm(axis_angle))
        t = RigidTransform(R, np.asarray(tvec, dtype=float))
        moved = t.apply(pts)
        rec = kabsch_rigid(moved, pts)
        ti = t.inverse()
        np.testing.assert_allclose(rec.rotation, ti.rotation, atol=1e-7)
        np.testing.assert_allclose(rec.translation, ti.translation, atol=1e-6)


class TestAcpcStandardize:
    def test_standard_pose_is_identity(self):
        lm = Landmarks(np.zeros(3), [0.0, -27.0, 0.0])
        t = acpc_standardize(lm, np.array([0.0, -10.0, 20.0]))
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-9)

    def test_pc_lands_on_negative_y(self):
        lm = Landmarks([3.0, 1.0, 2.0], [4.0, -20.0, 7.0])
        cc = np.array([2.0, -8.0, 30.0])
        t = acpc_standardize(lm, cc)
        d = np.linalg.norm(lm.ac - lm.pc)
        np.testing.assert_allclose(t.apply(lm.ac), 0.0, atol=1e-12)
        np.testing.assert_allclose(t.apply(lm.pc), [0.0, -d, 0.0], atol=1e-9)
        mapped_cc = t.apply(cc)
        assert abs(mapped_cc[0]) < 1e-9
        assert mapped_cc[2] > 0

    def test_recovers_rigid_perturbation(self):
        lm0 = Landmarks(np.zeros(3), [0.0, -25.0, 0.0])
        cc0 = np.array([0.0, -12.0, 18.0])
        rng = np.random.default_rng(7)
        for _ in range(5):
            R = _rotation_from(rng.normal(size=3), rng.uniform(0.1, 3.0))
            pert = RigidTransform(R, rng.uniform(-30, 30, size=3))
            lm = Landmarks(pert.apply(lm0.ac), pert.apply(lm0.pc))
            t = acpc_standardize(lm, pert.apply(cc0))
            comp = t.compose(pert)
            np.testing.assert_allclose(comp.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(comp.translation, 0.0, atol=1e-8)

    def test_roll_degenerate(self):
        lm = Landmarks(np.zeros(3), [0.0, -25.0, 0.0])
        with pytest.raises(ValueError, match="cannot fix roll"):
            acpc_standardize(lm, np.array([0.0, -10.0, 0.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st_coord, st_coord, st_coord),
        st.tuples(st_coord, st_coord, st_coord),
        st.tuples(st_coord, st_coord, st_coord),
    )
    def test_ac_maps_to_origin_property(self, ac, pc, cc):
        ac = np.asarray(ac)
        pc = np.asarray(pc)
        cc = np.asarray(cc)
        if np.linalg.norm(ac - pc) < 1e-3:
            return
        lm = Landmarks(ac, pc)
        y = (ac - pc) / np.linalg.norm(ac - pc)
        w = cc - ac
        if np.linalg.norm(w - (w @ y) * y) < 1e-3:
            return
        t = acpc_standardize(lm, cc)
        np.testing.assert_allclose(t.apply(ac), 0.0, atol=1e-9)
        # always a proper rigid transform
        np.testing.assert_allclose(t.rotation.T @ t.rotation, np.eye(3), atol=1e-9)
        assert np.linalg.det(t.rotation) > 0
