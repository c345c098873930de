import mmap
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from ccmorph import volume
from ccmorph.midplane import (
    _label_window,
    label_centroids,
    midsagittal_plane,
    plane_disagreement,
    resample_slab,
    slice_count,
)
from ccmorph.phantoms import arch_mask_volume, label_ball_volume, rectangle_mask_volume
from ccmorph.transforms import Plane, RigidTransform
from ccmorph.volume import Volume, load_volume, save_volume


def _label_volume(marks, dims=(16, 16, 16)):
    data = np.zeros(dims, dtype=np.int32)
    for (i, j, k), lab in marks:
        data[i, j, k] = lab
    return Volume(data, (1, 1, 1), np.eye(4))


class TestLabelCentroids:
    def test_single_voxel(self):
        v = _label_volume([((1, 1, 1), 1), ((3, 3, 3), 2), ((5, 1, 2), 3)])
        cents = dict(label_centroids(v, v))
        np.testing.assert_allclose(cents[1], [1, 1, 1])

    def test_block_symmetry(self):
        data = np.zeros((8, 8, 8), dtype=np.int32)
        data[0:2, 0:2, 0:2] = 1
        data[5, 5, 5] = 2
        data[1, 6, 2] = 3
        v = Volume(data, (1, 1, 1), np.eye(4))
        cents = dict(label_centroids(v, v))
        np.testing.assert_allclose(cents[1], [0.5, 0.5, 0.5])

    def test_shared_only(self):
        a = _label_volume([((1, 1, 1), 1), ((2, 2, 2), 2), ((3, 3, 3), 3), ((4, 4, 4), 9)])
        b = _label_volume([((1, 2, 1), 1), ((2, 1, 2), 2), ((3, 3, 1), 3), ((4, 4, 4), 7)])
        labels = [lab for lab, _ in label_centroids(a, b)]
        assert labels == [1, 2, 3]

    def test_insufficient(self):
        a = _label_volume([((1, 1, 1), 1), ((2, 2, 2), 2)])
        with pytest.raises(ValueError, match="insufficient correspondences"):
            label_centroids(a, a)

    def test_explicit_label_list(self):
        v = _label_volume(
            [((1, 1, 1), 1), ((2, 2, 2), 2), ((3, 3, 3), 3), ((4, 4, 4), 4), ((5, 5, 5), 5)]
        )
        out = label_centroids(v, v, labels=[2, 3, 5])
        assert [lab for lab, _ in out] == [2, 3, 5]
        with pytest.raises(ValueError, match="insufficient correspondences"):
            label_centroids(v, v, labels=[2, 3])

    def test_affine_respected(self):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[1, 1, 1] = 1
        data[2, 2, 2] = 2
        data[3, 1, 2] = 3
        aff = np.diag([2.0, 2.0, 2.0, 1.0])
        aff[:3, 3] = (10, 0, 0)
        v = Volume(data, (2, 2, 2), aff)
        cents = dict(label_centroids(v, v))
        np.testing.assert_allclose(cents[1], [12, 2, 2])


def _reference_centroids(vol, other, labels=None):
    """The earlier algorithm: whole-volume label sets, then one voxel scan per label."""
    shared = np.intersect1d(np.unique(vol.data), np.unique(other.data))
    shared = shared[shared > 0]
    if labels is not None:
        shared = np.intersect1d(shared, np.asarray(labels))
    return [(int(lab), vol.voxel_to_world(np.argwhere(vol.data == lab)).mean(axis=0)) for lab in shared]


def _random_affine(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    aff = np.eye(4)
    aff[:3, :3] = q * rng.uniform(0.5, 2.0, 3)
    aff[:3, 3] = rng.uniform(-100, 100, 3)
    return aff


def _random_label_volume(rng, ids, layout, shape=(13, 11, 9)):
    data = rng.choice(np.concatenate([[0], ids]), size=shape).astype(np.int32)
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "strided":
        data = np.repeat(data, 2, axis=1)[:, ::2]  # non-contiguous view, same values
    assert data.flags.f_contiguous == (layout == "F") and data.flags.c_contiguous == (layout == "C")
    return Volume(data, (1, 1, 1), _random_affine(rng))


def _assert_same_centroids(got, ref, tol=1e-9):
    assert [lab for lab, _ in got] == [lab for lab, _ in ref]
    for (_, g), (_, r) in zip(got, ref):
        assert np.max(np.abs(g - r)) < tol


class TestLabelTable:
    """``label_centroids`` against the per-label scan it replaced."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_label_scan(self, seed, layout):
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.choice(np.arange(1, 5000), size=20, replace=False))
        a = _random_label_volume(rng, ids[:16], layout)
        b = _random_label_volume(rng, ids[4:], layout)
        _assert_same_centroids(label_centroids(a, b), _reference_centroids(a, b))
        _assert_same_centroids(label_centroids(b, a), _reference_centroids(b, a))
        subset = list(ids[2:14:2]) + [99999]
        _assert_same_centroids(label_centroids(a, b, subset), _reference_centroids(a, b, subset))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_huge_label_ids(self, dtype):
        # a dense bincount over label values would need 2**40 bins here
        rng = np.random.default_rng(7)
        ids = np.array([3, 2**31 + 5, 2**40], dtype=dtype)
        data = rng.choice(np.concatenate([[0], ids]), size=(10, 9, 8)).astype(dtype)
        vol = Volume(data, (1, 1, 1), _random_affine(rng))
        got = label_centroids(vol, vol)
        assert [lab for lab, _ in got] == [3, 2**31 + 5, 2**40]
        _assert_same_centroids(got, _reference_centroids(vol, vol))

    def test_background_only_is_insufficient(self):
        v = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1), np.eye(4))
        with pytest.raises(ValueError, match="insufficient correspondences: 0 shared"):
            label_centroids(v, v)

    def test_table_is_kept_and_read_only(self):
        rng = np.random.default_rng(11)
        vol = _random_label_volume(rng, [2, 5, 9, 40], "F")
        table = vol.label_table
        assert vol.label_table is table
        assert [int(lab) for lab in table[0]] == [2, 5, 9, 40]
        for arr in table:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_rejects_non_label_maps(self):
        v = _label_volume([((1, 1, 1), 1), ((2, 2, 2), 2), ((3, 3, 3), 3)])
        f = Volume(v.data.astype(float), (1, 1, 1), np.eye(4))
        with pytest.raises(ValueError, match="integer label maps"):
            label_centroids(v, f)


def _one_pass_table(vol):
    """The table as one pass over every non-zero voxel (the algorithm before chunking)."""
    order = "F" if vol.data.flags.f_contiguous and not vol.data.flags.c_contiguous else "C"
    flat = vol.data.ravel(order=order)
    idx = np.flatnonzero(flat)
    values = flat[idx]
    labels = np.unique(values)
    rows = np.searchsorted(labels, values)
    counts = np.bincount(rows, minlength=len(labels))
    ijk = np.unravel_index(idx, vol.dims, order=order)
    sums = np.column_stack([np.bincount(rows, weights=a, minlength=len(labels)) for a in ijk])
    return labels, counts, vol.voxel_to_world(sums / counts[:, None])


def _with_layout(data, layout):
    """The same values as C-ordered, Fortran-ordered, transposed or strided (both non-contiguous) data."""
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "transposed":
        data = np.ascontiguousarray(data.transpose(1, 0, 2)).transpose(1, 0, 2)
    elif layout == "strided":
        data = np.repeat(data, 2, axis=1)[:, ::2]
    contiguous = layout in ("C", "F") or 0 in data.shape
    assert contiguous == (data.flags.c_contiguous or data.flags.f_contiguous)
    return data


def _assert_bit_identical(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


LAYOUTS = ["C", "F", "transposed", "strided"]
LABEL_DTYPES = [np.uint8, np.int16, np.int32, np.int64, np.uint64]
DEPTH = 4  # planes per chunk in these tests


class TestChunkedLabelTable:
    """``Volume.label_table`` counts chunks of planes; the table must equal the one-pass count bit for bit."""

    # slow-axis lengths: shorter than one chunk, a multiple of it, and neither
    @pytest.mark.parametrize("n", [DEPTH - 1, 2 * DEPTH, 2 * DEPTH + 3])
    @pytest.mark.parametrize("dtype", LABEL_DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_equals_one_pass_table(self, layout, dtype, n, monkeypatch):
        monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", DEPTH * 5 * n + 3)  # planes of 5 n voxels
        rng = np.random.default_rng([n, len(layout), np.dtype(dtype).itemsize])
        ids = rng.choice(np.arange(3, 250), size=12, replace=False)
        data = rng.choice(np.concatenate([[0], ids]), size=(n, 5, n), p=[0.4] + [0.05] * 12).astype(dtype)
        data[:, 2, 1:4] = ids[0]  # a run longer than one voxel along every axis
        data[1, 3:5, :] = ids[1]  # two whole lines of one label, adjacent in C order
        data[:, 3:5, 1] = ids[1]  # and in Fortran order
        data[-1, 0, -1], data[-1, 1, -1] = 1, 255  # the lowest and highest labels, in the last chunk only
        vol = Volume(_with_layout(data, layout), (1, 1, 1), _random_affine(rng))
        table = vol.label_table
        assert table[0].dtype == np.dtype(dtype) and table[0][0] == 1 and table[0][-1] == 255
        _assert_bit_identical(table, _one_pass_table(vol))
        # the same pass records each label's voxel bounds
        lo, hi = vol.label_bounds
        assert lo.shape == hi.shape == (len(vol.label_table[0]), 3)
        for row, lab in enumerate(vol.label_table[0]):
            where = np.nonzero(vol.data == lab)
            assert lo[row].tolist() == [int(a.min()) for a in where], lab
            assert hi[row].tolist() == [int(a.max()) for a in where], lab
        for arr in (lo, hi):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0

    @pytest.mark.parametrize("shape", [(9, 4, 11), (0, 4, 6), (4, 4, 0)])
    @pytest.mark.parametrize("dtype", LABEL_DTYPES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_all_zero_volume(self, layout, dtype, shape, monkeypatch):
        monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", 1)  # one plane per chunk
        vol = Volume(_with_layout(np.zeros(shape, dtype=dtype), layout), (1, 1, 1), np.eye(4))
        table = vol.label_table
        assert [len(arr) for arr in table] == [0, 0, 0] and table[0].dtype == np.dtype(dtype)
        _assert_bit_identical(table, _one_pass_table(vol))
        assert [arr.shape for arr in vol.label_bounds] == [(0, 3), (0, 3)]
        assert vol.is_label_map()


def _save_big_endian(data, path):
    """A big-endian NIfTI-1 file of ``data`` (identity sform), which loads as a byte-swapped copy."""
    code = {np.dtype(np.int16): 4, np.dtype(np.int32): 8}[data.dtype]
    hdr = bytearray(348)
    struct.pack_into(">i", hdr, 0, 348)
    struct.pack_into(">8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(">hh", hdr, 70, code, data.dtype.itemsize * 8)
    struct.pack_into(">8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into(">f", hdr, 108, 352.0)
    struct.pack_into(">hh", hdr, 252, 0, 1)
    struct.pack_into(">12f", hdr, 280, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)
    struct.pack_into(">4s", hdr, 344, b"n+1\0")
    Path(path).write_bytes(bytes(hdr) + bytes(4) + data.astype(data.dtype.newbyteorder(">")).tobytes(order="F"))


class TestMappedScans:
    """The scans read a mapped file in positional chunks; what they find must not depend on it."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("layout", ["F", "C"])
    @pytest.mark.parametrize("source", ["nii", "nii.gz", "big-endian nii"])
    def test_same_tables_as_in_memory(self, tmp_path, monkeypatch, source, layout, signed):
        # int16 planes of 37 x 29 voxels (2,146 bytes) in chunks of 3 planes: no chunk
        # starts or ends on a page boundary, and some hold no whole page
        monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", 3 * 37 * 29 + 5)
        reads = _spy_reads(monkeypatch)
        rng = np.random.default_rng([len(source), len(layout), signed])
        data = rng.choice(np.array([0, 3, 17, 251, 30000], dtype=np.int16), size=(37, 29, 23), p=[0.6] + [0.1] * 4)
        if signed:
            data[5, 7, -1] = -2  # in the last chunk only
        path = tmp_path / ("v.nii.gz" if source == "nii.gz" else "v.nii")
        if source == "big-endian nii":
            _save_big_endian(data, path)
        else:
            save_volume(Volume(data, (1, 1, 1), np.eye(4)), path)
        loaded = load_volume(path)
        mapped = isinstance(_buffer_owner(loaded.data), mmap.mmap)
        assert mapped == (source == "nii")
        if layout == "C":  # the transpose of a loaded volume is a C-contiguous view of the same bytes
            loaded, data = Volume(loaded.data.T, (1, 1, 1), np.eye(4)), data.T
        assert loaded.data.flags.c_contiguous == (layout == "C")
        memory = Volume(np.array(data, order=layout), (1, 1, 1), np.eye(4))
        assert loaded.is_label_map() == memory.is_label_map() == (not signed)
        _assert_bit_identical(loaded.label_table, memory.label_table)
        _assert_bit_identical(loaded.label_bounds, memory.label_bounds)
        _assert_bit_identical(loaded.label_table, _one_pass_table(memory))
        # only a scan of the map reads, chunk by chunk: 7 of 3 planes and one of 2 per scan;
        # is_label_map reads the last chunk too, since the negative voxel lies in it
        plane = 37 * 29 * 2
        chunks = [(352 + start * plane, min(3, 23 - start) * plane) for start in range(0, 23, 3)]
        assert reads == (2 * chunks if mapped else [])
        np.testing.assert_array_equal(loaded.data, data)  # the map still reads the same bytes


def _spy_reads(monkeypatch):
    """The ``(file offset, bytes)`` of every positional read, recorded as they happen."""
    reads, preadv = [], os.preadv

    def record(fd, buffers, offset):
        reads.append((offset, sum(memoryview(b).nbytes for b in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", record)
    return reads


def _buffer_owner(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr



def _write_cc_case(tmp_path):
    """labels.nii (a CC split over labels 251-255 plus two other labels), lm.json, plane.json."""
    from ccmorph.transforms import Landmarks
    from ccmorph.volume import load_volume, save_volume

    rng = np.random.default_rng(3)
    data = np.zeros((12, 30, 20), dtype=np.int32, order="F")
    data[rng.random(data.shape) < 0.05] = 17  # non-CC labels must not count
    data[rng.random(data.shape) < 0.02] = 4
    for lab, (y0, y1, z0, z1) in zip(
        range(251, 256), [(3, 5, 8, 10), (5, 11, 10, 14), (11, 18, 12, 15), (18, 20, 10, 14), (20, 27, 6, 12)]
    ):
        data[4:8, y0:y1, z0:z1] = lab  # unequal sizes
    save_volume(Volume(data, (1.0, 0.8, 1.2), _random_affine(rng)), tmp_path / "labels.nii")
    vol = load_volume(tmp_path / "labels.nii")  # the affine as stored (float32)
    lm = Landmarks(vol.voxel_to_world([6, 24, 4])[0], vol.voxel_to_world([6, 6, 4])[0])
    (tmp_path / "lm.json").write_text(lm.to_json())
    (tmp_path / "plane.json").write_text(Plane(np.array([1.0, 0, 0]), 0.0).to_json())
    return vol, lm


class TestPoseCentroid:
    def test_pose_matches_voxel_scan_centroid(self, tmp_path):
        from ccmorph.config import RunConfig
        from ccmorph.pipeline import CaseSpec, run_case
        from ccmorph.transforms import acpc_standardize

        vol, lm = _write_cc_case(tmp_path)
        case = CaseSpec("pose", str(tmp_path / "labels.nii"), str(tmp_path / "lm.json"), str(tmp_path / "plane.json"))
        status = run_case(case, RunConfig().validate(), tmp_path / "out")
        assert [s["status"] for s in status["stages"][:4]] == ["ok"] * 4

        cc = np.isin(vol.data, [251, 252, 253, 254, 255])
        expected = acpc_standardize(lm, vol.voxel_to_world(np.argwhere(cc)).mean(axis=0))
        got = RigidTransform.from_json((tmp_path / "out" / "pose.json").read_text())
        assert np.max(np.abs(got.as_matrix() - expected.as_matrix())) < 1e-9

    def test_no_cc_labels_is_input_error(self, tmp_path):
        from ccmorph.config import RunConfig
        from ccmorph.pipeline import CaseSpec, run_case
        from ccmorph.transforms import Landmarks
        from ccmorph.volume import save_volume

        vol = _label_volume([((1, 1, 1), 250), ((2, 2, 2), 256)])
        save_volume(vol, tmp_path / "labels.nii")
        (tmp_path / "lm.json").write_text(Landmarks(np.array([1.0, 5, 1]), np.array([1.0, 1, 1])).to_json())
        (tmp_path / "plane.json").write_text(Plane(np.array([1.0, 0, 0]), 2.0).to_json())
        case = CaseSpec("nocc", str(tmp_path / "labels.nii"), str(tmp_path / "lm.json"), str(tmp_path / "plane.json"))
        status = run_case(case, RunConfig().validate(), tmp_path / "out")
        assert status["error_kind"] == "input"
        assert status["stages"][3]["name"] == "pose" and "no CC labels" in status["stages"][3]["error"]


class TestLabelTableBuilds:
    """One counting pass per loaded volume: registration and pose share it."""

    @pytest.mark.parametrize("path, builds", [("plane", 1), ("template", 2)])
    def test_builds_per_case(self, tmp_path, monkeypatch, path, builds):
        from ccmorph.config import RunConfig
        from ccmorph.pipeline import CaseSpec, run_case

        _write_cc_case(tmp_path)
        built = []
        count = Volume._count_labels  # the one counting pass, whether ``label_table`` or the inputs check runs it
        monkeypatch.setattr(Volume, "_count_labels", lambda vol, **kw: built.append(vol) or count(vol, **kw))
        if path == "plane":
            case = CaseSpec("c", str(tmp_path / "labels.nii"), str(tmp_path / "lm.json"), str(tmp_path / "plane.json"))
            cfg = RunConfig()
        else:
            case = CaseSpec("c", str(tmp_path / "labels.nii"), str(tmp_path / "lm.json"))
            cfg = RunConfig(template_seg=str(tmp_path / "labels.nii"), template_plane=str(tmp_path / "plane.json"))
        status = run_case(case, cfg.validate(), tmp_path / "out")
        assert [s["status"] for s in status["stages"][:4]] == ["ok"] * 4
        assert len(built) == builds
        assert len({id(v) for v in built}) == builds  # never twice for one volume


class TestTemplateOncePerProcess:
    """The template segmentation is loaded and counted once while its file is unchanged."""

    def _run(self, tmp_path, out, template):
        from ccmorph.config import RunConfig
        from ccmorph.pipeline import CaseSpec, run_case

        case = CaseSpec("c", str(tmp_path / "labels.nii"), str(tmp_path / "lm.json"))
        cfg = RunConfig(template_seg=str(template), template_plane=str(tmp_path / "plane.json")).validate()
        return run_case(case, cfg, tmp_path / out)

    def test_later_cases_build_only_the_subject_table(self, tmp_path, monkeypatch):
        from ccmorph import pipeline

        _write_cc_case(tmp_path)
        monkeypatch.setattr(pipeline, "_template_memo", {})
        built = []
        count = Volume._count_labels  # the one counting pass, whether ``label_table`` or the inputs check runs it
        monkeypatch.setattr(Volume, "_count_labels", lambda vol, **kw: built.append(vol) or count(vol, **kw))
        for k in range(3):
            status = self._run(tmp_path, f"out{k}", tmp_path / "labels.nii")
            assert status["ok"], status
        assert len(built) == 4 and len({id(v) for v in built}) == 4  # the template once, each subject once
        assert len({(tmp_path / f"out{k}" / "plane.json").read_bytes() for k in range(3)}) == 1

    def test_replaced_template_is_loaded_again(self, tmp_path, monkeypatch):
        from ccmorph import pipeline
        from ccmorph.volume import load_volume, save_volume

        vol, _ = _write_cc_case(tmp_path)
        monkeypatch.setattr(pipeline, "_template_memo", {})
        template = tmp_path / "template.nii"
        save_volume(vol, template)
        assert self._run(tmp_path, "a", template)["ok"]
        shift = np.eye(4)
        shift[:3, 3] = (1.5, 0.0, 0.0)  # the template moves 1.5 mm along the plane normal
        save_volume(Volume(vol.data, vol.voxel_size, shift @ vol.affine), template)
        assert self._run(tmp_path, "b", template)["ok"]
        tplane = Plane.from_json((tmp_path / "plane.json").read_text())
        expected, _ = midsagittal_plane(load_volume(tmp_path / "labels.nii"), load_volume(template), tplane)
        got = (tmp_path / "b" / "plane.json").read_text()
        assert got == expected.to_json() + "\n" != (tmp_path / "a" / "plane.json").read_text()

    def test_unreadable_template_is_not_kept(self, tmp_path, monkeypatch):
        from ccmorph import pipeline

        _write_cc_case(tmp_path)
        monkeypatch.setattr(pipeline, "_template_memo", {})
        template = tmp_path / "template.nii"
        template.write_bytes(b"not a nifti file" * 30)
        status = self._run(tmp_path, "bad", template)
        stage = {s["name"]: s for s in status["stages"]}["midplane"]
        assert status["error_kind"] == "input" and f"invalid template segmentation {template}" in stage["error"]
        assert pipeline._template_memo == {}


def _rotate_volume(vol: Volume, t: RigidTransform) -> Volume:
    return Volume(vol.data, vol.voxel_size, t.as_matrix() @ vol.affine)


class TestMidsagittalPlane:
    def _template(self):
        return label_ball_volume(
            (24, 24, 24),
            [((6, 6, 6), 2, 1), ((16, 8, 10), 2, 2), ((8, 16, 14), 2, 3), ((14, 14, 6), 2, 4)],
        )

    def test_identity_registration(self):
        tpl = self._template()
        plane = Plane([1.0, 0.0, 0.0], 12.0)
        target, t = midsagittal_plane(tpl, tpl, plane)
        np.testing.assert_allclose(target.normal, plane.normal, atol=1e-9)
        assert abs(target.offset - plane.offset) < 1e-9
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-9)

    def test_rotated_subject(self):
        tpl = self._template()
        a = np.radians(10.0)
        R = np.array(
            [[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1.0]]
        )
        move = RigidTransform(R, np.array([3.0, -2.0, 1.0]))
        subj = _rotate_volume(tpl, move)
        plane = Plane([1.0, 0.0, 0.0], 12.0)
        target, t = midsagittal_plane(subj, tpl, plane)
        expected = plane.transformed(move)
        np.testing.assert_allclose(target.normal, expected.normal, atol=1e-6)
        assert abs(target.offset - expected.offset) < 1e-6

    def test_equivariance(self):
        tpl = self._template()
        plane = Plane([0.0, 1.0, 0.0], 9.0)
        base, _ = midsagittal_plane(tpl, tpl, plane)
        rng = np.random.default_rng(1)
        K = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        R = np.eye(3) + np.sin(0.4) * K + (1 - np.cos(0.4)) * K @ K
        s = RigidTransform(R, rng.uniform(-5, 5, 3))
        moved, _ = midsagittal_plane(_rotate_volume(tpl, s), tpl, plane)
        expected = base.transformed(s)
        np.testing.assert_allclose(moved.normal, expected.normal, atol=1e-6)
        assert abs(moved.offset - expected.offset) < 1e-6

    def test_two_shared_labels_error(self):
        tpl = self._template()
        subj = label_ball_volume((24, 24, 24), [((6, 6, 6), 2, 1), ((16, 8, 10), 2, 2)])
        with pytest.raises(ValueError, match="insufficient correspondences"):
            midsagittal_plane(subj, tpl, Plane([1, 0, 0], 12.0))


class TestResampleSlab:
    def test_slice_counts(self):
        assert slice_count(5.0, 1.0) == 5
        assert slice_count(5.0, 0.8) == 7
        assert slice_count(5.0, 0.5) == 11
        assert slice_count(5.0, 2.0) == 3
        assert slice_count(5.0, 6.0) == 1

    def test_constant_volume(self):
        vol = Volume(np.full((9, 9, 9), 7.0), (1, 1, 1), np.eye(4))
        slab = resample_slab(vol, Plane([1.0, 0, 0], 4.0), 5.0, 1.0)
        assert slab.dims[2] == 5
        assert np.allclose(slab.data, 7.0)

    def test_grid_aligned_exact(self):
        rng = np.random.default_rng(0)
        vol = Volume(rng.normal(size=(9, 9, 9)), (1, 1, 1), np.eye(4))
        slab = resample_slab(vol, Plane([1.0, 0, 0], 5.0), 5.0, 1.0)
        mid = slab.dims[2] // 2
        # central slice must reproduce the x = 5 voxel sheet exactly
        inv = np.linalg.inv(slab.affine)
        # locate voxel (5, j, k) values inside the slab
        got = slab.data[:, :, mid]
        # build the expected slice by mapping slab indices back to volume space
        ii, jj = np.meshgrid(np.arange(slab.dims[0]), np.arange(slab.dims[1]), indexing="ij")
        world = (
            slab.affine[:3, 3]
            + ii[..., None] * slab.affine[:3, 0]
            + jj[..., None] * slab.affine[:3, 1]
            + mid * slab.affine[:3, 2]
        )
        vox = np.round(world).astype(int)
        ok = np.all((vox >= 0) & (vox <= 8), axis=-1)
        exp = np.zeros_like(got)
        exp[ok] = vol.data[vox[ok][:, 0], vox[ok][:, 1], vox[ok][:, 2]]
        np.testing.assert_allclose(got[ok], exp[ok], atol=1e-12)

    def test_slab_affine_roundtrip(self):
        vol = Volume(np.zeros((9, 9, 9)), (1, 1, 1), np.eye(4))
        n = np.array([1.0, 1.0, 0.3])
        plane = Plane(n, 4.0)
        slab = resample_slab(vol, plane, 5.0, 0.8)
        # voxel centers mapped through the slab affine land on the sample frame
        e3 = slab.affine[:3, 2] / np.linalg.norm(slab.affine[:3, 2])
        mid = slab.dims[2] // 2
        p = slab.affine[:3, 3] + slab.affine[:3, 2] * mid
        assert abs(plane.signed_distance(p)[0]) < 1e-9
        np.testing.assert_allclose(e3, plane.normal, atol=1e-12)

    def test_plane_misses(self):
        vol = Volume(np.zeros((8, 8, 8)), (1, 1, 1), np.eye(4))
        with pytest.raises(ValueError, match="plane misses volume"):
            resample_slab(vol, Plane([1.0, 0, 0], 100.0), 5.0, 1.0)

    def test_label_slab_stays_integer(self):
        data = np.zeros((9, 9, 9), dtype=np.int16)
        data[4:, :, :] = 3
        vol = Volume(data, (1, 1, 1), np.eye(4))
        slab = resample_slab(vol, Plane([0, 0, 1.0], 4.2), 5.0, 0.7)
        assert slab.data.dtype == np.int16
        assert set(np.unique(slab.data)) <= {0, 3}


def _reference_slab_data(vol: Volume, slab: Volume) -> np.ndarray:
    """The earlier algorithm: a world point per slab voxel, mapped to source voxels, then map_coordinates."""
    A = slab.affine
    ii, jj, kk = np.meshgrid(*(np.arange(n) for n in slab.dims), indexing="ij")
    world = A[:3, 3] + ii[..., None] * A[:3, 0] + jj[..., None] * A[:3, 1] + kk[..., None] * A[:3, 2]
    coords = np.moveaxis(vol.world_to_voxel(world.reshape(-1, 3)).reshape(*slab.dims, 3), -1, 0)
    if vol.is_label_map():
        return ndimage.map_coordinates(vol.data, coords, order=0, mode="constant", cval=0, prefilter=False)
    return ndimage.map_coordinates(
        vol.data.astype(float), coords, order=1, mode="constant", cval=0.0, prefilter=False
    )


def _random_plane(rng, vol: Volume) -> Plane:
    """A randomly tilted plane through a random point near the volume center."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    point = vol.world_center() + rng.uniform(-2.0, 2.0, 3)
    return Plane(n, float(n @ point))


class TestResampleSlabMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_label_volume_exact(self, seed, layout):
        rng = np.random.default_rng([seed, 41])
        vol = _random_label_volume(rng, rng.choice(1000, 6, replace=False) + 1, layout)
        slab = resample_slab(vol, _random_plane(rng, vol), rng.uniform(2.0, 6.0), rng.uniform(0.4, 1.5), 0.7)
        ref = _reference_slab_data(vol, slab)
        assert slab.data.dtype == vol.data.dtype and np.count_nonzero(ref) > 100
        np.testing.assert_array_equal(slab.data, ref)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_volume_within_1e12(self, seed, dtype):
        rng = np.random.default_rng([seed, 42])
        vol = Volume(rng.normal(size=(13, 11, 9)).astype(dtype), (1, 1, 1), _random_affine(rng))
        slab = resample_slab(vol, _random_plane(rng, vol), rng.uniform(2.0, 6.0), rng.uniform(0.4, 1.5))
        ref = _reference_slab_data(vol, slab)
        assert slab.data.dtype == np.float64 and np.count_nonzero(ref) > 100
        np.testing.assert_allclose(slab.data, ref, rtol=0.0, atol=1e-12)

    def test_no_per_voxel_coordinate_arrays(self):
        # the slab is resampled from one 4x4 map: besides the output, nothing
        # of the slab's size is allocated (the earlier algorithm held ~12x it)
        rng = np.random.default_rng(43)
        vol = Volume(rng.normal(size=(40, 40, 40)).astype(np.float32), (1, 1, 1), np.eye(4))
        plane = Plane(np.array([1.0, 0.2, 0.1]) / np.linalg.norm([1.0, 0.2, 0.1]), 20.0)
        tracemalloc.start()
        try:
            slab = resample_slab(vol, plane, 9.0, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slab.data.nbytes > 1_000_000
        assert peak < 1.5 * slab.data.nbytes


def _assert_windowed_slab(vol, plane, width, spacing, inplane, labels):
    """The slab sampled in the window of ``labels`` equals the full slab inside it and is 0 outside;
    returns the window's index ranges."""
    full = resample_slab(vol, plane, width, spacing, inplane)
    win = resample_slab(vol, plane, width, spacing, inplane, labels=labels)
    assert win.data.dtype == full.data.dtype and win.dims == full.dims
    np.testing.assert_array_equal(win.affine, full.affine)
    np.testing.assert_array_equal(win.voxel_size, full.voxel_size)
    window = _label_window(vol, labels, np.linalg.inv(vol.affine) @ full.affine, full.dims[:2])
    (i0, i1), (j0, j1) = window
    inside = np.zeros(full.dims, dtype=bool)
    inside[i0:i1, j0:j1] = True
    np.testing.assert_array_equal(win.data[inside], full.data[inside])
    assert not win.data[~inside].any()
    np.testing.assert_array_equal(np.isin(win.data, labels), np.isin(full.data, labels))  # no label voxel lost
    return window


class TestWindowedSlab:
    """``resample_slab(..., labels=...)`` samples only the window that can hold ``labels``."""

    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    @pytest.mark.parametrize("phantom", [arch_mask_volume, rectangle_mask_volume])
    def test_axis_aligned_phantoms(self, phantom, spacing):
        vol, _ = phantom()
        plane = Plane(np.array([1.0, 0.0, 0.0]), 0.0)
        (i0, i1), (j0, j1) = _assert_windowed_slab(vol, plane, 5.0, spacing, 0.5 * spacing, [251])
        slab = resample_slab(vol, plane, 5.0, spacing, 0.5 * spacing)
        assert np.isin(slab.data[i0:i1, j0:j1], 251).sum() == np.isin(slab.data, 251).sum() > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_rotated_map_tilted_plane(self, seed):
        # a whole-brain-like map: large non-CC labels around a small two-label CC
        rng = np.random.default_rng([seed, 17])
        balls = [((int(x), int(y), int(z)), 7, lab) for lab, (x, y, z) in zip(range(2, 8), rng.integers(8, 40, (6, 3)))]
        balls += [((24, 20, 26), 3, 251), ((24, 26, 27), 3, 252)]
        base = label_ball_volume((48, 48, 48), balls)
        vol = Volume(base.data, (1, 1, 1), _random_affine(rng))
        center = vol.voxel_to_world([24, 23, 26])[0]
        normal = vol.affine[:3, 0] / np.linalg.norm(vol.affine[:3, 0]) + rng.normal(0, 0.1, 3)
        normal /= np.linalg.norm(normal)
        plane = Plane(normal, float(normal @ center))
        labels = [251, 252, 253]  # 253 is absent
        (i0, i1), (j0, j1) = _assert_windowed_slab(vol, plane, 5.0, 0.8, 0.6, labels)
        slab = resample_slab(vol, plane, 5.0, 0.8, 0.6)
        assert (i1 - i0) * (j1 - j0) < 0.25 * slab.dims[0] * slab.dims[1]  # the window is the CC's
        assert np.isin(slab.data, labels).any() and np.isin(slab.data, [2, 3, 4, 5, 6, 7]).any()

    def test_window_clipped_at_the_volume_edge(self):
        vol = label_ball_volume((9, 20, 16), [((4, 0, 8), 3, 251), ((4, 15, 8), 3, 9)])
        plane = Plane(np.array([1.0, 0.0, 0.0]), 4.0)
        (i0, i1), (j0, j1) = _assert_windowed_slab(vol, plane, 5.0, 1.0, 1.0, [251])
        slab = resample_slab(vol, plane, 5.0, 1.0, 1.0)
        assert i0 == 0 and i1 < slab.dims[0]  # in-plane axis 0 is y here, where the CC meets y = 0

    def test_absent_labels_give_an_empty_slab(self):
        vol, _ = arch_mask_volume()
        plane = Plane(np.array([1.0, 0.0, 0.0]), 0.0)
        full = resample_slab(vol, plane, 5.0, 1.0, 0.5)
        empty = resample_slab(vol, plane, 5.0, 1.0, 0.5, labels=[250, 252])
        assert empty.dims == full.dims and empty.data.dtype == full.data.dtype and not empty.data.any()

    def test_intensity_volumes_ignore_labels(self):
        rng = np.random.default_rng(5)
        vol = Volume(rng.normal(size=(13, 11, 9)), (1, 1, 1), _random_affine(rng))
        plane = _random_plane(rng, vol)
        np.testing.assert_array_equal(
            resample_slab(vol, plane, 4.0, 0.7, labels=[1]).data, resample_slab(vol, plane, 4.0, 0.7).data
        )


def _mapped(tmp_path, vol, layout):
    """``vol`` written by ``save_volume`` and loaded back as a view of the file's map:
    as loaded (``"F"``) or as its C-contiguous transpose, with the axes swapped in the affine (``"C"``)."""
    path = tmp_path / f"{layout}.nii"
    save_volume(vol, path)
    loaded = load_volume(path)
    if layout == "C":
        loaded = Volume(loaded.data.T, loaded.voxel_size[::-1], loaded.affine[:, [2, 1, 0, 3]])
    assert volume._file_source(loaded.data if layout == "C" else loaded.data.T) is not None
    return loaded


def _full_map_slab(vol, slab):
    """The slab's grid sampled by one ``affine_transform`` over the whole in-memory volume."""
    nearest = vol.is_label_map()
    return ndimage.affine_transform(
        np.array(vol.data),
        np.linalg.inv(vol.affine) @ slab.affine,
        output_shape=slab.dims,
        output=None if nearest else float,
        order=0 if nearest else 1,
        mode="constant",
        cval=0.0,
        prefilter=False,
    )


def _assert_slab_of(vol, slab, labels=None):
    """``slab`` of the mapped ``vol`` equals, bit for bit, the reference and the full-map sampling of
    an in-memory copy: inside the window of ``labels``, and 0 outside it. Returns the window."""
    memory = Volume(np.array(vol.data), vol.voxel_size, vol.affine)
    ref, full = _reference_slab_data(memory, slab), _full_map_slab(memory, slab)
    assert slab.data.dtype == full.dtype == ref.dtype == vol.data.dtype
    window = (0, slab.dims[0]), (0, slab.dims[1])
    if labels is not None:
        window = _label_window(vol, labels, np.linalg.inv(vol.affine) @ slab.affine, slab.dims[:2])
    (i0, i1), (j0, j1) = window
    inside = np.zeros(slab.dims, dtype=bool)
    inside[i0:i1, j0:j1] = True
    np.testing.assert_array_equal(slab.data[inside], ref[inside])
    np.testing.assert_array_equal(slab.data[inside], full[inside])
    assert not slab.data[~inside].any()
    return window


def _ball_map(rng, shape=(40, 36, 44)):
    """A whole-brain-like label map: large balls around a small two-label CC at the center."""
    centers = rng.integers(6, np.array(shape) - 6, (6, 3))
    balls = [(tuple(int(c) for c in ctr), 6, lab) for lab, ctr in zip(range(2, 8), centers)]
    mid = np.array(shape) // 2
    balls += [(tuple(int(c) for c in mid + (0, -3, 0)), 3, 251), (tuple(int(c) for c in mid + (0, 3, 1)), 3, 252)]
    return label_ball_volume(shape, balls)


def _tilted_plane(rng, vol):
    """A plane through the volume's central voxel whose normal is its first axis tilted at random."""
    normal = vol.affine[:3, 0] / np.linalg.norm(vol.affine[:3, 0]) + rng.normal(0, 0.15, 3)
    normal /= np.linalg.norm(normal)
    return Plane(normal, float(normal @ vol.voxel_to_world(np.array(vol.dims) // 2)[0]))


class TestMappedSlab:
    """A slab of a mapped file is sampled from a box-sized copy read chunk by chunk; it must not differ."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", 3 * 40 * 36)  # 3 planes of a ball map

    @pytest.mark.parametrize("layout", ["F", "C"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tilted_planes(self, tmp_path, seed, layout):
        rng = np.random.default_rng([seed, 46])
        vol = _mapped(tmp_path, _random_label_volume(rng, rng.choice(1000, 6, replace=False) + 1, "F"), layout)
        slab = resample_slab(vol, _random_plane(rng, vol), rng.uniform(2.0, 6.0), rng.uniform(0.4, 1.5), 0.7)
        _assert_slab_of(vol, slab)
        assert np.count_nonzero(slab.data) > 100

    @pytest.mark.parametrize("layout", ["F", "C"])
    @pytest.mark.parametrize("seed", range(4))
    def test_label_window_on_tilted_planes(self, tmp_path, seed, layout):
        rng = np.random.default_rng([seed, 47])
        vol = _mapped(tmp_path, Volume(_ball_map(rng).data, (1, 1, 1), _random_affine(rng)), layout)
        labels = [251, 252]
        slab = resample_slab(vol, _tilted_plane(rng, vol), 5.0, rng.uniform(0.5, 1.0), rng.uniform(0.4, 0.8), labels)
        _assert_slab_of(vol, slab, labels)
        assert np.isin(slab.data, labels).sum() > 20

    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    def test_axis_aligned_plane_at_half_voxel_positions(self, tmp_path, spacing):
        # the arch_cohort slab: 0.5 mm pixels on an even grid put every in-plane sample
        # on a voxel face, where nearest-neighbour rounding breaks a tie
        vol = _mapped(tmp_path, arch_mask_volume(n_inplane=64, r_in=5.5, r_out=7.5)[0], "F")
        plane = Plane(np.array([1.0, 0.0, 0.0]), 0.0)
        full = resample_slab(vol, plane, 5.0, spacing, 0.5)
        assert np.all((np.linalg.inv(vol.affine) @ full.affine)[1:3, 3] % 1 == 0.5)
        _assert_slab_of(vol, full)
        win = resample_slab(vol, plane, 5.0, spacing, 0.5, labels=[251])
        _assert_slab_of(vol, win, [251])
        assert np.isin(win.data, 251).sum() == np.isin(full.data, 251).sum() > 0

    def test_window_clipped_at_the_volume_border(self, tmp_path):
        base = label_ball_volume((9, 20, 16), [((4, 0, 8), 3, 251), ((4, 15, 8), 3, 9), ((4, 8, 15), 2, 252)])
        vol = _mapped(tmp_path, base, "F")
        slab = resample_slab(vol, Plane(np.array([1.0, 0.0, 0.0]), 4.0), 5.0, 1.0, 1.0, labels=[251, 252])
        (i0, i1), (j0, j1) = _assert_slab_of(vol, slab, [251, 252])
        assert i0 == 0 and j1 == slab.dims[1]  # the window meets the grid's edge at y = 0 and z = 15
        assert np.isin(slab.data, 251).any() and np.isin(slab.data, 252).any()

    def test_empty_window(self, tmp_path, monkeypatch):
        vol = _mapped(tmp_path, _ball_map(np.random.default_rng(48)), "F")
        plane = Plane(np.array([1.0, 0.0, 0.0]), 20.0)
        full = resample_slab(vol, plane, 5.0, 1.0, 1.0)
        vol.label_table  # noqa: B018 - scanned before the spies
        calls = _spy_reads(monkeypatch)
        monkeypatch.setattr(ndimage, "affine_transform", lambda *a, **k: calls.append(a))
        empty = resample_slab(vol, plane, 5.0, 1.0, 1.0, labels=[250, 253])
        assert calls == []  # nothing is read
        assert empty.dims == full.dims and empty.data.dtype == full.data.dtype and not empty.data.any()

    @pytest.mark.parametrize("labels", [None, [251, 252]])
    def test_reads_the_box_not_the_map(self, tmp_path, monkeypatch, labels):
        rng = np.random.default_rng(49)
        vol = _mapped(tmp_path, _ball_map(rng), "F")
        vol.label_table  # noqa: B018 - scanned before the spies
        inputs, transform = [], ndimage.affine_transform
        monkeypatch.setattr(ndimage, "affine_transform", lambda *a, **k: inputs.append(a[0]) or transform(*a, **k))
        reads = _spy_reads(monkeypatch)
        slab = resample_slab(vol, _tilted_plane(rng, vol), 5.0, 1.0, 0.5, labels)
        monkeypatch.undo()
        row_bytes = vol.data[:, 0, 0].nbytes
        plane_bytes = vol.dims[1] * row_bytes
        planes, rows = [], set()
        for offset, nbytes in reads:  # save_volume puts the voxels at byte 352
            plane, at = divmod(offset - 352, plane_bytes)
            planes.extend(range(plane, plane + max(1, nbytes // plane_bytes)))  # whole planes, or rows of one
            rows.add((at // row_bytes, (at + min(nbytes, plane_bytes)) // row_bytes))
        (i0, i1), (j0, j1) = _assert_slab_of(vol, slab, labels)
        assert len(inputs) == 1 and not isinstance(_buffer_owner(inputs[0]), mmap.mmap)
        # each plane that a window sample's nearest voxel lies in is read, once and in
        # order, and the box reaches at most two planes beyond them; so do the rows read,
        # the same rows of every plane
        to_source = np.linalg.inv(vol.affine) @ slab.affine
        ijk = np.indices(slab.dims)[:, i0:i1, j0:j1].reshape(3, -1)
        y, z = np.floor(to_source[1:3, :3] @ ijk + to_source[1:3, 3:] + 0.5)
        inside = (y >= 0) & (y < vol.dims[1]) & (z >= 0) & (z < vol.dims[2])
        y, z = y[inside], z[inside]
        assert planes == list(range(planes[0], planes[-1] + 1))
        assert z.min() - 2 <= planes[0] <= z.min() and z.max() <= planes[-1] <= z.max() + 2
        ((y0, y1),) = rows
        assert y.min() - 2 <= y0 <= y.min() and y.max() <= y1 - 1 <= y.max() + 2
        if labels is not None:
            assert len(planes) < vol.dims[2] // 2 and y1 - y0 < vol.dims[1]  # the window's box, not the volume


class TestLabelTableMemory:
    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_temporaries_below_a_quarter_of_the_volume(self, layout):
        # counted chunk by chunk: the one-pass table held ~1.3x the volume in temporaries
        rng = np.random.default_rng(44)
        shape = (256, 256, 128)
        data = rng.integers(1, 50, size=shape, dtype=np.int32)
        data[rng.integers(0, 10, size=shape, dtype=np.uint8) != 0] = 0  # ~10% non-zero voxels
        vol = Volume(np.asfortranarray(data) if layout == "F" else data, (1, 1, 1), np.eye(4))
        tracemalloc.start()
        try:
            labels = vol.label_table[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels) == 49
        assert peak < 0.25 * vol.data.nbytes

    @pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv")
    def test_scans_of_a_mapped_file_leave_it_paged_out(self, tmp_path, rss_file):
        # pages left mapped by the scans would add all 16 MB of the volume; read
        # positionally, they map none, so not even one chunk's 2 MB
        rng = np.random.default_rng(45)
        data = rng.integers(0, 40, size=(256, 256, 64), dtype=np.int32)
        save_volume(Volume(data, (1, 1, 1), np.eye(4)), tmp_path / "v.nii")
        vol = load_volume(tmp_path / "v.nii")
        Volume(data, (1, 1, 1), np.eye(4)).label_table  # noqa: B018 - its shared-library pages count as RssFile too
        before = rss_file()
        assert vol.is_label_map() and len(vol.label_table[0]) == 39
        assert rss_file() - before < volume._TABLE_CHUNK_VOXELS * data.itemsize

    @pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv")
    def test_slab_of_a_mapped_file_leaves_it_paged_out(self, tmp_path, rss_file):
        # the tilted slab reads a band of x on every line of the 16 MB volume: sampled
        # through the map, that faults in every page of the file
        rng = np.random.default_rng(50)
        data = rng.integers(0, 40, size=(256, 256, 64), dtype=np.int32)
        save_volume(Volume(data, (1, 1, 1), np.eye(4)), tmp_path / "v.nii")
        vol = load_volume(tmp_path / "v.nii")
        assert vol.is_label_map()
        normal = np.array([1.0, 0.1, 0.2]) / np.linalg.norm([1.0, 0.1, 0.2])
        plane = Plane(normal, float(normal @ [128, 128, 32]))
        resample_slab(Volume(data, (1, 1, 1), np.eye(4)), plane, 5.0, 1.0)  # its shared-library pages count as RssFile too
        before = rss_file()
        slab = resample_slab(vol, plane, 5.0, 1.0)
        assert rss_file() - before < volume._TABLE_CHUNK_VOXELS * data.itemsize
        assert np.count_nonzero(slab.data) > 0.5 * slab.data[..., 0].size


class TestPlaneDisagreement:
    def test_identical_planes(self):
        p = Plane([0.3, 0.9, 0.1], 2.0)
        assert plane_disagreement(p, p, 60.0) == 0.0

    def test_parallel_offset(self):
        p1 = Plane([1.0, 0, 0], 0.0)
        p2 = Plane([1.0, 0, 0], 2.0)
        v = plane_disagreement(p1, p2, 60.0)
        expected = 2.0 * np.pi * 60.0**2
        assert abs(v - expected) / expected < 1e-3

    def test_symmetry(self):
        p1 = Plane([1.0, 0.1, 0], 1.0)
        p2 = Plane([0.9, -0.2, 0.1], -0.5)
        assert np.isclose(plane_disagreement(p1, p2, 40), plane_disagreement(p2, p1, 40))

    def test_sign_alignment(self):
        # flipping the orientation of one plane must not change the result
        p1 = Plane([1.0, 0, 0], 1.0)
        p2 = Plane([0.9999995, -0.001, 0], 0.9)
        p2_flipped = Plane(-p2.normal, -p2.offset)
        v = plane_disagreement(p1, p2, 30.0)
        assert np.isclose(plane_disagreement(p1, p2_flipped, 30.0), v)
        assert v > 0

    def test_opposite_normals_error(self):
        p1 = Plane([1.0, 0, 0], 1.0)
        p2 = Plane([-1.0, 0, 0], -1.0)
        with pytest.raises(ValueError, match="ambiguous orientation"):
            plane_disagreement(p1, p2, 30.0)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        a = np.radians(5.0)
        p1 = Plane([np.cos(a / 2), np.sin(a / 2), 0.0], 0.0)
        p2 = Plane([np.cos(a / 2), -np.sin(a / 2), 0.0], 0.0)
        R, H = 60.0, 180.0
        got = plane_disagreement(p1, p2, R, H)
        n = 1_000_000
        r = np.sqrt(rng.uniform(0, R**2, n))
        th = rng.uniform(0, 2 * np.pi, n)
        axis = p1.normal + p2.normal
        axis /= np.linalg.norm(axis)
        # basis identical to the implementation's deterministic frame
        from ccmorph.midplane import _plane_basis

        b1, b2 = _plane_basis(axis)
        h = rng.uniform(-H / 2, H / 2, n)
        pts = r[:, None] * np.cos(th)[:, None] * b1 + r[:, None] * np.sin(th)[:, None] * b2 + h[:, None] * axis
        between = (p1.signed_distance(pts) > 0) != (p2.signed_distance(pts) > 0)
        mc = between.mean() * np.pi * R**2 * H
        assert abs(got - mc) / mc < 0.01
