import gzip
import json
import math
import mmap
import os
import re
import struct

import numpy as np
import pytest

from ccmorph.volume import _DTYPES, NiftiError, Volume, load_volume, save_volume


def _identity_volume(dtype=np.uint8):
    data = np.zeros((4, 4, 4), dtype=dtype)
    return Volume(data, (1.0, 1.0, 1.0), np.eye(4))


def test_roundtrip_identity(tmp_path):
    vol = _identity_volume()
    p = tmp_path / "zeros.nii"
    save_volume(vol, p)
    back = load_volume(p)
    again = tmp_path / "zeros2.nii"
    save_volume(back, again)
    back2 = load_volume(again)
    assert back2.dims == vol.dims
    assert np.array_equal(back2.data, vol.data)
    assert back2.data.dtype == vol.data.dtype
    assert np.array_equal(back2.affine, vol.affine)
    assert np.array_equal(back2.voxel_size, vol.voxel_size)


def test_roundtrip_gzip_and_values(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 200, size=(5, 7, 3)).astype(np.int16)
    aff = np.eye(4)
    aff[:3, 3] = (1.5, -2.0, 3.0)
    vol = Volume(data, (0.7, 1.0, 2.0), aff)
    p = tmp_path / "x.nii.gz"
    save_volume(vol, p)
    back = load_volume(p)
    assert np.array_equal(back.data, data)
    assert back.data.dtype == np.int16
    np.testing.assert_allclose(back.voxel_size, np.float32([0.7, 1.0, 2.0]))
    np.testing.assert_allclose(back.affine, np.float32(aff))


def _buffer_owner(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


@pytest.mark.parametrize("name", ["view.nii", "view.nii.gz"])
def test_native_order_load_is_read_only_view(tmp_path, name):
    data = np.random.default_rng(1).integers(0, 3000, size=(5, 6, 7)).astype(np.int32)
    p = tmp_path / name
    save_volume(Volume(data, (1.0, 1.0, 1.0), np.eye(4)), p)
    back = load_volume(p)
    assert not back.data.flags.writeable
    assert not back.data.flags.owndata
    # the mapped file or the bytes read, not a copy of them
    assert isinstance(_buffer_owner(back.data), bytes if name.endswith(".gz") else mmap.mmap)
    np.testing.assert_array_equal(back.data, data)


def _nifti_bytes(code, end, slope=1.0, vox_offset=352, dims=(3, 4, 5)):
    """A NIfTI-1 file of random voxel bytes, any datatype and byte order."""
    dtype = np.dtype(_DTYPES[code]).newbyteorder(end)
    hdr = bytearray(348)
    struct.pack_into(end + "i", hdr, 0, 348)
    struct.pack_into(end + "8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(end + "hh", hdr, 70, code, dtype.itemsize * 8)
    struct.pack_into(end + "8f", hdr, 76, 1.0, 0.5, 1.0, 2.0, 0, 0, 0, 0)
    struct.pack_into(end + "f", hdr, 108, float(vox_offset))
    struct.pack_into(end + "ff", hdr, 112, slope, 3.0 if slope != 1.0 else 0.0)
    struct.pack_into(end + "hh", hdr, 252, 0, 1)
    struct.pack_into(end + "12f", hdr, 280, 0.5, 0, 0, -1, 0, 1, 0, 2, 0, 0, 2, 3)
    struct.pack_into("4s", hdr, 344, b"n+1\0")
    voxels = np.random.default_rng(code).bytes(math.prod(dims) * dtype.itemsize)
    return bytes(hdr) + bytes(vox_offset - 348) + voxels


@pytest.mark.parametrize("code", sorted(_DTYPES))
@pytest.mark.parametrize("end", ["<", ">"])
@pytest.mark.parametrize("variant", [{}, {"slope": 2.5}, {"vox_offset": 355}])
def test_mapped_nii_equals_gzip(tmp_path, code, end, variant):
    blob = _nifti_bytes(code, end, **variant)
    (tmp_path / "v.nii").write_bytes(blob)
    (tmp_path / "v.nii.gz").write_bytes(gzip.compress(blob))
    mapped, read = load_volume(tmp_path / "v.nii"), load_volume(tmp_path / "v.nii.gz")
    assert mapped.data.dtype == read.data.dtype and mapped.data.shape == read.data.shape == (3, 4, 5)
    assert mapped.data.tobytes(order="F") == read.data.tobytes(order="F")  # bit for bit, NaN payloads too
    assert np.array_equal(mapped.affine, read.affine) and np.array_equal(mapped.voxel_size, read.voxel_size)
    # only a native-order unscaled file stays a view of the map
    native = np.dtype(_DTYPES[code]).newbyteorder(end).isnative  # single bytes have no order
    assert isinstance(_buffer_owner(mapped.data), mmap.mmap) == (native and "slope" not in variant)


@pytest.mark.parametrize("size", [0, 348, 352])
def test_empty_or_header_only_file_raises_nifti_error(tmp_path, size):
    p = tmp_path / "h.nii"
    p.write_bytes(_nifti_bytes(2, "<")[:size])
    with pytest.raises(NiftiError, match="file shorter than|exceed file size"):
        load_volume(p)


def test_file_emptied_before_mapping_raises_nifti_error(tmp_path, monkeypatch):
    # the file is emptied between fstat and mmap, whose ValueError must not escape
    p = tmp_path / "gone.nii"
    p.write_bytes(_nifti_bytes(2, "<"))
    real_fstat = os.fstat

    def fstat_then_empty(fd):
        st = real_fstat(fd)
        p.write_bytes(b"")
        return st

    monkeypatch.setattr(os, "fstat", fstat_then_empty)
    with pytest.raises(NiftiError, match="file shorter than"):
        load_volume(p)
    monkeypatch.undo()
    with open(p, "rb") as f, pytest.raises(ValueError):
        mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def test_mapped_volume_survives_save_over_its_file(tmp_path):
    rng = np.random.default_rng(4)
    first = Volume(rng.integers(0, 50, size=(6, 7, 8)).astype(np.int32), (1.0, 1.0, 1.0), np.eye(4))
    other = Volume(rng.integers(0, 50, size=(6, 7, 8)).astype(np.int32), (0.5, 1.0, 1.0), np.diag([0.5, 1, 1, 1]))
    p = tmp_path / "p.nii"
    save_volume(first, p)
    loaded = load_volume(p)
    assert isinstance(_buffer_owner(loaded.data), mmap.mmap)
    save_volume(other, p)
    np.testing.assert_array_equal(loaded.data, first.data)  # the map keeps the replaced file
    again = load_volume(p)
    np.testing.assert_array_equal(again.data, other.data)
    np.testing.assert_array_equal(again.affine, other.affine)
    assert [q.name for q in tmp_path.iterdir()] == ["p.nii"]  # no temporary file left behind


def test_failed_replace_removes_the_temporary(tmp_path):
    target = tmp_path / "d.nii"  # a non-empty directory: the rename onto it fails
    target.mkdir()
    (target / "keep").write_text("x")
    with pytest.raises(OSError):
        save_volume(_identity_volume(), target)
    assert [q.name for q in tmp_path.iterdir()] == ["d.nii"] and (target / "keep").read_text() == "x"


def _raw_header(
    dims=(4, 4, 4),
    datatype=2,
    bitpix=8,
    pixdim=(1.0, 1.0, 1.0, 1.0),
    srow=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
    sform_code=1,
    magic=b"n+1\0",
    sizeof=348,
):
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, sizeof)
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<hh", hdr, 70, datatype, bitpix)
    struct.pack_into("<8f", hdr, 76, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<hh", hdr, 252, 0, sform_code)
    flat = [v for row in srow for v in row]
    struct.pack_into("<12f", hdr, 280, *flat)
    struct.pack_into("<4s", hdr, 344, magic)
    return bytes(hdr)


def _write_raw(path, hdr, nvox, itemsize=1):
    with open(path, "wb") as f:
        f.write(hdr)
        f.write(b"\0" * 4)
        f.write(b"\0" * (nvox * itemsize))


def test_known_header_bytes_voxel_size(tmp_path):
    # header written with an independent packer; pixdim is float32 on disk
    hdr = _raw_header(pixdim=(1.0, 0.8, 0.8, 0.8))
    p = tmp_path / "raw.nii"
    _write_raw(p, hdr, 64)
    vol = load_volume(p)
    expected = float(np.float32(0.8))
    assert tuple(vol.voxel_size) == (expected, expected, expected)


def test_singular_affine_rejected(tmp_path):
    hdr = _raw_header(srow=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)))
    p = tmp_path / "sing.nii"
    _write_raw(p, hdr, 64)
    with pytest.raises(NiftiError, match="singular affine"):
        load_volume(p)


def test_bad_magic_and_size(tmp_path):
    p = tmp_path / "bad.nii"
    _write_raw(p, _raw_header(magic=b"abc\0"), 64)
    with pytest.raises(NiftiError, match="magic"):
        load_volume(p)
    _write_raw(p, _raw_header(sizeof=100), 64)
    with pytest.raises(NiftiError, match="sizeof_hdr"):
        load_volume(p)


def test_unsupported_datatype(tmp_path):
    # 32 = complex64, not supported
    p = tmp_path / "cplx.nii"
    _write_raw(p, _raw_header(datatype=32, bitpix=64), 64, itemsize=8)
    with pytest.raises(NiftiError, match="unsupported datatype"):
        load_volume(p)


def test_truncated_file(tmp_path):
    p = tmp_path / "short.nii"
    with open(p, "wb") as f:
        f.write(b"\0" * 100)
    with pytest.raises(NiftiError):
        load_volume(p)


def test_big_endian_read(tmp_path):
    hdr = bytearray(348)
    struct.pack_into(">i", hdr, 0, 348)
    struct.pack_into(">8h", hdr, 40, 3, 2, 2, 2, 1, 1, 1, 1)
    struct.pack_into(">hh", hdr, 70, 4, 16)  # int16
    struct.pack_into(">8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into(">f", hdr, 108, 352.0)
    struct.pack_into(">hh", hdr, 252, 0, 1)
    struct.pack_into(">12f", hdr, 280, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)
    struct.pack_into(">4s", hdr, 344, b"n+1\0")
    data = np.arange(8, dtype=">i2")
    p = tmp_path / "be.nii"
    with open(p, "wb") as f:
        f.write(bytes(hdr))
        f.write(b"\0" * 4)
        f.write(data.tobytes())
    vol = load_volume(p)
    assert np.array_equal(vol.data.ravel(order="F"), np.arange(8))


def test_gzip_header_detection(tmp_path):
    vol = _identity_volume()
    p = tmp_path / "z.nii.gz"
    save_volume(vol, p)
    with gzip.open(p, "rb") as f:
        raw = f.read(4)
    assert struct.unpack("<i", raw)[0] == 348


def test_scl_slope_applied(tmp_path):
    hdr = bytearray(_raw_header(datatype=4, bitpix=16))
    struct.pack_into("<ff", hdr, 112, 2.0, 10.0)  # slope, inter
    data = np.arange(64, dtype="<i2")
    p = tmp_path / "scl.nii"
    with open(p, "wb") as f:
        f.write(bytes(hdr))
        f.write(b"\0" * 4)
        f.write(data.tobytes())
    vol = load_volume(p)
    assert vol.data.dtype == np.float64
    assert vol.data.ravel(order="F")[3] == 2.0 * 3 + 10.0


def test_vox_offset_not_a_multiple_of_itemsize(tmp_path):
    hdr = bytearray(_raw_header(datatype=8, bitpix=32))
    struct.pack_into("<f", hdr, 108, 353.0)
    data = np.arange(64, dtype="<i4") * 100003 - 7
    p = tmp_path / "odd.nii"
    with open(p, "wb") as f:
        f.write(bytes(hdr))
        f.write(b"\0" * 5)
        f.write(data.tobytes())
    vol = load_volume(p)
    assert vol.data.dtype == np.int32
    np.testing.assert_array_equal(vol.data.ravel(order="F"), data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint16, np.int32])
def test_roundtrip_dtypes(tmp_path, dtype):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(3, 4, 5))
    if np.issubdtype(dtype, np.integer):
        data = np.abs(data * 100)
    data = data.astype(dtype)
    vol = Volume(data, (1.0, 1.0, 1.0), np.eye(4))
    p = tmp_path / "d.nii"
    save_volume(vol, p)
    back = load_volume(p)
    assert back.data.dtype == dtype
    np.testing.assert_array_equal(back.data, data)


def test_volume_immutable():
    v = Volume(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), np.eye(4))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1
    with pytest.raises(Exception):
        v.affine = np.eye(4)


def test_volume_invariants():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0), np.eye(4))
    with pytest.raises(NiftiError):
        Volume(np.zeros((2, 2, 2)), (1, 1, 1), np.zeros((4, 4)))
    for bad in (np.nan, np.inf):
        affine = np.eye(4)
        affine[1, 3] = bad
        with pytest.raises(NiftiError, match="non-finite affine"):
            Volume(np.zeros((2, 2, 2)), (1, 1, 1), affine)
    v = Volume(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), np.eye(4))
    assert v.is_label_map()
    w = Volume(np.zeros((2, 2, 2)) - 0.5, (1, 1, 1), np.eye(4))
    assert not w.is_label_map()


def test_is_label_map_scans_each_volume_once(monkeypatch):
    scanned = []
    real_min = np.min
    monkeypatch.setattr(np, "min", lambda a, *args, **kw: scanned.append(a.size) or real_min(a, *args, **kw))
    labels = Volume(np.arange(24, dtype=np.int32).reshape(2, 3, 4), (1, 1, 1), np.eye(4))
    signed = Volume(np.arange(-1, 7, dtype=np.int16).reshape(2, 2, 2), (1, 1, 1), np.eye(4))
    scalar = Volume(np.zeros((2, 2, 2)), (1, 1, 1), np.eye(4))
    for _ in range(3):
        assert labels.is_label_map() and not signed.is_label_map() and not scalar.is_label_map()
    assert scanned == [24, 8]  # one scan per integer volume, none for floats


def test_table_pass_decides_is_label_map(monkeypatch):
    """A volume whose table is needed is read once: the table's pass answers ``is_label_map``."""
    from ccmorph import volume

    scanned, counted = [], []
    real_min, real_chunk_table = np.min, volume._chunk_table
    monkeypatch.setattr(np, "min", lambda a, *args, **kw: scanned.append(a.size) or real_min(a, *args, **kw))
    monkeypatch.setattr(volume, "_chunk_table", lambda c, start: counted.append(start) or real_chunk_table(c, start))
    monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", 12)  # one 3 x 4 plane a chunk
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4) % 5

    def vol(d):
        return Volume(d, (1, 1, 1), np.eye(4))

    labels = vol(data)
    assert labels._is_label_map_with_table() and labels.is_label_map()
    assert counted == [0, 1] and scanned == [] and "label_table" in labels.__dict__
    table_first = vol(data)
    assert table_first.label_table[0].tolist() == [1, 2, 3, 4]
    assert table_first.is_label_map() and scanned == []  # a built table answers
    assert vol(np.zeros((2, 3, 4), dtype=np.uint8))._is_label_map_with_table()  # no labels at all

    signed = data.copy()
    signed[0, 1, 2] = -3
    counted.clear()
    first = vol(signed)
    assert not first._is_label_map_with_table() and not first.is_label_map()
    assert counted == [0, 1] and scanned == []  # counted whole, with no scan
    assert first.__dict__["label_table"][0].tolist() == [-3, 1, 2, 3, 4]  # the kept table lists the negative label

    counted.clear()
    assert not vol(data.astype(float))._is_label_map_with_table() and counted == []  # floats: no pass
    scanned.clear()
    scanned_first = vol(data)
    assert scanned_first.is_label_map() and scanned == [12, 12]
    assert scanned_first._is_label_map_with_table() and counted == []  # decided already: no table is forced


# Seeded malformed files. Each must raise NiftiError from load_volume and
# exit 2 (bad input) from every command that reads a volume. A header field
# that is not finite is named in the message (the pattern to match).
NON_FINITE = {
    "vox_offset_inf": "vox_offset = inf",
    "srow_nan": r"srow_[xyz]\[\d\] = nan",
    "srow_inf": r"srow_[xyz]\[\d\] = -?inf",
    "quatern_nan": r"(quatern_[bcd]|qoffset_[xyz]) = nan",
}
BAD_CASES = ["truncated_gz", "garbled_gz", "short_header", "garbled_sizeof_hdr", "garbled_magic", *NON_FINITE]


@pytest.fixture(scope="module")
def bad_volumes(tmp_path_factory):
    from ccmorph.transforms import Landmarks, Plane

    root = tmp_path_factory.mktemp("bad_nifti")
    rng = np.random.default_rng(20)
    vol = Volume(rng.integers(0, 3, size=(6, 6, 6)).astype(np.uint8), (1.0, 1.0, 1.0), np.eye(4))
    save_volume(vol, root / "good.nii")
    raw = (root / "good.nii").read_bytes()
    gz = gzip.compress(raw, mtime=0)
    garbled_gz = bytearray(gz)
    # flip a byte in the first half of the deflate data (after the 10-byte
    # gzip header), where no flip leaves the decompressed bytes intact
    garbled_gz[int(rng.integers(10, len(gz) // 2))] ^= 0xFF
    sizeof = 348
    while sizeof == 348 or struct.unpack(">i", struct.pack("<i", sizeof))[0] == 348:
        sizeof = int(rng.integers(-(2**31), 2**31))
    files = {
        "truncated_gz": ("nii.gz", gz[: int(rng.integers(0, len(gz)))]),
        "garbled_gz": ("nii.gz", bytes(garbled_gz)),
        "short_header": ("nii", raw[: int(rng.integers(0, 348))]),
        "garbled_sizeof_hdr": ("nii", struct.pack("<i", sizeof) + raw[4:]),
        "garbled_magic": ("nii", raw[:344] + rng.bytes(4) + raw[348:]),
    }

    def patch(blob, offset, fmt, *values):
        return blob[:offset] + struct.pack(fmt, *values) + blob[offset + struct.calcsize(fmt) :]

    srow_at = 280 + 4 * rng.choice(12, 2, replace=False)  # two of the 12 srow floats
    qform = patch(raw, 252, "<hh", 1, 0)  # qform_code 1, sform_code 0
    files["vox_offset_inf"] = ("nii", patch(raw, 108, "<f", np.inf))
    files["srow_nan"] = ("nii", patch(raw, int(srow_at[0]), "<f", np.nan))
    files["srow_inf"] = ("nii", patch(raw, int(srow_at[1]), "<f", rng.choice([-np.inf, np.inf])))
    files["quatern_nan"] = ("nii", patch(qform, 256 + 4 * int(rng.integers(0, 6)), "<f", np.nan))
    paths = {"good": root / "good.nii", "lm": root / "lm.json", "plane": root / "plane.json"}
    for name, (ext, blob) in files.items():
        paths[name] = root / f"{name}.{ext}"
        paths[name].write_bytes(blob)
    paths["lm"].write_text(Landmarks(np.array([3.0, 4.0, 1.0]), np.array([3.0, 1.0, 1.0])).to_json())
    paths["plane"].write_text(Plane(np.array([1.0, 0.0, 0.0]), 3.0).to_json())
    return paths


@pytest.mark.parametrize("case", BAD_CASES)
def test_malformed_file_raises_nifti_error(bad_volumes, case):
    with pytest.raises(NiftiError, match=NON_FINITE.get(case)):
        load_volume(bad_volumes[case])


@pytest.mark.parametrize("case", BAD_CASES)
@pytest.mark.parametrize("command", ["thickness", "midplane", "eval"])
def test_malformed_file_exits_2(bad_volumes, case, command, tmp_path, capsys):
    from ccmorph.cli import main

    bad, good = str(bad_volumes[case]), str(bad_volumes["good"])
    lm, plane, out = str(bad_volumes["lm"]), str(bad_volumes["plane"]), str(tmp_path / "out")
    argv = {
        "thickness": ["thickness", "--labels", bad, "--landmarks", lm, "--plane", plane, "--out", out],
        "midplane": ["midplane", "--subject", bad, "--template-seg", good, "--template-plane", plane, "--out", out],
        "eval": ["eval", "--pred", bad, "--ref", good],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    message = captured.out + captured.err  # names the file and, if not finite, the field
    assert f"{bad}: " in message and re.search(NON_FINITE.get(case, ""), message)


def test_malformed_template_is_input_error(bad_volumes, tmp_path):
    from ccmorph.config import RunConfig
    from ccmorph.pipeline import CaseSpec, run_case

    case = CaseSpec("tpl", str(bad_volumes["good"]), str(bad_volumes["lm"]))
    cfg = RunConfig(template_seg=str(bad_volumes["truncated_gz"]), template_plane=str(bad_volumes["plane"]))
    status = run_case(case, cfg.validate(), tmp_path / "out")
    assert status["error_kind"] == "input"
    assert [s["status"] for s in status["stages"][:3]] == ["ok", "ok", "failed"]


# Plane and landmark files that are valid JSON of the wrong shape. Each is
# bad input (exit 2 with a message), never an internal error.
BAD_PLANES = {"no_offset": {"normal": [1.0, 0.0, 0.0]}, "list": [1, 2], "string": "x"}
BAD_LANDMARKS = {"no_pc": {"ac": [3.0, 4.0, 1.0]}, "list": [1, 2], "string": "x"}


@pytest.mark.parametrize("case", sorted(BAD_PLANES))
@pytest.mark.parametrize("command", ["thickness", "midplane"])
def test_bad_plane_file_exits_2(bad_volumes, case, command, tmp_path, capsys):
    from ccmorph.cli import main

    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(BAD_PLANES[case]))
    good, lm, out = str(bad_volumes["good"]), str(bad_volumes["lm"]), str(tmp_path / "out")
    argv = {
        "thickness": ["thickness", "--labels", good, "--landmarks", lm, "--plane", str(plane), "--out", out],
        "midplane": ["midplane", "--subject", good, "--template-seg", good, "--template-plane", str(plane), "--out", out],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "invalid plane file" in captured.out + captured.err


@pytest.mark.parametrize("case", sorted(BAD_LANDMARKS))
def test_bad_landmark_file_is_input_error(bad_volumes, case, tmp_path):
    from ccmorph.config import RunConfig
    from ccmorph.pipeline import CaseSpec, run_case

    (tmp_path / "lm.json").write_text(json.dumps(BAD_LANDMARKS[case]))
    spec = CaseSpec("lm", str(bad_volumes["good"]), str(tmp_path / "lm.json"), str(bad_volumes["plane"]))
    status = run_case(spec, RunConfig().validate(), tmp_path / "out")
    assert status["error_kind"] == "input"
    assert status["stages"][0]["error"].startswith("InputError: invalid landmark file")


def _random_labels(seed, shape=(23, 19, 17)):
    rng = np.random.default_rng(seed)
    data = rng.choice(np.array([0, 2, 5, 9], dtype=np.int32), size=shape, p=[0.7, 0.1, 0.1, 0.1])
    return Volume(data, (1, 1, 1), np.eye(4))


def _tables_equal(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.label_table + a.label_bounds, b.label_table + b.label_bounds))


def _wait(pid, timeout):
    """The exit code of child ``pid``, killed if it has not exited within ``timeout`` seconds."""
    import signal
    import time

    deadline = time.monotonic() + timeout
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            done = os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(done[1])


@pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv")
class TestPositionalReader:
    """A mapped file's chunks are read with positional reads through the map's own descriptor."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        from ccmorph import volume

        monkeypatch.setattr(volume, "_TABLE_CHUNK_VOXELS", 3 * 23 * 19)  # 3 planes a chunk, 6 chunks

    def test_no_descriptor_leaks(self, tmp_path):
        fds = "/proc/self/fd"
        if not os.path.isdir(fds):
            pytest.skip("no /proc/self/fd")
        save_volume(_random_labels(60), tmp_path / "v.nii")
        before = len(os.listdir(fds))
        for _ in range(200):
            vol = load_volume(tmp_path / "v.nii")
            assert vol.is_label_map() and len(vol.label_table[0]) == 3
            del vol
        assert len(os.listdir(fds)) == before

    def test_replaced_file_reads_its_old_bytes(self, tmp_path):
        first, other = _random_labels(61), _random_labels(62)
        save_volume(first, tmp_path / "v.nii")
        loaded = load_volume(tmp_path / "v.nii")
        save_volume(other, tmp_path / "v.nii")
        assert _tables_equal(loaded, first) and not _tables_equal(load_volume(tmp_path / "v.nii"), first)

    def test_loaded_volume_pickles(self, tmp_path):
        import pickle

        save_volume(_random_labels(63), tmp_path / "v.nii")
        loaded = load_volume(tmp_path / "v.nii")
        loaded.label_table  # noqa: B018 - the cached table goes along
        back = pickle.loads(pickle.dumps(loaded))
        np.testing.assert_array_equal(back.data, loaded.data)
        assert _tables_equal(back, loaded)

    def test_reads_leave_the_file_offset_alone(self, tmp_path):
        # a forked child shares the descriptor and its offset with its parent: a seek and a read
        # in one would move the other's, so the reads must not use the offset at all
        from ccmorph import volume

        expected = _random_labels(64)
        save_volume(expected, tmp_path / "v.nii")
        loaded = load_volume(tmp_path / "v.nii")
        assert volume._file_source(loaded.data.T) is not None
        fd = _buffer_owner(loaded.data).fd
        os.lseek(fd, 123, os.SEEK_SET)
        assert _tables_equal(loaded, expected) and os.lseek(fd, 0, os.SEEK_CUR) == 123
        if not hasattr(os, "fork"):
            return
        pid = os.fork()
        if pid == 0:  # the child scans fresh views of the same map as the parent, at the same time
            status = 1
            try:
                if all(_tables_equal(Volume(loaded.data, (1, 1, 1), np.eye(4)), expected) for _ in range(50)):
                    status = 0
            finally:
                os._exit(status)
        try:
            for _ in range(50):
                assert _tables_equal(Volume(loaded.data, (1, 1, 1), np.eye(4)), expected)
        finally:
            code = _wait(pid, timeout=60)
        assert code == 0

    def test_truncated_file_raises_nifti_error_not_sigbus(self, tmp_path):
        # a fault on a mapped page past the end of the file kills the process with SIGBUS
        import subprocess
        import sys
        from pathlib import Path

        import ccmorph

        path = tmp_path / "v.nii"
        save_volume(Volume(np.ones((64, 64, 64), dtype=np.int32), (1, 1, 1), np.eye(4)), path)
        code = (
            "import os, sys\n"
            "from ccmorph.volume import NiftiError, load_volume\n"
            "vol = load_volume(sys.argv[1])\n"
            "os.truncate(sys.argv[1], 352 + 4 * 64 * 64 * 40)\n"
            "try:\n"
            "    vol.label_table\n"
            "except NiftiError as e:\n"
            "    print(e)\n"
            "    sys.exit(3)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ccmorph.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert str(path) in proc.stdout and "truncated" in proc.stdout
