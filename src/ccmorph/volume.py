"""3D volumes and NIfTI-1 single-file I/O.

Volumes are stored with the data array indexed ``data[x, y, z]`` (x fastest
on disk, i.e. Fortran layout) together with per-axis voxel sizes and a 4x4
voxel-to-world affine. World coordinates follow the NIfTI RAS convention.
"""

from __future__ import annotations

import functools
import gzip
import math
import mmap
import os
import stat
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Volume", "NiftiError", "load_volume", "save_volume"]


class NiftiError(ValueError):
    """Malformed or unsupported NIfTI-1 file."""


# NIfTI-1 datatype code -> numpy dtype (unscaled, on-disk)
_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
    1024: np.int64,
    1280: np.uint64,
}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}

_HDR_SIZE = 348
# voxels per chunk of the label scans and the slab's box read (_plane_chunks): 8 planes of 256 x 256,
# or a whole 0.5 mm slab; 2**18 to 2**21 time alike on a 256^3 label map, and the temporaries grow with the chunk
_TABLE_CHUNK_VOXELS = 2**19
_QFORM_FIELDS = ("quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z")
_SROW_FIELDS = tuple(f"srow_{axis}[{k}]" for axis in "xyz" for k in range(4))


@dataclass(frozen=True)
class Volume:
    """A 3D scalar or integer-label grid with world geometry.

    Attributes
    ----------
    data : np.ndarray
        Shape ``(nx, ny, nz)``, indexed x-fastest.
    voxel_size : np.ndarray
        mm per axis, shape (3,), all > 0.
    affine : np.ndarray
        4x4 voxel-index-to-world-mm map (applied to voxel centers).
    """

    data: np.ndarray
    voxel_size: np.ndarray
    affine: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        voxel_size = np.asarray(self.voxel_size, dtype=float).reshape(3)
        affine = np.asarray(self.affine, dtype=float).reshape(4, 4)
        if np.any(voxel_size <= 0):
            raise ValueError(f"voxel sizes must be positive, got {voxel_size}")
        if not np.all(np.isfinite(affine)):
            raise NiftiError("non-finite affine")
        if abs(np.linalg.det(affine[:3, :3])) < 1e-12:
            raise NiftiError("singular affine")
        # expose read-only views; types are immutable after construction
        data, voxel_size, affine = data.view(), voxel_size.view(), affine.view()
        for arr in (data, voxel_size, affine):
            arr.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "voxel_size", voxel_size)
        object.__setattr__(self, "affine", affine)

    @property
    def dims(self) -> tuple:
        return self.data.shape

    def voxel_to_world(self, ijk: np.ndarray) -> np.ndarray:
        """Map voxel indices (n, 3) to world mm coordinates (n, 3)."""
        ijk = np.atleast_2d(np.asarray(ijk, dtype=float))
        return ijk @ self.affine[:3, :3].T + self.affine[:3, 3]

    def world_to_voxel(self, xyz: np.ndarray) -> np.ndarray:
        xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
        inv = np.linalg.inv(self.affine)
        return xyz @ inv[:3, :3].T + inv[:3, 3]

    def world_center(self) -> np.ndarray:
        """World position of the grid center."""
        c = (np.array(self.dims, dtype=float) - 1.0) / 2.0
        return self.voxel_to_world(c)[0]

    def world_corners(self) -> np.ndarray:
        """World positions of the 8 outermost voxel centers, shape (8, 3)."""
        nx, ny, nz = self.dims
        ijk = np.array(
            [[i, j, k] for i in (0, nx - 1) for j in (0, ny - 1) for k in (0, nz - 1)],
            dtype=float,
        )
        return self.voxel_to_world(ijk)

    @functools.cached_property
    def label_table(self):
        """(labels, voxel counts, world centroids) of the non-zero labels, in one pass.

        Rows follow the sorted distinct labels, so the table's size does not
        depend on the label values. The volume is counted chunk by chunk
        (``_plane_chunks``), so the temporaries scale with one chunk, not the
        volume, and a mapped file's pages are handed back as the pass goes.
        Built on first access and kept for the life of this volume,
        together with ``label_bounds`` from the same pass; the arrays are
        read-only.
        """
        return self._count_labels()

    def _count_labels(self):
        """``label_table``'s pass, which also records ``label_bounds``."""
        tables = [_chunk_table(chunk, start) for start, chunk in _plane_chunks(self.data)]
        chunk_labels, chunk_counts, chunk_sums, chunk_lo, chunk_hi = zip(*tables)
        labels, rows = np.unique(np.concatenate(chunk_labels), return_inverse=True)
        counts = np.zeros(len(labels), dtype=np.intp)
        np.add.at(counts, rows, np.concatenate(chunk_counts))
        sums = np.zeros((len(labels), 3))
        # integer coordinate sums are exact in float64, so the order of addition does not matter
        np.add.at(sums, rows, np.concatenate(chunk_sums))
        lo = np.full((len(labels), 3), np.iinfo(np.intp).max)
        np.minimum.at(lo, rows, np.concatenate(chunk_lo))
        hi = np.full((len(labels), 3), -1)
        np.maximum.at(hi, rows, np.concatenate(chunk_hi))
        if not self.data.flags.c_contiguous:  # the chunks were planes of the transpose
            sums, lo, hi = sums[:, ::-1], lo[:, ::-1], hi[:, ::-1]
        table = (labels, counts, self.voxel_to_world(sums / counts[:, None]))
        for arr in table + (lo, hi):
            arr.flags.writeable = False
        self.__dict__["label_bounds"] = (lo, hi)
        return table

    @functools.cached_property
    def label_bounds(self):
        """(lo, hi): each ``label_table`` label's lowest and highest voxel index per axis.

        Two read-only ``(labels, 3)`` integer arrays in the rows of
        ``label_table`` and the axis order of ``data``; the pass that builds
        the table records them.
        """
        self.label_table  # noqa: B018 - the table's pass fills this property
        return self.__dict__["label_bounds"]

    def is_label_map(self) -> bool:
        """Whether the data are non-negative integers (one scan per volume, none once ``label_table`` is built)."""
        return self._is_label_map

    @functools.cached_property
    def _is_label_map(self) -> bool:
        if not np.issubdtype(self.data.dtype, np.integer):
            return False
        if "label_table" in self.__dict__:  # its pass saw every voxel, and 0 is no label
            labels = self.label_table[0]
            return bool(not len(labels) or labels[0] > 0)
        # initial=0 gives an empty chunk a minimum, and leaves any other chunk's sign as it is
        return all(np.min(chunk, initial=0) >= 0 for _, chunk in _plane_chunks(self.data))

    def _is_label_map_with_table(self) -> bool:
        """``is_label_map()`` of a volume whose ``label_table`` is needed anyway.

        An undecided integer volume is decided by building its table, so its
        data are read once, not twice; a signed volume is counted whole too.
        """
        if "_is_label_map" not in self.__dict__ and np.issubdtype(self.data.dtype, np.integer):
            self.label_table  # noqa: B018 - the table's pass decides
        return self.is_label_map()


def _plane_chunks(data, first=0, stop=None):
    """Yield ``(start, chunk)``: the planes ``start, start + 1, ...`` of ``data``
    along its slowest memory axis, from plane ``first`` up to ``stop`` (the
    last plane by default), about ``_TABLE_CHUNK_VOXELS`` voxels a chunk.

    A C-contiguous volume is cut as it is, any other layout (a Fortran-ordered
    one included) as its transpose, so a chunk's axes are (z, y, x) of a loaded
    volume. An empty plane range gives one empty chunk. When ``data`` view a
    read-only file map, each chunk's whole pages are handed back to the page
    cache once the caller asks for the next chunk: a scan then holds one chunk
    of the file resident, not the volume, and a later read of those pages
    faults the same bytes back in from the page cache.
    """
    planes = data if data.flags.c_contiguous else data.T
    stop = len(planes) if stop is None else stop
    depth = max(1, _TABLE_CHUNK_VOXELS // max(1, math.prod(planes.shape[1:])))
    # chunks of C-contiguous planes are contiguous, so each owns the bytes between its ends
    file_map = _read_only_map(data) if planes.flags.c_contiguous else None
    for start in range(first, max(stop, first + 1), depth):
        chunk = planes[start : min(start + depth, stop)]
        yield start, chunk
        if file_map is not None:
            _release_pages(*file_map, chunk)


def _read_box(data, lo, hi):
    """An in-memory copy of ``data[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]``.

    The box is read plane range by plane range through ``_plane_chunks``, so
    a mapped file's pages go back to the page cache chunk by chunk; only the
    box-sized copy stays. It is laid out as ``data``'s planes, so each chunk's
    rows are copied as they are.
    """
    transposed = not data.flags.c_contiguous  # _plane_chunks cuts such data as its transpose
    if transposed:
        lo, hi = lo[::-1], hi[::-1]
    box = np.empty(tuple(hi - lo), dtype=data.dtype)
    rows = (slice(None), slice(lo[1], hi[1]), slice(lo[2], hi[2]))
    for start, chunk in _plane_chunks(data, lo[0], hi[0]):
        box[start - lo[0] : start - lo[0] + len(chunk)] = chunk[rows]
    return box.T if transposed else box


def _read_only_map(data):
    """(map, address of its first byte) of the read-only ``mmap.mmap`` that ``data``
    view, or None: for data read into memory (a ``.nii.gz`` file), copies (a
    byte-swapped or scaled file) and platforms without ``madvise``.
    """
    base = data
    while isinstance(base, np.ndarray):
        base = base.base
    if not (hasattr(mmap, "MADV_DONTNEED") and isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)):
        return None
    whole = np.frombuffer(base.obj, dtype=np.uint8)
    # a private (copy-on-write) map would lose its written pages to MADV_DONTNEED
    return None if whole.flags.writeable else (base.obj, whole.ctypes.data)


def _release_pages(file_map, address, chunk):
    """Hand the whole pages of a contiguous chunk of ``file_map`` back to the page cache."""
    start = chunk.ctypes.data - address
    first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE  # pages shared with a neighbouring chunk stay
    end = (start + chunk.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if end > first:
        try:
            file_map.madvise(mmap.MADV_DONTNEED, first, end - first)
        except OSError:  # advice only: the pages stay resident, the bytes are the same
            pass


def _chunk_table(chunk, start):
    """(labels, counts, coordinate sums, lowest and highest indices) of the planes
    ``start, start + 1, ...`` in ``chunk``.

    The unit counted is a run of equal non-zero voxels along the last axis,
    not a voxel: a run of n voxels from x0 on line (z, y) adds n to its
    label's count and n z, n y and n x0 + n (n - 1) / 2 to its coordinate
    sums, and spans the indices (z, y, x0) to (z, y, x0 + n - 1).
    """
    nx = chunk.shape[2]
    run_start = np.empty(chunk.shape, dtype=bool)
    np.not_equal(chunk[..., :1], 0, out=run_start[..., :1])  # a line's background continues the run before it
    np.not_equal(chunk[..., 1:], chunk[..., :-1], out=run_start[..., 1:])
    first = np.flatnonzero(run_start)
    values = chunk.ravel()[first]  # ravel copies only a non-contiguous chunk
    line, x0 = np.divmod(first, nx)
    n = np.minimum(np.diff(first, append=run_start.size), nx - x0)  # a run ends at its line's end
    keep = values != 0
    values, n, line, x0 = values[keep], n[keep], line[keep], x0[keep]
    labels, rows = np.unique(values, return_inverse=True)
    z, y = np.divmod(line, chunk.shape[1])
    z += start
    weights = (n, n * z, n * y, n * x0 + n * (n - 1) // 2)
    counts, *sums = [np.bincount(rows, weights=w, minlength=len(labels)) for w in weights]
    lo = np.full((3, len(labels)), np.iinfo(np.intp).max)
    hi = np.full((3, len(labels)), -1)
    for axis, (low, high) in enumerate(((z, z), (y, y), (x0, x0 + n - 1))):
        np.minimum.at(lo[axis], rows, low)  # one axis at a time: 1-D ``at`` is several times faster
        np.maximum.at(hi[axis], rows, high)
    return labels, counts.astype(np.intp), np.column_stack(sums), lo.T, hi.T


def _read_raw(path):
    """The file's bytes: a read-only map of an uncompressed regular file, else the bytes read."""
    if str(path).endswith(".gz"):
        try:
            with gzip.open(path, "rb") as f:
                return f.read()
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise NiftiError(f"truncated or corrupt file: {e}") from None
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size >= _HDR_SIZE:
            try:  # the map holds its own duplicate of the descriptor
                return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # unmappable, or emptied since fstat: read what is there
                pass
        return f.read()


def load_volume(path) -> Volume:
    """Read a NIfTI-1 single-file image (.nii or .nii.gz).

    An uncompressed regular file is mapped read-only rather than copied, so
    a native-order volume's data are a view of the file; ``save_volume``
    replaces files instead of rewriting them, which keeps such a view
    valid. A ``.nii.gz`` file (or a pipe) is read into memory.

    Raises
    ------
    NiftiError
        If the header is malformed (the message names the offending field),
        the datatype is unsupported, or the (gzip) stream is truncated or
        corrupt.
    """
    raw = _read_raw(path)
    if len(raw) < _HDR_SIZE:
        raise NiftiError("malformed header: file shorter than 348-byte header")

    sizeof_hdr = struct.unpack("<i", raw[0:4])[0]
    if sizeof_hdr == _HDR_SIZE:
        end = "<"
    elif struct.unpack(">i", raw[0:4])[0] == _HDR_SIZE:
        end = ">"
    else:
        raise NiftiError(f"malformed header: sizeof_hdr = {sizeof_hdr}, expected 348")

    magic = raw[344:348]
    if magic not in (b"n+1\0", b"ni1\0"):
        raise NiftiError(f"malformed header: magic = {magic!r}")
    if magic == b"ni1\0":
        raise NiftiError("malformed header: magic 'ni1' (two-file NIfTI unsupported)")

    dim = struct.unpack(end + "8h", raw[40:56])
    ndim = dim[0]
    if ndim < 3 or ndim > 7:
        raise NiftiError(f"malformed header: dim[0] = {ndim}")
    if any(d > 1 for d in dim[4 : ndim + 1]):
        raise NiftiError(f"malformed header: dim — only 3D volumes supported, got {dim[: ndim + 1]}")
    shape = dim[1:4]
    if any(d < 1 for d in shape):
        raise NiftiError(f"malformed header: dim = {shape}")

    datatype, bitpix = struct.unpack(end + "hh", raw[70:74])
    if datatype not in _DTYPES:
        raise NiftiError(f"unsupported datatype code {datatype}")
    dtype = np.dtype(_DTYPES[datatype]).newbyteorder(end)
    if bitpix != dtype.itemsize * 8:
        raise NiftiError(f"malformed header: bitpix = {bitpix} inconsistent with datatype {datatype}")

    pixdim = struct.unpack(end + "8f", raw[76:108])
    voxel_size = np.abs(np.array(pixdim[1:4], dtype=float))
    if np.any(voxel_size <= 0) or not np.all(np.isfinite(voxel_size)):
        raise NiftiError(f"malformed header: pixdim = {pixdim[1:4]}")

    vox_offset = struct.unpack(end + "f", raw[108:112])[0]
    _check_finite(("vox_offset",), (vox_offset,))
    scl_slope, scl_inter = struct.unpack(end + "ff", raw[112:120])
    qform_code, sform_code = struct.unpack(end + "hh", raw[252:256])
    quatern = struct.unpack(end + "6f", raw[256:280])
    srow = np.array(struct.unpack(end + "12f", raw[280:328]), dtype=float).reshape(3, 4)

    if sform_code > 0:
        _check_finite(_SROW_FIELDS, srow.ravel())
        affine = np.vstack([srow, [0.0, 0.0, 0.0, 1.0]])
    elif qform_code > 0:
        _check_finite(_QFORM_FIELDS, quatern)
        affine = _qform_affine(quatern, pixdim)
    else:
        affine = np.diag([voxel_size[0], voxel_size[1], voxel_size[2], 1.0])
    if abs(np.linalg.det(affine[:3, :3])) < 1e-12:
        raise NiftiError("singular affine")

    offset = int(vox_offset) if vox_offset >= _HDR_SIZE else _HDR_SIZE + 4
    n = int(np.prod(shape))
    if len(raw) < offset + n * dtype.itemsize:
        raise NiftiError("malformed header: vox_offset/dim exceed file size")
    # a read-only view of the mapped or read bytes; only a foreign byte order copies
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=offset).reshape(shape, order="F")
    data = data.astype(dtype.newbyteorder("="), copy=False)

    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        data = data.astype(np.float64) * scl_slope + scl_inter

    return Volume(data, voxel_size, affine)


def _check_finite(names, values):
    for name, value in zip(names, values):
        if not np.isfinite(value):
            raise NiftiError(f"malformed header: {name} = {value}")


def _qform_affine(quatern, pixdim):
    b, c, d, qx, qy, qz = quatern
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(max(a2, 0.0))
    R = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * b * c - 2 * a * d, 2 * b * d + 2 * a * c],
            [2 * b * c + 2 * a * d, a * a + c * c - b * b - d * d, 2 * c * d - 2 * a * b],
            [2 * b * d - 2 * a * c, 2 * c * d + 2 * a * b, a * a + d * d - c * c - b * b],
        ]
    )
    qfac = -1.0 if pixdim[0] == -1.0 else 1.0
    S = np.diag([abs(pixdim[1]), abs(pixdim[2]), qfac * abs(pixdim[3])])
    affine = np.eye(4)
    affine[:3, :3] = R @ S
    affine[:3, 3] = (qx, qy, qz)
    return affine


def save_volume(vol: Volume, path) -> None:
    """Write a NIfTI-1 single-file image; the affine goes into the sform.

    The image is written to a temporary file in the same directory and
    renamed onto ``path``, so a volume mapped from the old file keeps its
    values and a failed write leaves ``path`` as it was.
    """
    dtype = vol.data.dtype.newbyteorder("=")
    if dtype not in _DTYPE_CODES:
        raise NiftiError(f"unsupported datatype {dtype} for writing")
    code = _DTYPE_CODES[dtype]

    hdr = bytearray(_HDR_SIZE)
    struct.pack_into("<i", hdr, 0, _HDR_SIZE)
    dim = (3,) + tuple(vol.dims) + (1, 1, 1, 1)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<hh", hdr, 70, code, dtype.itemsize * 8)
    pixdim = (1.0,) + tuple(float(v) for v in vol.voxel_size) + (0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<ff", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<hh", hdr, 252, 0, 1)  # qform_code, sform_code
    struct.pack_into("<12f", hdr, 280, *vol.affine[:3, :4].ravel())
    struct.pack_into("<4s", hdr, 344, b"n+1\0")

    # the transpose of Fortran-ordered voxels is C-contiguous: written as it is, no copy of the bytes
    payload = np.asfortranarray(vol.data.astype(dtype, copy=False)).T
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as raw:
            # the gzip header names path, as gzip.open(path) wrote it
            f = gzip.GzipFile(str(path), "wb", fileobj=raw) if path.name.endswith(".gz") else raw
            with f:
                f.write(bytes(hdr))
                f.write(b"\0\0\0\0")  # extension flag
                f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
