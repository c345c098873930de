import hashlib
import importlib.util
import json
from pathlib import Path

from ccmorph.triangulate import triangulate

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mesh_sweep.py"
_spec = importlib.util.spec_from_file_location("mesh_sweep", SCRIPT)
mesh_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mesh_sweep)


# sha256 over seed 100's small masks, taken before the flat triangle store and the
# array-pass marching squares: the meshes at the three areas, in sweep order, and the
# contours' ``to_csv()`` text
SEED100_SMALL_MESHES_SHA256 = "bcd299a2f85dc2492b52ca8c4781d083e2250c1a99385259d2c6fc555d7150c7"
SEED100_SMALL_CONTOURS_SHA256 = "6206da26cc747d42484848af4cacc2d01c635954b6f206672ac7656d4dc14491"


def _digest(areas):
    """SHA-256 over the ``to_off()`` of seed 100's small masks meshed at ``areas``, in sweep order."""
    h = hashlib.sha256()
    for _, contour, _ in mesh_sweep.fuzz_contours(100, small=True):
        for area in areas:
            h.update(triangulate(contour, area).to_off().encode())
    return h.hexdigest()


def test_small_seed_meshes(capsys):
    assert mesh_sweep.main(["--seeds", "100", "100", "--small"]) == 0
    assert _digest(mesh_sweep.FUZZ_AREAS_MM2) == SEED100_SMALL_MESHES_SHA256
    assert capsys.readouterr().out.splitlines() == [f"0 of 12 meshes failed; meshes sha256 {SEED100_SMALL_MESHES_SHA256}"]


def test_small_seed_contours():
    h = hashlib.sha256()
    for _, contour, _ in mesh_sweep.fuzz_contours(100, small=True):
        h.update(contour.to_csv().encode())
    assert h.hexdigest() == SEED100_SMALL_CONTOURS_SHA256


def test_failures_listed_and_written(monkeypatch, capsys, tmp_path):
    digest = _digest([area for area in mesh_sweep.FUZZ_AREAS_MM2 if area != 0.1])

    def failing(contour, area):
        if area == 0.1:
            raise RuntimeError("degenerate insertion at the hull")
        return triangulate(contour, area)

    monkeypatch.setattr(mesh_sweep, "triangulate", failing)
    out = tmp_path / "failures.json"
    assert mesh_sweep.main(["--seeds", "100", "100", "--small", "--json", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"seed 100 m{k:03d} @0.1: degenerate insertion at the hull" for k in range(4)] + [
        f"4 of 12 meshes failed; meshes sha256 {digest}"
    ]
    failures = json.loads(out.read_text())
    assert list(failures) == [f"seed100_m{k:03d}@0.1" for k in range(4)]
    entry = failures["seed100_m002@0.1"]
    assert (entry["seed"], entry["mask"], entry["max_area_mm2"]) == (100, "m002", 0.1)
    assert len(entry["contour"]) > 100 and len(entry["ac"]) == len(entry["pc"]) == 2
