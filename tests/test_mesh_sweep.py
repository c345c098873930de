import hashlib
import importlib.util
import json
from pathlib import Path

from ccmorph.triangulate import triangulate

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mesh_sweep.py"
_spec = importlib.util.spec_from_file_location("mesh_sweep", SCRIPT)
mesh_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mesh_sweep)


def _digest(areas):
    """SHA-256 over the ``to_off()`` of seed 100's small masks meshed at ``areas``, in sweep order."""
    h = hashlib.sha256()
    for _, contour, _ in mesh_sweep.fuzz_contours(100, small=True):
        for area in areas:
            h.update(triangulate(contour, area).to_off().encode())
    return h.hexdigest()


def test_small_seed_meshes(capsys):
    assert mesh_sweep.main(["--seeds", "100", "100", "--small"]) == 0
    digest = _digest(mesh_sweep.FUZZ_AREAS_MM2)
    assert capsys.readouterr().out.splitlines() == [f"0 of 12 meshes failed; meshes sha256 {digest}"]


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
