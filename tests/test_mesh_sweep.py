import hashlib
import importlib.util
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ccmorph import contour as contour_module
from ccmorph.contour import polygon_area
from ccmorph.triangulate import first_self_intersection, triangulate

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mesh_sweep.py"
_spec = importlib.util.spec_from_file_location("mesh_sweep", SCRIPT)
mesh_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mesh_sweep)


# sha256 over seed 100's small masks: the meshes at the three areas, in sweep order, taken
# when the mesher began to delete the exterior right after the build, and the contours'
# ``to_csv()`` text, taken when ``extract_contour`` began to merge corner cuts (three of the
# four contours have some)
SEED100_SMALL_MESHES_SHA256 = "bcc25839aff28335a08ef8bc2eaa99558c25f94bd247978aa8c76805557ca196"
SEED100_SMALL_CONTOURS_SHA256 = "1c9d2b36b07a74cb066ad0a23d528e98985776ae2c977c0cd5a1da93ed851f22"


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


def test_full_size_seeds_mesh(capsys):
    """Seeds 104 and 212 at full size: 96 meshes, which once listed 104 m010@0.5 and 212 m001@0.5."""
    assert mesh_sweep.sweep([104, 212]) == {}
    assert capsys.readouterr().out.startswith("0 of 96 meshes failed")


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


CORNER_CUT_MM = 0.005  # 1% of the sweep's 0.5 mm pixel


@pytest.fixture(scope="module")
def sweep_contours():
    """(contour, the same contour with no corner merged) of every mask of seeds 100-129 and 200-229."""
    seeds = [*range(100, 130), *range(200, 230)]
    cut = [c.points for seed in seeds for _, c, _ in mesh_sweep.fuzz_contours(seed)]
    with mock.patch.object(contour_module, "_CORNER_CUT", 0.0):
        uncut = [c.points for seed in seeds for _, c, _ in mesh_sweep.fuzz_contours(seed)]
    return list(zip(cut, uncut))


def _lengths(pts):
    return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


def test_sweep_contours_have_no_segment_shorter_than_the_cut(sweep_contours):
    assert min(_lengths(cut).min() for cut, _ in sweep_contours) >= CORNER_CUT_MM
    assert sum(_lengths(uncut).min() < CORNER_CUT_MM for _, uncut in sweep_contours) > 100


def test_sweep_contours_simple_and_each_cut_moves_little_area(sweep_contours):
    """Each run of merged nodes, between the vertices before and after it that both contours
    share, changes the area by at most the cut times the merged contour's segments there."""
    cuts = 0
    for cut, uncut in sweep_contours:
        assert first_self_intersection(cut) is None and polygon_area(cut) > 0
        at = {p: k for k, p in enumerate(map(tuple, uncut.tolist()))}
        new = np.array([p not in at for p in map(tuple, cut.tolist())])
        n, m = len(cut), len(uncut)
        for first in np.flatnonzero(new & ~np.roll(new, 1)).tolist():  # each run of merged nodes
            last = first
            while new[(last + 1) % n]:
                last += 1
            prev, nxt = cut[first - 1], cut[(last + 1) % n]
            i, j = at[tuple(prev.tolist())], at[tuple(nxt.tolist())]
            path = uncut[[(i + k) % m for k in range((j - i) % m + 1)]]
            run = cut[[(first + k) % n for k in range(last - first + 1)]]
            change = abs(polygon_area(np.vstack([path, run[::-1]])))
            near = _lengths(cut[[(first - 1 + k) % n for k in range(last - first + 3)]])[:-1].sum()
            assert change <= CORNER_CUT_MM * near
            cuts += 1
    assert cuts > 100
