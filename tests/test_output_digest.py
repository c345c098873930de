import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _case(root, area, thickness, counts, laplace=(0.0, 1.0), line=((0.0, 0.0), (1.0, 0.5))):
    root.mkdir(parents=True)
    (root / "summary.json").write_text(json.dumps({"area_mm2": area, "n_valid_thickness": 2}))
    rows = "".join(f"{(k + 1) / 4},{t}\n" for k, t in enumerate(thickness))
    (root / "profile.csv").write_text("position_fraction,thickness_mm\n" + rows)
    (root / "mesh.off").write_text(f"OFF\n{counts[0]} {counts[1]} 0\n")
    (root / "laplace.csv").write_text("vertex,value\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(laplace)))
    (root / "line.csv").write_text("x_mm,y_mm\n" + "".join(f"{x!r},{y!r}\n" for x, y in line))


def test_compare_reports_value_deltas_and_mesh_counts(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _case(a / "out" / "one", 10.0, [1.0, 2.0, float("nan")], (5, 4))
    _case(b / "out" / "one", 10.001, [1.0, 2.02, float("nan")], (6, 5), (0.0, 9.0))
    _case(a / "out" / "group" / "two", 4.0, [3.0, 3.0, 3.0], (7, 8), line=((2.0, 1.0), (3.0, 1.0)))
    line_b = ((2.0, 1.0 - 2e-15), (3.0, 1.0))
    _case(b / "out" / "group" / "two", 4.0, [3.0, 3.0, 3.0], (7, 8), (0.0, 1.0 + 3e-15), line_b)
    _case(a / "out" / "gone", 1.0, [1.0], (3, 1))
    assert output_digest.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"only in {a}: gone"
    assert "over 2 cases" in lines[1]
    assert lines[2].split() == ["area_mm2", "1.00e-04", "one"]
    assert lines[3].split() == ["n_valid_thickness", "0.00e+00", "group/two"]
    assert lines[4] == (
        "profile.csv thickness_mm: largest relative difference 9.90e-03 (one sample 1), largest absolute 2.00e-02 mm"
    )
    # values of a case whose mesh counts changed are not compared
    assert lines[5] == "largest absolute difference over the 1 cases whose mesh counts match:"
    assert lines[6].split() == ["laplace.csv", "3.11e-15", "group/two"]
    assert lines[7].split() == ["line.csv", "2.00e-15", "group/two"]
    assert lines[8:] == ["mesh.off vertices/triangles:", f"  {'group/two':24s} 7/8 -> 7/8", f"  {'one':24s} 5/4 -> 6/5"]


def test_check_lists_every_differing_missing_and_extra_digest(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x/mesh.off": "1", "x/profile.csv": "2", "y/mesh.off": "3", "gone.csv": "4"}))
    b.write_text(json.dumps({"x/mesh.off": "1", "x/profile.csv": "9", "y/mesh.off": "3", "new.csv": "5"}))
    assert output_digest.main(["--check", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines() == ["4 digests equal, 0 not"]
    assert output_digest.main(["--check", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: x/profile.csv",
        f"missing from {b}: gone.csv",
        f"extra in {b}: new.csv",
        "2 digests equal, 3 not",
    ]


def test_check_runs_without_pythonpath(tmp_path):
    # only the digest runs import ccmorph, so comparing two tables needs no PYTHONPATH
    (tmp_path / "a.json").write_text(json.dumps({"x/mesh.off": "1"}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--check", "a.json", "a.json"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["1 digests equal, 0 not"]
