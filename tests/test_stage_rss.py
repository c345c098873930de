import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccmorph.phantoms import arch_mask_volume
from ccmorph.transforms import Plane
from ccmorph.volume import save_volume

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_rss.py"
_spec = importlib.util.spec_from_file_location("stage_rss", SCRIPT)
stage_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_rss)

STAGES = ["landmarks", "inputs", "midplane", "pose", "slab", "mask2mesh", "thickness", "subseg", "render"]


def _phantom_case(tmp_path):
    """The arch phantom as a mapped ``.nii`` case with its plane, and the demo's configuration."""
    vol, lm = arch_mask_volume()
    save_volume(vol, tmp_path / "labels.nii")
    (tmp_path / "lm.json").write_text(lm.to_json())
    (tmp_path / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    case = {"id": "arch", "labels": "labels.nii", "landmarks": "lm.json", "plane": "plane.json"}
    (tmp_path / "case.json").write_text(json.dumps(case))
    (tmp_path / "cfg.txt").write_text('slab_spacing_mm = 1.0\nschemes = ["shape_aware"]\n')


def _has_proc_status():
    try:
        stage_rss.read_status()
    except (OSError, KeyError):
        return False
    return True


@pytest.mark.skipif(not _has_proc_status(), reason="no VmRSS, VmHWM, RssFile and RssAnon in /proc/self/status")
def test_one_line_per_stage_of_each_run(tmp_path):
    _phantom_case(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SCRIPT.parent.parent / "src"))
    cmd = [sys.executable, str(SCRIPT), "case.json", "--config", "cfg.txt", "--repeat", "2", "--out", "out"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["run"], r["stage"]) for r in lines] == [(run, s) for run in (0, 1) for s in ["start"] + STAGES]
    assert all(r["status"] == "ok" for r in lines if r["stage"] != "start")
    for r in lines:
        assert 0 < r["RssFile_mb"] < r["VmRSS_mb"] <= r["VmHWM_mb"] and 0 < r["RssAnon_mb"] < r["VmRSS_mb"]
    assert (tmp_path / "out" / "run001" / "summary.json").is_file()


def test_exits_2_without_proc(tmp_path, monkeypatch, capsys):
    _phantom_case(tmp_path)
    monkeypatch.setattr(stage_rss, "PROC_STATUS", tmp_path / "no-such-status")
    assert stage_rss.main([str(tmp_path / "case.json")]) == 2
    assert "no memory figures" in capsys.readouterr().err
