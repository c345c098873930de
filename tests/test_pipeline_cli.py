import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ccmorph import pipeline
from ccmorph.cli import main
from ccmorph.config import RunConfig, parse_config_file
from ccmorph.contour import Polyline
from ccmorph.pipeline import CaseSpec, InputError, run_batch, run_case, run_eval, run_stats
from ccmorph.phantoms import arch_mask_volume, label_ball_volume, rectangle_mask_volume
from ccmorph.transforms import Landmarks, Plane
from ccmorph.volume import Volume, load_volume, save_volume


@pytest.fixture(scope="module")
def phantom_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom")
    vol, lm = rectangle_mask_volume()
    save_volume(vol, root / "labels.nii.gz")
    (root / "lm.json").write_text(lm.to_json())
    (root / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
    return root


@pytest.fixture(scope="module")
def arch_files(tmp_path_factory):
    """The arch phantom (voxel centres at x in [-3, 3] mm, CC label 251) with
    three label blocks off the arch, so it can be its own template."""
    root = tmp_path_factory.mktemp("arch")
    vol, lm = arch_mask_volume()
    data = np.array(vol.data)
    data[1:3, 10:20, 10:20], data[4:6, 240:250, 10:20], data[2:5, 120:130, 240:250] = 1, 2, 3
    save_volume(Volume(data, vol.voxel_size, vol.affine), root / "labels.nii")
    (root / "lm.json").write_text(lm.to_json())
    return root


def _case(root, cid="rect"):
    return CaseSpec(
        case_id=cid,
        labels=str(root / "labels.nii.gz"),
        landmarks=str(root / "lm.json"),
        plane=str(root / "plane.json"),
    )


def _spec(root, cid, out):
    """A case-list entry for the phantom case with an ``out`` key."""
    c = _case(root, cid)
    return {"id": cid, "labels": c.labels, "landmarks": c.landmarks, "plane": c.plane, "out": out}


def _cfg(**kw):
    base = dict(slab_spacing_mm=1.0, write_svg=True)
    base.update(kw)
    return RunConfig(**base).validate()


def _unusable_template(root, kind):
    """A template that cannot be registered to: float data, integers with one
    negative voxel, the phantom's one label, or three label balls on one line."""
    vol, _ = rectangle_mask_volume()
    if kind == "float":
        vol = Volume(vol.data.astype(np.float32), vol.voxel_size, vol.affine)
    elif kind == "signed":
        data = vol.data.astype(np.int16)
        data[-1, -1, -1] = -1
        vol = Volume(data, vol.voxel_size, vol.affine)
    elif kind == "collinear":
        vol = label_ball_volume((24, 24, 24), [((6, 12, 12), 2, 1), ((12, 12, 12), 2, 2), ((18, 12, 12), 2, 3)])
    save_volume(vol, root / f"tpl_{kind}.nii")
    return root / f"tpl_{kind}.nii"


def _subject_for(phantom_files, kind, tpl):
    """The subject registered to an unusable template: the phantom, or the
    collinear template itself, whose labels the phantom does not share."""
    return str(tpl if kind == "collinear" else phantom_files / "labels.nii.gz")


UNUSABLE_TEMPLATES = [
    ("float", "must be an integer label map"),
    ("signed", "must be an integer label map"),
    ("one_label", "shares 1 labels"),
    ("collinear", "collinear"),
]


RESULT_FILES = [
    "plane.json",
    "pose.json",
    "contour.csv",
    "mesh.off",
    "line.csv",
    "laplace.csv",
    "profile.csv",
    "summary.json",
    "subseg.csv",
    "subseg_labels.csv",
    "config.txt",
    "status.json",
]


class TestRunCase:
    def test_outputs_present_and_finite(self, phantom_files, tmp_path):
        status = run_case(_case(phantom_files), _cfg(), tmp_path / "out")
        assert status["ok"], status
        for name in RESULT_FILES + ["profile.svg", "shape.svg", "subseg.svg"]:
            assert (tmp_path / "out" / name).exists(), name
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for key in (
            "area_mm2",
            "perimeter_mm",
            "circularity",
            "cc_index_raw",
            "cc_index_norm",
            "volume_mm3",
            "length_mm",
            "curvature_per_mm",
        ):
            assert np.isfinite(summary[key]), key
        assert summary["area_mm2"] == pytest.approx(60.0, rel=0.02)
        assert summary["volume_mm3"] == pytest.approx(300.0, rel=0.02)
        assert summary["length_mm"] == pytest.approx(20.0, rel=0.05)

    def test_missing_landmarks_fails_cleanly(self, phantom_files, tmp_path):
        case = CaseSpec(
            case_id="broken",
            labels=str(phantom_files / "labels.nii.gz"),
            landmarks=str(phantom_files / "nosuch.json"),
            plane=str(phantom_files / "plane.json"),
        )
        status = run_case(case, _cfg(), tmp_path / "broken")
        assert not status["ok"]
        assert status["error_kind"] == "input"
        stages = {s["name"]: s for s in status["stages"]}
        assert stages["landmarks"]["status"] == "failed"
        assert stages["thickness"]["status"] == "skipped"
        # status.json still written
        assert (tmp_path / "broken" / "status.json").exists()

    @pytest.mark.parametrize("kind, message", UNUSABLE_TEMPLATES)
    def test_unusable_template_is_input_error(self, phantom_files, tmp_path, kind, message):
        tpl = _unusable_template(tmp_path, kind)
        case = CaseSpec("t", _subject_for(phantom_files, kind, tpl), str(phantom_files / "lm.json"))
        cfg = _cfg(template_seg=str(tpl), template_plane=str(phantom_files / "plane.json"))
        status = run_case(case, cfg, tmp_path / "t")
        assert status["error_kind"] == "input"
        stage = {s["name"]: s for s in status["stages"]}["midplane"]
        assert stage["status"] == "failed" and stage["error"].startswith("InputError: ")
        assert str(tpl) in stage["error"] and message in stage["error"]

    def test_signed_labels_exit_2_naming_the_file(self, phantom_files, tmp_path, capsys):
        labels = str(_unusable_template(tmp_path, "signed"))
        argv = ["thickness", "--labels", labels, "--landmarks", str(phantom_files / "lm.json")]
        argv += ["--plane", str(phantom_files / "plane.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"labels volume {labels} must be an integer label map" in captured.out + captured.err

    def test_float_labels_exit_2_naming_the_file(self, phantom_files, tmp_path, capsys):
        labels = str(_unusable_template(tmp_path, "float"))
        argv = ["thickness", "--labels", labels, "--landmarks", str(phantom_files / "lm.json")]
        argv += ["--plane", str(phantom_files / "plane.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"labels volume {labels} must be an integer label map" in captured.out + captured.err

    @pytest.mark.parametrize(
        "ac, pc, stage, message",
        [
            ((0, 10, 0), (0, -10, 0), "pose", "cannot fix roll: CC centroid lies on the AC-PC line"),
            ((1, 0, 5), (-1, 0, 5), "slab", "AC and PC coincide in the plane"),
        ],
    )
    def test_unusable_landmarks_exit_2_naming_the_file(self, phantom_files, tmp_path, capsys, ac, pc, stage, message):
        # AC and PC offset from the CC centroid: the AC-PC line through it,
        # or along the plane normal (x), which projects both to one point
        labels = phantom_files / "labels.nii.gz"
        centroid = load_volume(labels).label_table[2][0]  # the phantom's one label
        lm = tmp_path / "lm.json"
        lm.write_text(Landmarks(centroid + ac, centroid + pc).to_json())
        argv = ["thickness", "--labels", str(labels), "--landmarks", str(lm)]
        argv += ["--plane", str(phantom_files / "plane.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert f"] {stage}: failed" in out and f"InputError: unusable landmark file {lm}: {message}" in out

    def test_coincident_endpoints_exit_2_naming_the_file(self, arch_files, tmp_path, capsys):
        # both landmarks far anterior of the arch: one contour vertex is nearest to each
        lm = tmp_path / "lm.json"
        lm.write_text(Landmarks(np.array([0.0, 100.0, 5.0]), np.array([0.0, 90.0, 5.0])).to_json())
        plane = tmp_path / "plane.json"
        plane.write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
        argv = ["thickness", "--labels", str(arch_files / "labels.nii"), "--landmarks", str(lm)]
        argv += ["--plane", str(plane), "--out", str(tmp_path / "out")]
        with pytest.warns(UserWarning, match="landmarks lie more than 50 mm"):
            assert main(argv) == 2
        out = capsys.readouterr().out
        assert "] thickness: failed" in out
        assert f"InputError: unusable landmark file {lm}: anterior and posterior endpoints coincide" in out

    def test_adjacent_endpoints_exit_2_naming_the_file(self, arch_files, tmp_path, capsys):
        # a tilted plane and far landmarks that pick neighbouring vertices of the mesh's
        # 170-vertex boundary loop as the endpoints: the inferior arc between them is empty
        lm = tmp_path / "lm.json"
        lm.write_text(Landmarks(np.array([80.1, 33.5, -31.3]), np.array([-15.1, -69.6, -57.1])).to_json())
        plane = tmp_path / "plane.json"
        normal = np.array([0.934, 0.309, -0.18])
        plane.write_text(Plane(normal / np.linalg.norm(normal), 3.38).to_json())
        argv = ["thickness", "--labels", str(arch_files / "labels.nii"), "--landmarks", str(lm)]
        argv += ["--plane", str(plane), "--out", str(tmp_path / "out"), "--max-area", "0.1", "--sigma-vox", "0.5"]
        with pytest.warns(UserWarning, match="landmarks lie more than 50 mm"):
            assert main(argv) == 2
        out = capsys.readouterr().out
        assert "] thickness: failed" in out
        assert f"InputError: unusable landmark file {lm}: anterior and posterior endpoints are adjacent" in out

    def test_sharp_contour_exits_2_naming_the_file(self, arch_files, tmp_path, capsys, monkeypatch):
        # no smoothed mask gives a corner below 20 deg, so the mesher is handed a sharp triangle instead
        import ccmorph.pipeline as pipeline

        sharp = Polyline(np.array([[0.0, 10.0], [-2.5, 10.0], [-10.0, 0.0]]), closed=True)
        real = pipeline.triangulate
        monkeypatch.setattr(pipeline, "triangulate", lambda contour, *args: real(sharp, *args))
        plane = tmp_path / "plane.json"
        plane.write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
        labels = arch_files / "labels.nii"
        argv = ["thickness", "--labels", str(labels), "--landmarks", str(arch_files / "lm.json")]
        argv += ["--plane", str(plane), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "] mask2mesh: failed" in out
        assert f"InputError: unusable labels file {labels}: contour vertex 2 has an interior angle of 8.13 deg" in out

    @pytest.mark.parametrize("path", ["plane", "template"])
    def test_plane_missing_the_volume_exits_2_naming_the_file(self, arch_files, tmp_path, capsys, path):
        plane = tmp_path / "plane.json"
        plane.write_text(Plane(np.array([1.0, 0.0, 0.0]), -5.4).to_json())
        labels = arch_files / "labels.nii"
        argv = ["thickness", "--labels", str(labels), "--landmarks", str(arch_files / "lm.json")]
        argv += ["--out", str(tmp_path / "out")]
        if path == "plane":
            argv += ["--plane", str(plane)]
            source = f"plane file {plane}"
        else:  # the subject is its own template, so its plane is the template's
            argv += ["--template-seg", str(labels), "--template-plane", str(plane)]
            source = f"template segmentation {labels} with plane file {plane}"
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "] slab: failed" in out
        assert f"InputError: unusable {source} for {labels}: plane misses volume" in out

    def test_plane_missing_the_cc_exits_2(self, arch_files, tmp_path, capsys):
        # an axial plane below the arch (z >= 0): the CC is in the volume but not in the slab
        plane = tmp_path / "plane.json"
        plane.write_text(Plane(np.array([0.0, 0.0, 1.0]), -10.0).to_json())
        argv = ["thickness", "--labels", str(arch_files / "labels.nii"), "--landmarks", str(arch_files / "lm.json")]
        argv += ["--plane", str(plane), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "] slab: failed" in out and "InputError: no CC voxels found in the mid-sagittal slab" in out

    @pytest.mark.parametrize(
        "field, value",
        [("ac", float("nan")), ("pc", float("inf")), ("normal", float("nan")), ("offset", float("-inf"))],
    )
    def test_non_finite_landmark_or_plane_exits_2_naming_the_file(self, arch_files, tmp_path, capsys, field, value):
        # json.loads reads NaN and Infinity; no stage may write them or fail later on them
        lm, plane = json.loads((arch_files / "lm.json").read_text()), {"normal": [1.0, 0.0, 0.0], "offset": 0.0}
        if field == "offset":
            plane["offset"] = value
        else:
            (lm if field in ("ac", "pc") else plane)[field][0] = value
        paths = {"landmark": tmp_path / "lm.json", "plane": tmp_path / "plane.json"}
        paths["landmark"].write_text(json.dumps(lm))
        paths["plane"].write_text(json.dumps(plane))
        argv = ["thickness", "--labels", str(arch_files / "labels.nii"), "--landmarks", str(paths["landmark"])]
        argv += ["--plane", str(paths["plane"]), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        what = "landmark" if field in ("ac", "pc") else "plane"
        out = capsys.readouterr().out
        assert f"] {'landmarks' if what == 'landmark' else 'midplane'}: failed" in out
        assert f"InputError: invalid {what} file {paths[what]}: " in out and "must be finite" in out
        assert not any((tmp_path / "out" / name).exists() for name in ("plane.json", "pose.json"))

    def test_missing_template_exit_2_naming_the_file(self, phantom_files, tmp_path, capsys):
        tpl = tmp_path / "nosuch.nii"
        argv = ["thickness", "--labels", str(phantom_files / "labels.nii.gz")]
        argv += ["--landmarks", str(phantom_files / "lm.json"), "--out", str(tmp_path / "out")]
        argv += ["--template-seg", str(tpl), "--template-plane", str(phantom_files / "plane.json")]
        assert main(argv) == 2
        assert f"InputError: template segmentation not found: {tpl}" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv")
    @pytest.mark.parametrize("stage", ["inputs", "slab"])
    def test_labels_truncated_after_loading_exit_2_naming_the_file(self, phantom_files, tmp_path, capsys, monkeypatch, stage):
        # read through the map, the missing bytes would kill the process with SIGBUS
        labels = tmp_path / "labels.nii"
        save_volume(rectangle_mask_volume()[0], labels)
        if stage == "inputs":
            monkeypatch.setattr(pipeline, "load_volume", lambda path: (load_volume(path), os.truncate(path, 400))[0])
        else:
            resample = pipeline.resample_slab
            monkeypatch.setattr(pipeline, "resample_slab", lambda *a, **k: os.truncate(labels, 400) or resample(*a, **k))
        argv = ["thickness", "--labels", str(labels), "--landmarks", str(phantom_files / "lm.json")]
        argv += ["--plane", str(phantom_files / "plane.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert f"] {stage}: failed (" in out and f"NiftiError: {labels}: truncated since it was loaded" in out
        status = json.loads((tmp_path / "out" / "status.json").read_text())
        assert status["error_kind"] == "input"

    @pytest.mark.parametrize("landmarks, writes", [("lm.json", 9), ("nosuch.json", 2)])
    def test_status_json_written_at_stage_ends_and_after_skips(
        self, phantom_files, tmp_path, monkeypatch, landmarks, writes
    ):
        # an ok case's last stage writes the final record; a failed one adds a write for its skipped stages
        import ccmorph.pipeline as pipeline

        real, records = pipeline.write_atomic, []

        def spy(path, data):
            if Path(path).name == "status.json":
                records.append(data)
            real(path, data)

        monkeypatch.setattr(pipeline, "write_atomic", spy)
        files = [str(phantom_files / name) for name in ("labels.nii.gz", landmarks, "plane.json")]
        case = CaseSpec("s", *files)
        status = run_case(case, _cfg(), tmp_path / "s")
        assert status["ok"] == (landmarks == "lm.json") and len(status["stages"]) == 9
        assert len(records) == writes
        on_disk = (tmp_path / "s" / "status.json").read_text()
        assert on_disk == records[-1] == json.dumps(status, sort_keys=True, indent=2) + "\n"
        expected = ["ok"] * 9 if status["ok"] else ["failed"] + ["skipped"] * 8
        assert [s["status"] for s in json.loads(on_disk)["stages"]] == expected

    def test_deterministic_outputs(self, phantom_files, tmp_path):
        s1 = run_case(_case(phantom_files), _cfg(), tmp_path / "a")
        s2 = run_case(_case(phantom_files), _cfg(), tmp_path / "b")
        assert s1["ok"] and s2["ok"]
        for name in RESULT_FILES:
            if name == "status.json":
                continue  # carries timings
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2, f"{name} differs between runs"

    def test_config_echoed(self, phantom_files, tmp_path):
        cfg = _cfg(n_samples=40)
        run_case(_case(phantom_files), cfg, tmp_path / "c")
        echoed = parse_config_file(tmp_path / "c" / "config.txt")
        assert echoed["n_samples"] == 40
        assert echoed["slab_spacing_mm"] == 1.0


class TestBatch:
    def test_parallel_matches_sequential(self, phantom_files, tmp_path):
        cases = [_case(phantom_files, f"case{i}") for i in range(2)]
        run_batch(cases, _cfg(threads=1), tmp_path / "seq")
        run_batch(cases, _cfg(threads=2), tmp_path / "par")
        for i in range(2):
            for name in ("profile.csv", "summary.json", "subseg.csv"):
                a = (tmp_path / "seq" / f"case{i}" / name).read_bytes()
                b = (tmp_path / "par" / f"case{i}" / name).read_bytes()
                assert a == b

    @pytest.mark.parametrize("threads, workers", [(8, 2), (2, 2)])
    def test_pool_no_larger_than_the_batch(self, phantom_files, tmp_path, monkeypatch, threads, workers):
        pools = []

        class SerialPool:  # records its size and runs the cases in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SerialPool)
        cases = [_case(phantom_files, f"pool{i}") for i in range(2)]
        assert all(s["ok"] for s in run_batch(cases, _cfg(threads=threads), tmp_path / "b"))
        assert pools == [workers]

    def test_env_var_thread_override(self, phantom_files, tmp_path, monkeypatch):
        monkeypatch.setenv("CCMORPH_THREADS", "2")
        cases = [_case(phantom_files, f"env{i}") for i in range(2)]
        statuses = run_batch(cases, _cfg(threads=1), tmp_path / "env")
        assert all(s["ok"] for s in statuses)

    @pytest.mark.parametrize("value", ["0", "-2", "abc", ""])
    def test_env_var_threads_must_be_positive_integer(self, phantom_files, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("CCMORPH_THREADS", value)
        cases = [_case(phantom_files, f"bad{i}") for i in range(2)]
        with pytest.raises(InputError, match="CCMORPH_THREADS must be an integer >= 1"):
            run_batch(cases, _cfg(), tmp_path / "env")
        assert not (tmp_path / "env").exists()  # checked before any case runs
        specs = [{"id": c.case_id, "labels": c.labels, "landmarks": c.landmarks, "plane": c.plane} for c in cases]
        (tmp_path / "cases.json").write_text(json.dumps(specs))
        assert main(["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")]) == 2
        assert "CCMORPH_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_duplicate_case_ids_rejected(self, phantom_files, tmp_path, capsys, threads):
        # two workers used to race on dup/config.txt.tmp; one silently overwrote the first case
        cases = [_case(phantom_files, "dup"), _case(phantom_files, "ok"), _case(phantom_files, "dup")]
        with pytest.raises(InputError, match="case ids must be unique, repeated: dup$"):
            run_batch(cases, _cfg(threads=threads), tmp_path / "b")
        assert not (tmp_path / "b").exists()  # checked before any case runs
        specs = [{"id": c.case_id, "labels": c.labels, "landmarks": c.landmarks, "plane": c.plane} for c in cases]
        (tmp_path / "cases.json").write_text(json.dumps(specs))
        argv = ["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")]
        assert main(argv + ["--threads", str(threads)]) == 2
        assert "case ids must be unique" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_case_out_honoured(self, phantom_files, tmp_path, threads):
        # the "out" key used to be read and then ignored: every case went to OUT/<id>
        cases = [CaseSpec.from_dict(_spec(phantom_files, "a", "elsewhere/a")), _case(phantom_files, "b")]
        statuses = run_batch(cases, _cfg(threads=threads), tmp_path / "o")
        assert [s["ok"] for s in statuses] == [True, True]
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["b", "elsewhere"]
        for name in RESULT_FILES:
            assert (tmp_path / "o" / "elsewhere" / "a" / name).exists(), name
        assert json.loads((tmp_path / "o" / "elsewhere" / "a" / "status.json").read_text())["case"] == "a"

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("outs", [("same", "same"), ("b", ""), ("x/../same", "same/")])
    def test_shared_output_directory_rejected(self, phantom_files, tmp_path, capsys, threads, outs):
        specs = [_spec(phantom_files, cid, out) for cid, out in zip("ab", outs)]
        cases = [CaseSpec.from_dict(d) for d in specs]
        with pytest.raises(InputError, match="case output directories must be unique, repeated: "):
            run_batch(cases, _cfg(threads=threads), tmp_path / "b")
        assert not (tmp_path / "b").exists()  # checked before any case runs
        (tmp_path / "cases.json").write_text(json.dumps(specs))
        argv = ["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")]
        assert main(argv + ["--threads", str(threads)]) == 2
        assert "case output directories must be unique" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_batch_continues_after_failure(self, phantom_files, tmp_path):
        good = _case(phantom_files, "good")
        bad = CaseSpec(
            case_id="bad",
            labels=str(phantom_files / "labels.nii.gz"),
            landmarks=str(phantom_files / "missing.json"),
            plane=str(phantom_files / "plane.json"),
        )
        statuses = run_batch([bad, good], _cfg(), tmp_path / "mix")
        assert [s["ok"] for s in statuses] == [False, True]


class TestEval:
    def test_identical_and_disjoint(self, tmp_path):
        a = np.zeros((12, 12, 12), dtype=np.uint8)
        a[2:6, 2:6, 2:6] = 1
        b = np.zeros_like(a)
        b[8:11, 8:11, 8:11] = 1
        va = Volume(a, (1, 1, 1), np.eye(4))
        vb = Volume(b, (1, 1, 1), np.eye(4))
        save_volume(va, tmp_path / "a.nii")
        save_volume(vb, tmp_path / "b.nii")
        same = run_eval(tmp_path / "a.nii", tmp_path / "a.nii")
        assert same == {"dice": 1.0, "hd95_mm": 0.0}
        diff = run_eval(tmp_path / "a.nii", tmp_path / "b.nii")
        assert diff["dice"] == 0.0
        assert np.isfinite(diff["hd95_mm"]) and diff["hd95_mm"] > 0

    def test_matches_library_oracle(self, tmp_path):
        from ccmorph.evalstats import dice, hausdorff95

        rng = np.random.default_rng(13)
        m1 = (rng.random((16, 16, 16)) < 0.1).astype(np.uint8)
        m2 = (rng.random((16, 16, 16)) < 0.1).astype(np.uint8)
        save_volume(Volume(m1, (1, 1, 1), np.eye(4)), tmp_path / "m1.nii")
        save_volume(Volume(m2, (1, 1, 1), np.eye(4)), tmp_path / "m2.nii")
        got = run_eval(tmp_path / "m1.nii", tmp_path / "m2.nii")
        assert got["dice"] == dice(m1 > 0, m2 > 0)
        assert got["hd95_mm"] == hausdorff95(m1 > 0, m2 > 0)


    @pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv")
    def test_masks_leave_the_files_paged_out(self, tmp_path, monkeypatch, rss_file):
        # `data > 0` on the maps faults in both 16 MB files; chunk by chunk, the reader maps neither.
        # RssFile is read while both maps live: in the distance step, after both masks are built
        shape = (256, 256, 64)
        for name, corner in (("a", 100), ("b", 104)):
            data = np.zeros(shape, dtype=np.int32)
            data[corner : corner + 40, corner : corner + 40, 20:40] = 7
            save_volume(Volume(data, (1, 1, 1), np.eye(4)), tmp_path / f"{name}.nii")
            save_volume(Volume(data[::8, ::8, ::2], (1, 1, 1), np.eye(4)), tmp_path / f"small_{name}.nii")
        run_eval(tmp_path / "small_a.nii", tmp_path / "small_b.nii")  # its shared-library pages count as RssFile too
        during, hausdorff95 = [], pipeline.hausdorff95
        monkeypatch.setattr(pipeline, "hausdorff95", lambda *a, **k: during.append(rss_file()) or hausdorff95(*a, **k))
        before = rss_file()
        got = run_eval(tmp_path / "a.nii", tmp_path / "b.nii")
        assert during[0] - before < 0.25 * 4 * math.prod(shape)
        assert got["dice"] == 2 * 36 * 36 * 20 / (2 * 40 * 40 * 20)


def _write_profiles(root, rng, n_cases, n_pos=60, deficit=None):
    rows = ["case_id,group,age,sex,tbv"]
    base = 5.0 + 0.5 * np.sin(np.linspace(0, np.pi, n_pos))
    for i in range(n_cases):
        cid = f"s{i:03d}"
        group = "patient" if i % 2 else "control"
        age = 40 + (i % 30)
        sex = "f" if i % 3 == 0 else "m"
        tbv = 1.2e6 + 1e3 * ((i * 7) % 13) + float(rng.normal(0, 5e3))
        th = base + rng.normal(0, 0.3, n_pos)
        if deficit is not None and group == "patient":
            lo, hi = deficit
            th[lo : hi + 1] *= 0.7
        d = root / cid
        d.mkdir(parents=True, exist_ok=True)
        lines = ["position_fraction,thickness_mm"]
        for k in range(n_pos):
            lines.append(f"{(k + 1) / (n_pos + 1)!r},{float(th[k])!r}")
        (d / "profile.csv").write_text("\n".join(lines) + "\n")
        rows.append(f"{cid},{group},{age},{sex},{tbv}")
    (root / "table.csv").write_text("\n".join(rows) + "\n")


class TestStats:
    def test_identical_groups_null(self, tmp_path):
        rng = np.random.default_rng(21)
        _write_profiles(tmp_path, rng, 40)
        res = run_stats(tmp_path / "table.csv", tmp_path, tmp_path / "stats")
        assert res["n_significant_adj"] == 0
        assert (tmp_path / "stats" / "stats.csv").exists()
        assert (tmp_path / "stats" / "pmap.svg").exists()

    def test_deficit_band_flagged(self, tmp_path):
        rng = np.random.default_rng(22)
        _write_profiles(tmp_path, rng, 80, deficit=(20, 35))
        res = run_stats(tmp_path / "table.csv", tmp_path, tmp_path / "stats")
        assert res["n_significant_adj"] >= 14
        text = (tmp_path / "stats" / "stats.csv").read_text()
        assert text.splitlines()[1] == "position,beta,p,p_adj"
        svg = (tmp_path / "stats" / "pmap.svg").read_text()
        assert svg.startswith("<svg")

    def test_insufficient_data(self, tmp_path):
        rng = np.random.default_rng(23)
        _write_profiles(tmp_path, rng, 3)
        with pytest.raises(ValueError, match="insufficient data"):
            run_stats(tmp_path / "table.csv", tmp_path, tmp_path / "stats")

    def test_copied_groups_all_null(self, tmp_path):
        # every control has a patient with identical covariates and an
        # identical (copied) profile: group betas are exactly 0, adjusted p 1
        rng = np.random.default_rng(24)
        n_pos = 30
        rows = ["case_id,group,age,sex,tbv"]
        for i in range(8):
            th = 5.0 + rng.normal(0, 0.4, n_pos)
            profile = ["position_fraction,thickness_mm"] + [
                f"{(k + 1) / (n_pos + 1)!r},{float(th[k])!r}" for k in range(n_pos)
            ]
            for group in ("control", "patient"):
                cid = f"twin{i}_{group}"
                d = tmp_path / cid
                d.mkdir()
                (d / "profile.csv").write_text("\n".join(profile) + "\n")
                rows.append(f"{cid},{group},{40 + i},{'f' if i % 2 else 'm'},{1.2e6 + 1e4 * ((i * 3) % 5)}")
        (tmp_path / "table.csv").write_text("\n".join(rows) + "\n")
        run_stats(tmp_path / "table.csv", tmp_path, tmp_path / "stats")
        text = (tmp_path / "stats" / "stats.csv").read_text().splitlines()[2:]
        for line in text:
            _, beta, _, p_adj = line.split(",")
            assert abs(float(beta)) < 1e-10
            assert float(p_adj) >= 1.0 - 1e-12


class TestCLI:
    def test_thickness_subcommand(self, phantom_files, tmp_path, capsys):
        code = main(
            [
                "thickness",
                "--labels",
                str(phantom_files / "labels.nii.gz"),
                "--landmarks",
                str(phantom_files / "lm.json"),
                "--plane",
                str(phantom_files / "plane.json"),
                "--id",
                "cli",
                "--out",
                str(tmp_path / "cli_out"),
                "--slab-spacing",
                "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "thickness: ok" in out
        assert (tmp_path / "cli_out" / "profile.csv").exists()

    def test_subseg_subcommand_with_config_file(self, phantom_files, tmp_path, capsys):
        (tmp_path / "cfg.txt").write_text(
            'schemes = ["witelson", "hampel"]\nslab_spacing_mm = 1.0\nn_samples = 40\n'
        )
        code = main(
            [
                "subseg",
                "--labels",
                str(phantom_files / "labels.nii.gz"),
                "--landmarks",
                str(phantom_files / "lm.json"),
                "--plane",
                str(phantom_files / "plane.json"),
                "--id",
                "cfgcase",
                "--out",
                str(tmp_path / "sub_out"),
                "--config",
                str(tmp_path / "cfg.txt"),
            ]
        )
        assert code == 0
        text = (tmp_path / "sub_out" / "subseg.csv").read_text()
        assert "witelson,0," in text and "hampel,0," in text
        echoed = parse_config_file(tmp_path / "sub_out" / "config.txt")
        assert echoed["schemes"] == ["witelson", "hampel"]
        assert echoed["n_samples"] == 40

    def test_missing_landmarks_exit_code_2(self, phantom_files, tmp_path, capsys):
        code = main(
            [
                "thickness",
                "--labels",
                str(phantom_files / "labels.nii.gz"),
                "--landmarks",
                str(phantom_files / "nope.json"),
                "--plane",
                str(phantom_files / "plane.json"),
                "--out",
                str(tmp_path / "x"),
                "--slab-spacing",
                "1.0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("solver_tol = 1e-10", "unknown config key 'solver_tol'"),
            ('threads = "abc"', "'threads' must be an integer"),
            ('max_area_mm2 = "big"', "'max_area_mm2' must be a number"),
            ("n_samples = 2.5", "'n_samples' must be an integer"),
            ("fractions = [0.5, 0.2]", "fractions must be strictly increasing"),
            ('write_svg = "no"', "'write_svg' must be true or false"),
            ('schemes = "witelson"', "'schemes' must be a list of strings"),
            ("max_area_mm2 = Infinity", "'max_area_mm2' must be finite"),
            ("slab_width_mm = Infinity", "'slab_width_mm' must be finite"),
            ("sigma_vox = Infinity", "'sigma_vox' must be finite"),
            ("slab_spacing_mm = -Infinity", "'slab_spacing_mm' must be finite"),
            ("min_angle_deg = NaN", "'min_angle_deg' must be finite"),
            ("min_angle_deg = 40", "min_angle_deg must lie in [0, 34)"),
            ("cc_labels = [251, 0]", "cc_labels must not hold 0"),
        ],
        ids=[
            "solver_tol",
            "threads",
            "max_area_mm2",
            "n_samples",
            "fractions",
            "write_svg",
            "schemes",
            "max_area_inf",
            "slab_width_inf",
            "sigma_vox_inf",
            "slab_spacing_neg_inf",
            "min_angle_nan",
            "min_angle_40",
            "cc_labels_zero",
        ],
    )
    def test_removed_config_key_exit_code_2(self, phantom_files, tmp_path, capsys, line, message):
        # a removed key or a malformed value exits 2, naming the key, before any stage runs
        (tmp_path / "cfg.txt").write_text(line + "\n")
        code = main(
            [
                "thickness",
                "--labels",
                str(phantom_files / "labels.nii.gz"),
                "--landmarks",
                str(phantom_files / "lm.json"),
                "--plane",
                str(phantom_files / "plane.json"),
                "--out",
                str(tmp_path / "x"),
                "--config",
                str(tmp_path / "cfg.txt"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_eval_subcommand(self, phantom_files, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--pred",
                str(phantom_files / "labels.nii.gz"),
                "--ref",
                str(phantom_files / "labels.nii.gz"),
                "--out",
                str(tmp_path / "eval.json"),
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dice"] == 1.0 and out["hd95_mm"] == 0.0
        assert json.loads((tmp_path / "eval.json").read_text())["dice"] == 1.0

    def test_pipeline_subcommand(self, phantom_files, tmp_path, capsys):
        cases = [
            {
                "id": "p0",
                "labels": str(phantom_files / "labels.nii.gz"),
                "landmarks": str(phantom_files / "lm.json"),
                "plane": str(phantom_files / "plane.json"),
            }
        ]
        (tmp_path / "cases.json").write_text(json.dumps(cases))
        code = main(
            [
                "pipeline",
                "--cases",
                str(tmp_path / "cases.json"),
                "--out",
                str(tmp_path / "batch"),
                "--slab-spacing",
                "1.0",
            ]
        )
        assert code == 0
        assert (tmp_path / "batch" / "p0" / "summary.json").exists()

    def test_duplicate_case_ids_rejected(self, phantom_files, tmp_path):
        spec = {
            "id": "dup",
            "labels": str(phantom_files / "labels.nii.gz"),
            "landmarks": str(phantom_files / "lm.json"),
            "plane": str(phantom_files / "plane.json"),
        }
        (tmp_path / "cases.json").write_text(json.dumps([spec, spec]))
        code = main(
            ["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")]
        )
        assert code == 2

    @pytest.mark.parametrize("kind, message", UNUSABLE_TEMPLATES)
    def test_unusable_template_exit_code_2(self, phantom_files, tmp_path, capsys, kind, message):
        spec = _spec(phantom_files, "t", "t")
        del spec["plane"]
        tpl = _unusable_template(tmp_path, kind)
        spec["labels"] = _subject_for(phantom_files, kind, tpl)
        (tmp_path / "cases.json").write_text(json.dumps([spec]))
        code = main(
            ["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")]
            + ["--template-seg", str(tpl)]
            + ["--template-plane", str(phantom_files / "plane.json")]
        )
        assert code == 2
        assert "[t] FAILED" in capsys.readouterr().out
        assert message in json.loads((tmp_path / "d" / "t" / "status.json").read_text())["stages"][2]["error"]

    def test_unknown_case_key_exit_code_2(self, phantom_files, tmp_path, capsys):
        typo = _spec(phantom_files, "typo", "typo")
        typo["plnae"] = typo.pop("plane")
        (tmp_path / "cases.json").write_text(json.dumps([_spec(phantom_files, "ok", "ok"), typo]))
        code = main(["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")])
        assert code == 2
        assert "unknown case spec key 'plnae' in case 'typo'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()  # rejected before any case runs
        # no stage reads a T1 image, so a case list naming one is refused too
        (tmp_path / "t1.json").write_text(json.dumps([{**_spec(phantom_files, "x", "x"), "t1": "t1.nii"}]))
        assert main(["pipeline", "--cases", str(tmp_path / "t1.json"), "--out", str(tmp_path / "d")]) == 2
        assert "unknown case spec key 't1' in case 'x'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "cases", [{"a": 1}, [1], ["x"]], ids=["object_not_list", "number_entry", "string_entry"]
    )
    def test_malformed_case_list_exit_code_2(self, tmp_path, capsys, cases):
        (tmp_path / "cases.json").write_text(json.dumps(cases))
        code = main(["pipeline", "--cases", str(tmp_path / "cases.json"), "--out", str(tmp_path / "d")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: case ") and "internal" not in err

    def test_stats_subcommand(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        _write_profiles(tmp_path, rng, 24)
        code = main(
            [
                "stats",
                "--table",
                str(tmp_path / "table.csv"),
                "--profiles",
                str(tmp_path),
                "--out",
                str(tmp_path / "st"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "path, text, message",
        [
            ("table.csv", "c4,control", "case 'c4' has no age value"),
            ("table.csv", "c4,control,,f,1.2e6", "case 'c4' has no age value"),
            ("table.csv", "c4,control,40,f, ", "case 'c4' has no tbv value"),
            ("table.csv", "c4,control,abc,f,1.2e6", "age value 'abc' for case c4 is not a finite number"),
            ("table.csv", "c4,control,40,f,big", "tbv value 'big' for case c4 is not a finite number"),
            ("table.csv", "c4,control,nan,f,1.2e6", "age value 'nan' for case c4 is not a finite number"),
            ("table.csv", "s001,control,41,m,1.2e6", "group table line 10: case 's001' repeats line 3"),
            ("s000/summary.json", "[1, 2]", "invalid summary file {path}: expected a JSON object, got list"),
            ("s000/summary.json", '{"area_mm2": 1,', "invalid summary file {path}: Expecting property name"),
            ("s003/profile.csv", "position_fraction,thickness_mm\n0.5,4.0\n0.6\n", "profile {path} line 3:"),
            ("s003/profile.csv", "position_fraction,thickness_mm\n0.5,4.0,1\n", "profile {path} line 2:"),
            ("s003/profile.csv", "position_fraction,thickness_mm\n0.5,thick\n", "profile {path} line 2:"),
        ],
        ids=[
            "short_row",
            "empty_age",
            "blank_tbv",
            "age_abc",
            "tbv_big",
            "age_nan",
            "repeated_case",
            "summary_list",
            "summary_bad_json",
            "profile_one_field",
            "profile_three_fields",
            "profile_not_a_number",
        ],
    )
    def test_malformed_group_table_exit_code_2(self, tmp_path, capsys, path, text, message):
        # a bad table row goes after the table; any other file is written over a valid case
        rng = np.random.default_rng(31)
        _write_profiles(tmp_path, rng, 8)
        (tmp_path / "c4").mkdir()
        (tmp_path / "c4" / "profile.csv").write_text((tmp_path / "s000" / "profile.csv").read_text())
        if path == "table.csv":
            with open(tmp_path / "table.csv", "a") as f:
                f.write(text + "\n")
        else:
            (tmp_path / path).write_text(text)
        table, out = str(tmp_path / "table.csv"), str(tmp_path / "st")
        code = main(["stats", "--table", table, "--profiles", str(tmp_path), "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert message.format(path=tmp_path / path) in err and "internal" not in err

    def test_midplane_subcommand(self, tmp_path, capsys):
        from ccmorph.phantoms import label_ball_volume

        tpl = label_ball_volume(
            (24, 24, 24),
            [((6, 6, 6), 2, 1), ((16, 8, 10), 2, 2), ((8, 16, 14), 2, 3), ((14, 14, 6), 2, 4)],
        )
        save_volume(tpl, tmp_path / "tpl.nii")
        (tmp_path / "tplane.json").write_text(Plane(np.array([1.0, 0, 0]), 12.0).to_json())
        code = main(
            [
                "midplane",
                "--subject",
                str(tmp_path / "tpl.nii"),
                "--template-seg",
                str(tmp_path / "tpl.nii"),
                "--template-plane",
                str(tmp_path / "tplane.json"),
                "--out",
                str(tmp_path / "mp"),
            ]
        )
        assert code == 0
        plane = json.loads((tmp_path / "mp" / "plane.json").read_text())
        np.testing.assert_allclose(plane["normal"], [1, 0, 0], atol=1e-9)

    @pytest.mark.parametrize(
        "role, kind, message",
        [("template", kind, message) for kind, message in UNUSABLE_TEMPLATES]
        + [("subject", kind, "must be an integer label map") for kind in ("float", "signed")],
    )
    def test_midplane_unusable_input_exit_code_2(self, phantom_files, tmp_path, capsys, role, kind, message):
        bad = str(_unusable_template(tmp_path, kind))
        subject = bad if role == "subject" else _subject_for(phantom_files, kind, bad)
        tpl = str(phantom_files / "labels.nii.gz") if role == "subject" else bad
        code = main(
            ["midplane", "--subject", subject, "--template-seg", tpl]
            + ["--template-plane", str(phantom_files / "plane.json"), "--out", str(tmp_path / "mp")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{role} " in err and bad in err and message in err and "internal" not in err
        assert not (tmp_path / "mp").exists()


    @pytest.mark.parametrize("field", ["normal", "offset"])
    def test_midplane_non_finite_template_plane_exits_2(self, phantom_files, tmp_path, capsys, field):
        plane = {"normal": [1.0, 0.0, 0.0], "offset": 0.0}
        if field == "offset":
            plane["offset"] = float("nan")
        else:
            plane["normal"][1] = float("inf")
        (tmp_path / "tplane.json").write_text(json.dumps(plane))
        labels = str(phantom_files / "labels.nii.gz")
        code = main(
            ["midplane", "--subject", labels, "--template-seg", labels]
            + ["--template-plane", str(tmp_path / "tplane.json"), "--out", str(tmp_path / "mp")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid plane file {tmp_path / 'tplane.json'}: plane normal and offset must be finite" in err
        assert not (tmp_path / "mp").exists()


class TestConfig:
    def test_parse_file(self, tmp_path):
        (tmp_path / "cfg.txt").write_text(
            "# comment\nsigma_vox = 2.0\nn_samples = 50\nschemes = [\"witelson\", \"hampel\"]\nwrite_svg = false\n"
        )
        cfg = RunConfig.from_file(tmp_path / "cfg.txt")
        assert cfg.sigma_vox == 2.0
        assert cfg.n_samples == 50
        assert cfg.schemes == ["witelson", "hampel"]
        assert cfg.write_svg is False

    def test_override_wins(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("n_samples = 50\n")
        cfg = RunConfig.from_file(tmp_path / "cfg.txt", {"n_samples": 80})
        assert cfg.n_samples == 80

    def test_unknown_key(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_file(tmp_path / "cfg.txt")

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(iso=2.0).validate()
        with pytest.raises(ValueError):
            RunConfig(schemes=["bogus"]).validate()

    def test_quoted_hash_is_not_a_comment(self, tmp_path):
        (tmp_path / "cfg.txt").write_text(
            'template_seg = "/data/run#2/t.nii"  # the run\'s template\n'
            'template_plane = "/data/p#.json"\n'
            "iso = 0.4 # a comment after a number\n"
            "schemes = witelson # an unquoted word is cut at its comment\n"
        )
        values = parse_config_file(tmp_path / "cfg.txt")
        assert values == {
            "template_seg": "/data/run#2/t.nii",
            "template_plane": "/data/p#.json",
            "iso": 0.4,
            "schemes": "witelson",
        }
        cfg = RunConfig(template_seg="/data/run#2/t.nii").validate()
        (tmp_path / "echo.txt").write_text(cfg.to_text())
        assert RunConfig.from_dict(parse_config_file(tmp_path / "echo.txt")) == cfg

    def test_echo_roundtrip(self, tmp_path):
        cfg = RunConfig(n_samples=33).validate()
        (tmp_path / "echo.txt").write_text(cfg.to_text())
        cfg2 = RunConfig.from_dict(parse_config_file(tmp_path / "echo.txt"))
        assert cfg2 == cfg
