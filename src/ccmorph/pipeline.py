"""Per-case pipeline orchestration and batch processing.

Stages: landmarks -> inputs -> midplane -> pose -> slab -> mask2mesh ->
thickness -> subseg -> render. Each stage's outputs are written (atomically,
write-temp-then-rename) as soon as the stage completes; ``status.json``
records per-stage timings and errors. A failing stage skips the rest of its
case; batch mode continues with the next case.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import fem, svgfig
from .config import RunConfig
from .contour import Mask2D, extract_contour, smooth_mask
from .evalstats import GroupTable, dice, hausdorff95, ols_fit, thickness_group_map
from .midplane import midsagittal_plane, resample_slab
from .morphometry import (
    EndpointError,
    Landmarks2D,
    intercallosal_line,
    shape_summary,
    thickness_profile,
)
from .subseg import SubsegScheme, subsegment
from .transforms import Landmarks, Plane, acpc_standardize
from .triangulate import SmallAngleError, triangulate
from .volume import NiftiError, Volume, _positive, load_volume

__all__ = [
    "CaseSpec",
    "run_case",
    "run_eval",
    "run_stats",
    "run_batch",
    "write_atomic",
    "InputError",
]


class InputError(ValueError):
    """Invalid or missing user input (maps to exit code 2)."""


@dataclass(frozen=True)
class CaseSpec:
    """One case: a label volume, AC/PC landmarks, optionally a known plane."""

    case_id: str
    labels: str
    landmarks: str
    plane: str = ""
    out: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "CaseSpec":
        if not isinstance(d, dict):
            raise InputError(f"case spec must be a JSON object, got {d!r}")
        for k in d:
            if k not in ("id", "labels", "landmarks", "plane", "out"):
                raise InputError(f"unknown case spec key {k!r} in case {d.get('id', '?')!r}")
        try:
            return cls(
                case_id=str(d["id"]),
                labels=str(d["labels"]),
                landmarks=str(d["landmarks"]),
                plane=str(d.get("plane", "")),
                out=str(d.get("out", "")),
            )
        except KeyError as e:
            raise InputError(f"case spec missing required key {e}") from None


def write_atomic(path, data) -> None:
    """Write bytes/str to path via a temp file and atomic rename.

    A reader sees the old file or the whole new one, never a part. The
    file is not fsynced: after a crash it may be lost, and re-running the
    case rewrites it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as f:
        f.write(data)
    os.replace(tmp, path)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def plane_frame(slab: Volume):
    """(e1, e2, origin_mid) of the slab's central slice in world space."""
    A = slab.affine
    sp1 = np.linalg.norm(A[:3, 0])
    sp2 = np.linalg.norm(A[:3, 1])
    e1 = A[:3, 0] / sp1
    e2 = A[:3, 1] / sp2
    mid = slab.dims[2] // 2
    origin_mid = A[:3, 3] + A[:3, 2] * mid
    return e1, e2, origin_mid


def project_to_plane(points, e1, e2, origin) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float)) - origin
    return np.column_stack([pts @ e1, pts @ e2])


def _load_json_input(path, what, parse):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f.read())
    except FileNotFoundError:
        raise InputError(f"{what} file not found: {path}") from None
    except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise InputError(f"invalid {what} file {path}: {e}") from None


def _load_landmarks(path) -> Landmarks:
    return _load_json_input(path, "landmark", Landmarks.from_json)


def _load_plane(path) -> Plane:
    return _load_json_input(path, "plane", Plane.from_json)


def _load_input_volume(path, what) -> Volume:
    try:
        return load_volume(path)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except NiftiError as e:
        raise InputError(f"invalid {what} {path}: {e}") from None


# the last template segmentation loaded, keyed by its path and file identity
_template_memo = {}


def _load_template(path) -> Volume:
    """The template segmentation at ``path``, loaded once per process while its file is unchanged.

    ``save_volume`` replaces a file with a new inode, and any rewrite moves
    its size or modification time, so a changed template is loaded again.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        raise InputError(f"template segmentation not found: {path}") from None
    key = (str(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    if key not in _template_memo:
        template = _load_input_volume(path, "template segmentation")
        _template_memo.clear()
        _template_memo[key] = template
    return _template_memo[key]


def _register_to_template(subject: Volume, subject_path, template_path, plane_path):
    """(plane, transform) of ``subject`` registered to a template; an unusable one is an ``InputError``
    naming the template (fewer than 3 shared labels) or both files (a degenerate fit)."""
    template = _load_template(template_path)
    if not template._is_label_map_with_table():
        raise InputError(f"template segmentation {template_path} must be an integer label map")
    tplane = _load_plane(plane_path)
    try:
        return midsagittal_plane(subject, template, tplane)
    except ValueError as e:
        # counted only on failure, so the call itself builds both tables
        shared = int(np.isin(subject.label_table[0], template.label_table[0]).sum())
        if shared < 3:
            raise InputError(
                f"template segmentation {template_path} shares {shared} labels with "
                f"{subject_path}, need at least 3"
            ) from None
        raise InputError(f"cannot register {subject_path} to template segmentation {template_path}: {e}") from None


def run_case(case: CaseSpec, cfg: RunConfig, out_dir=None) -> dict:
    """Run the full geometry pipeline for one case.

    Returns the status dict that is also written to ``status.json``:
    ``{"case": id, "ok": bool, "stages": [{name, status, seconds, error?}]}``.
    """
    out = Path(out_dir if out_dir is not None else (case.out or case.case_id))
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "config.txt", cfg.to_text())

    status = {"case": case.case_id, "ok": True, "stages": []}
    state = {}

    def stage(name, fn):
        if not status["ok"]:
            status["stages"].append({"name": name, "status": "skipped", "seconds": 0.0})
            return
        t0 = time.perf_counter()
        try:
            fn()
            status["stages"].append(
                {"name": name, "status": "ok", "seconds": round(time.perf_counter() - t0, 4)}
            )
        except Exception as e:  # noqa: BLE001 - per-stage error capture is the contract
            status["ok"] = False
            status["error_kind"] = (
                "input" if isinstance(e, (InputError, FileNotFoundError, NiftiError)) else "internal"
            )
            status["stages"].append(
                {
                    "name": name,
                    "status": "failed",
                    "seconds": round(time.perf_counter() - t0, 4),
                    "error": f"{type(e).__name__}: {e}",
                }
            )
        # keep the on-disk record current at every stage boundary; the
        # atomic replace means a crash never leaves truncated JSON
        write_atomic(out / "status.json", _json_dumps(status))

    def s_landmarks():
        state["lm3"] = _load_landmarks(case.landmarks)

    def s_inputs():
        state["vol"] = _load_input_volume(case.labels, "label volume")
        if not state["vol"]._is_label_map_with_table():
            raise InputError(f"labels volume {case.labels} must be an integer label map")

    def s_midplane():
        vol = state["vol"]
        if case.plane:
            plane = _load_plane(case.plane)
            state["plane_from"] = f"plane file {case.plane}"
        elif cfg.template_seg and cfg.template_plane:
            plane, transform = _register_to_template(vol, case.labels, cfg.template_seg, cfg.template_plane)
            write_atomic(out / "transform.json", transform.to_json() + "\n")
            state["plane_from"] = f"template segmentation {cfg.template_seg} with plane file {cfg.template_plane}"
        else:
            raise InputError("no plane given and no template configured")
        state["plane"] = plane
        write_atomic(out / "plane.json", plane.to_json() + "\n")

    def s_pose():
        labels, counts, centroids = state["vol"].label_table
        cc = np.isin(labels, cfg.cc_labels)
        if not cc.any():
            raise InputError(f"no CC labels {cfg.cc_labels} present in {case.labels}")
        centroid = counts[cc] @ centroids[cc] / counts[cc].sum()
        try:
            pose = acpc_standardize(state["lm3"], centroid)
        except ValueError as e:
            raise InputError(f"unusable landmark file {case.landmarks}: {e}") from None
        write_atomic(out / "pose.json", pose.to_json() + "\n")

    def s_slab():
        vol = state["vol"]
        finest = float(np.min(vol.voxel_size))
        spacing = cfg.slab_spacing_mm or finest
        try:
            slab = resample_slab(
                vol, state["plane"], cfg.slab_width_mm, spacing, inplane_spacing_mm=finest, labels=cfg.cc_labels
            )
        except NiftiError:  # the labels file, truncated since it was loaded
            raise
        except ValueError as e:  # the width and spacing are validated, so the plane misses the volume
            raise InputError(f"unusable {state['plane_from']} for {case.labels}: {e}") from None
        state["spacing"] = spacing
        # outside the label window the slab is 0, so the CC labels are looked for in its non-zero box
        box = ndimage.find_objects((slab.data != 0).view(np.uint8))
        window = box[0][:2] if box else (slice(0, 0), slice(0, 0))
        cc = np.isin(slab.data[window], cfg.cc_labels)
        if not cc.any():
            raise InputError("no CC voxels found in the mid-sagittal slab")
        px = float(slab.voxel_size[0])
        state["slab_areas"] = cc.sum(axis=(0, 1)).astype(float) * px * px
        mask = np.zeros(slab.dims[:2], dtype=np.uint8)
        mask[window] = cc[:, :, slab.dims[2] // 2]
        state["mask"] = Mask2D(mask, (px, px))
        e1, e2, origin = plane_frame(slab)
        lm3 = state["lm3"]
        ac = project_to_plane(lm3.ac, e1, e2, origin)[0]
        pc = project_to_plane(lm3.pc, e1, e2, origin)[0]
        try:
            state["lm2"] = Landmarks2D(ac, pc)
        except ValueError as e:
            raise InputError(f"unusable landmark file {case.landmarks}: {e}") from None

    def s_mask2mesh():
        mask = state["mask"]
        px = mask.pixel_size[0]
        field = smooth_mask(mask, cfg.sigma_vox * px)
        padded = np.pad(field, 1)
        contour = extract_contour(
            padded, cfg.iso, pixel_size=mask.pixel_size, origin=(-px, -px)
        )
        state["contour"] = contour
        write_atomic(out / "contour.csv", contour.to_csv())
        try:
            state["mesh"] = triangulate(contour, cfg.max_area_mm2, cfg.min_angle_deg)
        except SmallAngleError as e:
            raise InputError(f"unusable labels file {case.labels}: {e}") from None
        write_atomic(out / "mesh.off", state["mesh"].to_off())

    def s_thickness():
        mesh = state["mesh"]
        try:
            line, f = intercallosal_line(mesh, state["lm2"], cfg.n_samples)
        except EndpointError as e:
            raise InputError(f"unusable landmark file {case.landmarks}: {e}") from None
        state["line"] = line
        write_atomic(out / "line.csv", line.to_csv())
        write_atomic(out / "laplace.csv", fem.field_to_csv(f))
        profile = thickness_profile(mesh, f, line, cfg.n_samples)
        state["profile"] = profile
        write_atomic(out / "profile.csv", profile.to_csv())
        summary = shape_summary(
            mesh,
            state["contour"],
            line,
            state["slab_areas"],
            state["spacing"],
            cfg.slab_width_mm,
        )
        d = summary.to_dict()
        d["n_valid_thickness"] = int(profile.valid.sum())
        d["mean_thickness_mm"] = (
            float(np.nanmean(profile.thickness_mm[profile.valid]))
            if profile.valid.any()
            else float("nan")
        )
        write_atomic(out / "summary.json", _json_dumps(d))

    def s_subseg():
        mesh = state["mesh"]
        rows = ["scheme,segment_id,area_mm2\n"]
        labels_csv = ["scheme,triangle,segment_id"]
        for kind in cfg.schemes:
            scheme = (
                SubsegScheme(kind, fractions=tuple(cfg.fractions))
                if cfg.fractions and kind not in ("hampel", "eigendirection")
                else SubsegScheme(kind)
            )
            res = subsegment(mesh, scheme, state["lm2"], state.get("line"))
            state.setdefault("subseg", {})[kind] = res
            rows.append(res.to_csv().partition("\n")[2])
            labels_csv += [f"{kind},{t},{lab}" for t, lab in enumerate(res.triangle_labels.tolist())]
        write_atomic(out / "subseg.csv", "".join(rows))
        write_atomic(out / "subseg_labels.csv", "\n".join(labels_csv) + "\n")

    def s_render():
        if not cfg.write_svg:
            return
        profile = state["profile"]
        write_atomic(
            out / "profile.svg",
            svgfig.profile_svg(profile.positions, profile.thickness_mm),
        )
        write_atomic(
            out / "shape.svg",
            svgfig.shape_svg(state["contour"].points, state["line"].points),
        )
        sub = state.get("subseg", {})
        if sub:
            kind = cfg.schemes[0]
            res = sub[kind]
            mesh = state["mesh"]
            write_atomic(
                out / "subseg.svg",
                svgfig.subseg_svg(mesh.vertices, mesh.triangles, res.triangle_labels),
            )

    stage("landmarks", s_landmarks)
    stage("inputs", s_inputs)
    stage("midplane", s_midplane)
    stage("pose", s_pose)
    stage("slab", s_slab)
    stage("mask2mesh", s_mask2mesh)
    stage("thickness", s_thickness)
    stage("subseg", s_subseg)
    stage("render", s_render)

    if not status["ok"]:  # the stages skipped after the failure are not on disk yet
        write_atomic(out / "status.json", _json_dumps(status))
    return status


def run_eval(pred_path, ref_path) -> dict:
    """DSC and HD95 between two label/binary volumes."""
    pred = _load_input_volume(pred_path, "prediction")
    ref = _load_input_volume(ref_path, "reference")
    if pred.dims != ref.dims:
        raise InputError(f"mask shapes differ: {pred.dims} vs {ref.dims}")
    mp = _positive(pred.data)
    mr = _positive(ref.data)
    return {
        "dice": dice(mp, mr),
        "hd95_mm": hausdorff95(mp, mr, voxel_size=pred.voxel_size),
    }


def _read_profile_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header[:2] != ["position_fraction", "thickness_mm"]:
            raise InputError(f"unexpected profile header in {path}")
        for line_num, line in enumerate(f, start=2):
            try:
                _, t = line.strip().split(",")
                rows.append(float(t))
            except ValueError:
                msg = f"profile {path} line {line_num}: expected position,thickness, got {line.strip()!r}"
                raise InputError(msg) from None
    return np.array(rows)


_SEX_CODES = {"0": 0.0, "1": 1.0, "m": 0.0, "male": 0.0, "f": 1.0, "female": 1.0}
_GROUP_CODES = {"0": 0.0, "1": 1.0, "control": 0.0, "patient": 1.0}


def read_group_table(table_path, profiles_dir) -> tuple:
    """Read the group CSV and per-case profile CSVs.

    The table needs columns case_id, group (patient/control or 1/0), age,
    sex (female=1, male=0), tbv, one row per case. Profiles are read from
    ``profiles_dir/<case_id>/profile.csv``.
    """
    import csv

    ids = []
    line_of = {}  # case_id -> its table line
    group = []
    age = []
    sex = []
    tbv = []
    thickness = []
    with open(table_path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        needed = ("case_id", "group", "age", "sex", "tbv")
        if reader.fieldnames is None or not set(needed).issubset(reader.fieldnames):
            raise InputError(f"group table must have columns {sorted(needed)}")
        for raw in reader:
            row = {k: (raw[k] or "").strip() for k in needed}  # a short row gives None
            cid = row["case_id"]
            for col in needed:
                if not row[col]:
                    raise InputError(f"group table line {reader.line_num}: case {cid!r} has no {col} value")
            if cid in line_of:
                raise InputError(f"group table line {reader.line_num}: case {cid!r} repeats line {line_of[cid]}")
            line_of[cid] = reader.line_num
            prof = Path(profiles_dir) / cid / "profile.csv"
            if not prof.exists():
                raise InputError(f"profile not found for case {cid}: {prof}")
            g = _GROUP_CODES.get(row["group"].lower())
            s = _SEX_CODES.get(row["sex"].lower())
            if g is None:
                raise InputError(f"unknown group value {row['group']!r} for case {cid}")
            if s is None:
                raise InputError(f"unknown sex value {row['sex']!r} for case {cid}")
            for col, out in (("age", age), ("tbv", tbv)):
                try:
                    value = float(row[col])
                except ValueError:
                    value = np.nan
                if not np.isfinite(value):
                    raise InputError(f"{col} value {row[col]!r} for case {cid} is not a finite number")
                out.append(value)
            ids.append(cid)
            group.append(g)
            sex.append(s)
            thickness.append(_read_profile_csv(prof))
    if not ids:
        raise InputError("insufficient data: empty group table")
    lens = {len(t) for t in thickness}
    if len(lens) != 1:
        raise InputError(f"profiles have inconsistent lengths: {sorted(lens)}")
    g = np.array(group)
    if (g == 1).sum() < 2 or (g == 0).sum() < 2:
        raise InputError("insufficient data: need at least 2 cases per group")
    table = GroupTable(ids, g, np.array(age), np.array(sex), np.array(tbv), np.vstack(thickness))
    return table


def run_stats(table_path, profiles_dir, out_dir, summaries_dir=None) -> dict:
    """Group comparison: per-position thickness map and per-measure effects.

    Writes ``stats.csv`` (position, beta, p, p_adj), ``pmap.svg``, and, when
    per-case ``summary.json`` files are available, ``measure_stats.csv``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = read_group_table(table_path, profiles_dir)
    stats = thickness_group_map(table)

    lines = ["# sex encoding: male=0, female=1; group encoding: control=0, patient=1"]
    lines.append("position,beta,p,p_adj")
    for s in stats:
        lines.append(f"{s.position},{float(s.beta)!r},{float(s.p)!r},{float(s.p_adj)!r}")
    write_atomic(out / "stats.csv", "\n".join(lines) + "\n")

    with np.errstate(all="ignore"):
        mean_th = np.nanmean(table.thickness, axis=0)
    positions = (np.arange(table.n_positions) + 1) / (table.n_positions + 1)
    mean_len = 70.0
    sums = _read_summaries(table, profiles_dir if summaries_dir is None else summaries_dir)
    if sums is not None and "length_mm" in sums:
        mean_len = float(np.mean(sums["length_mm"]))
    write_atomic(
        out / "pmap.svg",
        svgfig.pmap_svg(positions, [s.p_adj for s in stats], mean_th, mean_len),
    )

    result = {
        "n_cases": len(table.case_ids),
        "n_positions": table.n_positions,
        "n_significant_adj": int(sum(1 for s in stats if s.p_adj < 0.05)),
    }
    if sums is not None:
        X = np.column_stack(
            [np.ones(len(table.group)), table.group, table.age, table.sex, table.tbv]
        )
        rows = ["# sex encoding: male=0, female=1; group encoding: control=0, patient=1"]
        rows.append("measure,beta,p")
        measures = {}
        for name, vals in sorted(sums.items()):
            ok = np.isfinite(vals)
            if ok.sum() < 6:
                continue
            fit = ols_fit(vals[ok], X[ok])
            rows.append(f"{name},{float(fit.beta[1])!r},{float(fit.p_value[1])!r}")
            measures[name] = {"beta": float(fit.beta[1]), "p": float(fit.p_value[1])}
        write_atomic(out / "measure_stats.csv", "\n".join(rows) + "\n")
        write_atomic(out / "measure_stats.json", _json_dumps(measures))
        result["measures"] = measures
    write_atomic(out / "stats_summary.json", _json_dumps(result))
    return result


def _read_summaries(table: GroupTable, summaries_dir):
    sums = {}
    for cid in table.case_ids:
        p = Path(summaries_dir) / cid / "summary.json"
        if not p.exists():
            return None
        for k, v in _load_json_input(p, "summary", _json_object).items():
            if isinstance(v, (int, float)):
                sums.setdefault(k, []).append(float(v))
    return {k: np.array(v) for k, v in sums.items() if len(v) == len(table.case_ids)}


def _json_object(text) -> dict:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {type(d).__name__}")
    return d


def _run_case_star(args):
    case, cfg, out = args
    return run_case(case, cfg, out)


def run_batch(cases, cfg: RunConfig, out_root) -> list:
    """Run many cases, optionally with a process pool; outputs are case-local.

    Case ``c`` writes to ``out_root / (c.out or c.case_id)``. Raises
    ``InputError`` before any case runs when two cases share an id or an
    output directory.
    """
    out_root = Path(out_root)
    jobs = [(case, cfg, out_root / (case.out or case.case_id)) for case in cases]
    ids = [case.case_id for case in cases]
    outs = [os.path.normpath(out) for *_, out in jobs]
    for what, keys in (("case ids", ids), ("case output directories", outs)):
        repeated = sorted(key for key, n in Counter(keys).items() if n > 1)
        if repeated:
            raise InputError(f"{what} must be unique, repeated: {', '.join(repeated)}")
    threads = cfg.threads
    env = os.environ.get("CCMORPH_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise InputError(f"CCMORPH_THREADS must be an integer >= 1, got {env!r}")
    if threads > 1 and len(jobs) > 1:
        # a fork-started pool forks all its workers at the first submit: no more than cases
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as ex:
            return list(ex.map(_run_case_star, jobs))
    return [_run_case_star(j) for j in jobs]
