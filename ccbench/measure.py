#!/usr/bin/env python3
"""Timed section of one benchmark run: drives ccmorph on prepared inputs.

    python3 ccbench/measure.py --workload W --inputs DIR --work DIR
        --seconds S --trace 0|1 [--spans FILE]

Items run in a fixed, seeded order, a round at a time, for about
``--seconds``. Every round repeats the same items, so every run measures
the same mix of work, and the metrics are taken over every item of the run.
Only calls into ccmorph's public API are timed; every output is checked
against its analytic reference outside the timed calls.

With ``--trace 0`` the whole budget runs untraced and the end-to-end
metrics are reported. With ``--trace 1`` half the budget runs untraced (for
stage times and the tracing overhead) and then at least one full round runs
traced; count metrics come from that first traced round, so they repeat
exactly for a fixed seed.

The last line of standard output is one JSON object (see ``main``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# ccmorph functions are called through their modules, never bound here, so
# that the tracer's wrappers see the benchmark's own calls too.
import ccmorph
from ccmorph import Landmarks2D, Mask2D, RunConfig, pipeline
from ccmorph.phantoms import half_annulus_contour, half_annulus_landmarks
from ccmorph.pipeline import CaseSpec

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import ANNULUS, FUZZ_AREAS_MM2  # noqa: E402
from tracing import LAYERS, TRACE_KEY, Tracer, self_times  # noqa: E402

STAGES = ("landmarks", "inputs", "midplane", "pose", "slab", "mask2mesh", "thickness", "subseg", "render")
INTERIOR = slice(9, 89)  # profile samples 10..89 (1-based): the ends are excluded

# Pass/fail tolerances of the per-item checks. The accuracy metrics report
# the measured errors themselves; these bounds only decide `failed`.
PLANE_TOL_DEG = 1.0
# The 1 mm arch of the rotated whole-brain map reaches the slab through
# nearest-neighbour resampling; its staircase gives seeds 300-339 up to 2.4%
# area, 3.1% length and 0.72 mm thickness error.
WHOLEBRAIN_TOL = {"area_pct": 5.0, "length_pct": 6.0, "thickness_mm": 1.0}
ARCH_TOL = {"area_pct": 3.0, "length_pct": 3.0, "thickness_mm": 1.0}  # unrotated 0.5 mm slabs
ANNULUS_TOL = {"area_pct": 0.5, "length_pct": 0.5, "thickness_mm": 0.05}  # exact polygon input
FUZZ_TOL_FRAC = 0.10  # median interior thickness vs the generator's nominal value (seeds 0-11 stay within 3.5%)


def _item(key, seconds, error=None, stages=None):
    """One item's outcome; ``checked`` is set once its output was compared."""
    return {"key": key, "seconds": seconds, "ok": False, "error": error, "acc": {}, "stages": stages or {}, "checked": False}


def _analytic_errors(r_in, r_out, area, length, thickness):
    """Percent area and length errors and max interior thickness error."""
    t = np.asarray(thickness, dtype=float)[INTERIOR]
    return {
        "area_pct": 100.0 * abs(area / (np.pi * (r_out**2 - r_in**2) / 2.0) - 1.0),
        "length_pct": 100.0 * abs(length / (np.pi * np.sqrt(r_in * r_out)) - 1.0),
        "thickness_mm": float(np.max(np.abs(t - (r_out - r_in)))) if np.all(np.isfinite(t)) else float("inf"),
    }


def _within(acc, tol):
    return all(acc[k] <= tol[k] for k in tol)


def _read_profile(path):
    rows = Path(path).read_text().splitlines()[1:]
    return [float(r.split(",")[1]) for r in rows]


def _check_case_dir(out, r_in, r_out):
    """Analytic errors of a pipeline case from its summary and profile files."""
    summary = json.loads((out / "summary.json").read_text())
    return _analytic_errors(r_in, r_out, summary["area_mm2"], summary["length_mm"], _read_profile(out / "profile.csv"))


class Workload:
    """A round-based item stream. Subclasses define ``run_round``, which
    appends its items and returns the seconds of its timed calls."""

    min_rounds = 1  # rounds a --trace 0 run makes, whatever its budget

    def __init__(self, inputs: Path, work: Path):
        self.inputs = inputs
        self.work = work
        self.tracer = None
        self.stats_failed = 0
        self.stats_attempted = 0
        self.stats_errors = set()

    def run(self, phase: str, budget_s: float, min_rounds: int = 1, on_round_end=None):
        """Run whole rounds, at least ``min_rounds``, while the next one is
        expected to end within ``budget_s``.

        Returns (items, rounds, busy); rounds lists the timed seconds of each
        round, busy (case seconds, workers, wall seconds) each batch of cases.
        """
        items, rounds, busy = [], [], []
        t0 = time.perf_counter()
        r = 0
        while True:
            elapsed = time.perf_counter() - t0
            if r >= min_rounds and elapsed + elapsed / r > budget_s:
                break
            rounds.append(self.run_round(phase, r, items, busy))
            if on_round_end is not None:
                on_round_end(r, items)
            r += 1
        return items, rounds, busy

    def _timed_item(self, key, fn):
        """Run one serial item; a raised exception is a failed item.

        Garbage left by earlier items is collected before the clock starts,
        so neither an item's time nor the peak memory depends on when the
        collector last ran.
        """
        gc.collect()
        tr = self.tracer
        if tr is not None:
            tr.item = key
            rec = tr.span_begin("bench.item", "bench")
        t = time.perf_counter()
        try:
            out = fn()
            err = None
        except Exception as e:  # noqa: BLE001 - any exception is a failed item
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        if tr is not None:
            tr.span_end(rec)
        return out, dt, err


class WholeBrain(Workload):
    """run_case on a 256^3 label map through the template-registration path."""

    min_rounds = 2

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.truth = json.loads((inputs / "truth.json").read_text())
        self.cfg = RunConfig(
            template_seg=str(inputs / "template.nii"),
            template_plane=str(inputs / "template_plane.json"),
        ).validate()
        self.case = CaseSpec("subject", str(inputs / "subject.nii"), str(inputs / "subject_lm.json"))

    def run_round(self, phase, r, items, busy):
        out = self.work / phase / f"r{r:03d}"
        status, dt, err = self._timed_item("subject", lambda: pipeline.run_case(self.case, self.cfg, out))
        item = _item("subject", dt, err)
        if status is not None:
            item["stages"] = {s["name"]: s["seconds"] for s in status["stages"]}
            if not status["ok"]:
                item["error"] = status.get("error_kind", "failed")
            else:
                normal = json.loads((out / "plane.json").read_text())["normal"]
                cosang = abs(float(np.dot(normal, self.truth["normal"])))
                acc = _check_case_dir(out, self.truth["r_in"], self.truth["r_out"])
                acc["plane_deg"] = float(np.degrees(np.arccos(min(1.0, cosang))))
                item.update(acc=acc, checked=True)
                item["ok"] = acc["plane_deg"] <= PLANE_TOL_DEG and _within(acc, WHOLEBRAIN_TOL)
                if not item["ok"]:
                    item["error"] = "check"
        items.append(item)
        busy.append((float(sum(item["stages"].values())), 1, dt))
        return dt


class ArchCohort(Workload):
    """run_batch over seeded arch slabs in a process pool, then run_stats."""

    min_rounds = 3

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        self.truth = {c["id"]: c for c in json.loads((inputs / "truth.json").read_text())["cases"]}
        plane = str(inputs / "plane.json")
        self.cases = [
            CaseSpec(cid, str(inputs / f"{cid}.nii"), str(inputs / f"{cid}_lm.json"), plane)
            for cid in sorted(self.truth)
        ]
        # the configuration of scripts/run_phantom_case.py
        self.cfg = RunConfig(slab_spacing_mm=1.0, schemes=["shape_aware", "hofer_frahm"]).validate()
        self.workers = int(os.environ.get("CCMORPH_THREADS", "1"))

    def run_round(self, phase, r, items, busy):
        out_root = self.work / phase / f"r{r:03d}"
        t = time.perf_counter()
        statuses = pipeline.run_batch(self.cases, self.cfg, out_root)
        batch_wall = time.perf_counter() - t
        timed_s = batch_wall
        case_seconds = 0.0
        for case, status in zip(self.cases, statuses):
            shipped = status.pop(TRACE_KEY, None)
            if shipped is not None and self.tracer is not None:
                self.tracer.adopt(shipped)
            stages = {s["name"]: s["seconds"] for s in status["stages"]}
            dt = float(sum(stages.values()))
            case_seconds += dt
            item = _item(case.case_id, dt, stages=stages)
            if not status["ok"]:
                item["error"] = status.get("error_kind", "failed")
            else:
                tr = self.truth[case.case_id]
                acc = _check_case_dir(out_root / case.case_id, tr["r_in"], tr["r_out"])
                item.update(acc=acc, checked=True, ok=_within(acc, ARCH_TOL))
                item["error"] = None if item["ok"] else "check"
            items.append(item)
        busy.append((case_seconds, self.workers, batch_wall))

        self.stats_attempted += 1
        try:
            t = time.perf_counter()
            res = pipeline.run_stats(self.inputs / "table.csv", out_root, out_root / "stats")
            timed_s += time.perf_counter() - t
            rows = (out_root / "stats" / "stats.csv").read_text().splitlines()[2:]
            p_adj = [float(row.split(",")[3]) for row in rows]
            stats_ok = res["n_cases"] == len(self.cases) and len(p_adj) == 100 and all(0.0 <= p <= 1.0 for p in p_adj)
            err = None if stats_ok else "run_stats: check"
        except Exception as e:  # noqa: BLE001 - a failed stats run is counted, not fatal
            stats_ok, err = False, f"run_stats: {type(e).__name__}: {e}"
        if not stats_ok:
            self.stats_failed += 1
            self.stats_errors.add(err)
        return timed_s


class ContourFuzz(Workload):
    """smooth -> contour -> triangulate -> line -> profile, serial, no file I/O."""

    def __init__(self, inputs, work):
        super().__init__(inputs, work)
        meta = json.loads((inputs / "masks.json").read_text())
        self.px = float(meta["pixel_mm"])
        self.meta = meta["masks"]
        with np.load(inputs / "masks.npz") as z:
            self.masks = [z[f"m{k:03d}"] for k in range(len(self.meta))]
        self.cfg = RunConfig()
        r_in, r_out, n_arc = ANNULUS
        self.annulus = half_annulus_contour(r_in, r_out, n_arc)
        self.annulus_lm = half_annulus_landmarks(r_in, r_out)

    def round_plan(self, r):
        """Items of a round: the annulus and every mask, each at three areas."""
        plan = []
        for area in FUZZ_AREAS_MM2:
            plan.append(("annulus", None, area))
            plan += [("mask", k, area) for k in range(len(self.masks))]
        return plan

    def _chain(self, kind, k, area):
        cfg = self.cfg
        if kind == "annulus":
            contour, lm = self.annulus, self.annulus_lm
        else:
            px = self.px
            field = ccmorph.smooth_mask(Mask2D(self.masks[k], (px, px)), cfg.sigma_vox * px)
            contour = ccmorph.extract_contour(np.pad(field, 1), cfg.iso, pixel_size=(px, px), origin=(-px, -px))
            m = self.meta[k]
            lm = Landmarks2D(np.array(m["ac"]), np.array(m["pc"]))
        mesh = ccmorph.triangulate(contour, area, cfg.min_angle_deg)
        line, f = ccmorph.intercallosal_line(mesh, lm, cfg.n_samples)
        profile = ccmorph.thickness_profile(mesh, f, line, cfg.n_samples)
        return mesh, line, profile

    def run_round(self, phase, r, items, busy):
        timed_s = 0.0
        for kind, k, area in self.round_plan(r):
            key = f"{'annulus' if kind == 'annulus' else f'm{k:03d}'}@{area}"
            res, dt, err = self._timed_item(key, lambda: self._chain(kind, k, area))
            timed_s += dt
            item = _item(key, dt, err)
            if res is not None:
                mesh, line, profile = res
                if kind == "annulus":
                    r_in, r_out, _ = ANNULUS
                    acc = _analytic_errors(r_in, r_out, mesh.area(), line.length(), profile.thickness_mm)
                    item.update(acc=acc, checked=True, ok=_within(acc, ANNULUS_TOL))
                else:
                    nominal = self.meta[k]["thickness"]
                    t = profile.thickness_mm[INTERIOR]
                    med = float(np.nanmedian(t)) if np.isfinite(t).any() else float("inf")
                    item.update(checked=True, ok=abs(med - nominal) <= FUZZ_TOL_FRAC * nominal)
                item["error"] = None if item["ok"] else "check"
            items.append(item)
        return timed_s


WORKLOADS = {"wholebrain_template": WholeBrain, "arch_cohort": ArchCohort, "contour_fuzz": ContourFuzz}


def _peak_rss_mb():
    """Larger of this process's and its (pool) children's peak RSS, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(items, rounds):
    """Throughput is correct items per second of timed calls, over the run."""
    n_ok = sum(1 for it in items if it["ok"])
    timed_s = sum(rounds)
    secs = [it["seconds"] for it in items]
    metrics = {
        "items_per_s": {"value": n_ok / timed_s, "unit": "1/s"},
        "item_s_p50": {"value": statistics.median(secs), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    extra = {
        "failed_frac": {"value": (len(items) - n_ok) / len(items), "unit": "frac"},
        "items": {"value": len(items), "unit": "count"},
        "rounds": {"value": len(rounds), "unit": "count"},
        "timed_s": {"value": timed_s, "unit": "s"},
    }
    # a percentile is reported only when at least ten samples lie beyond it
    if len(items) >= 50:
        extra["item_s_p80"] = {"value": float(np.percentile(secs, 80)), "unit": "s"}
    return metrics, extra


def per_layer(untraced, traced, count_set, counts, tracer, busy):
    """Per-layer metrics from the untraced and traced phases of one run."""
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for st in STAGES:
        vals = [it["stages"][st] for it in untraced if st in it["stages"]]
        put(f"pipeline.stage.{st}_s", statistics.median(vals) if vals else 0.0, "s")

    case_s = sum(b[0] for b in busy)
    capacity = sum(b[1] * b[2] for b in busy)
    put("pipeline.pool_busy_frac", case_s / capacity if capacity else 0.0, "frac")

    spans = tracer.spans
    n_traced = len(traced)
    incl = {}
    for s in spans:
        incl[s[1]] = incl.get(s[1], 0.0) + (s[4] - s[3])
    per_item = {
        "volume.load_s": ["volume.load_volume"],
        "midplane.label_centroids_s": ["midplane.label_centroids"],
        "midplane.midsagittal_plane_s": ["midplane.midsagittal_plane"],
        "midplane.resample_slab_s": ["midplane.resample_slab"],
        "contour.smooth_mask_s": ["contour.smooth_mask"],
        "contour.extract_contour_s": ["contour.extract_contour"],
        "triangulate.triangulate_s": ["triangulate.triangulate"],
        "fem.solve_dirichlet_s": ["fem.solve_dirichlet"],
        "fem.solve_poisson_s": ["fem.solve_poisson"],
        "morphometry.intercallosal_line_s": ["morphometry.intercallosal_line"],
        "morphometry.thickness_profile_s": ["morphometry.thickness_profile"],
        "morphometry.shape_summary_s": ["morphometry.shape_summary"],
        "subseg.subsegment_s": ["subseg.subsegment"],
        "svgfig.render_s": ["svgfig.profile_svg", "svgfig.shape_svg", "svgfig.subseg_svg", "svgfig.pmap_svg"],
        "pipeline.write_atomic_s": ["pipeline.write_atomic"],
        "evalstats.thickness_group_map_s": ["evalstats.thickness_group_map"],
    }
    for name, fns in per_item.items():
        put(name, sum(incl.get(f, 0.0) for f in fns) / n_traced, "s")

    # the measured work: each serial item, each case a pool worker ran, and
    # each group-statistics run (a pool's parent only waits, so it is left out)
    roots = [
        s
        for s in spans
        if s[1] == "bench.item" or (s[1] in ("pipeline.run_case", "pipeline.run_stats") and s[5] is None)
    ]
    root_s = sum(s[4] - s[3] for s in roots)
    selfs = self_times(spans, roots)
    for layer in LAYERS:
        put(f"{layer}.self_frac", selfs.get(layer, 0.0) / root_s if root_s else 0.0, "frac")

    n_c = len(count_set)
    per_call = {"midplane.labels_shared": "midplane.label_centroids_calls"}
    for name, unit in (
        ("volume.bytes_read", "B"),
        ("midplane.labels_shared", "count"),
        ("midplane.voxels", "count"),
        ("contour.vertices", "count"),
        ("triangulate.mesh_vertices", "count"),
        ("triangulate.mesh_triangles", "count"),
        ("fem.stiffness_matrix_calls", "count"),
        ("fem.level_set_components_calls", "count"),
        ("morphometry.n_valid", "count"),
        ("pipeline.write_atomic_calls", "count"),
        ("pipeline.write_atomic_bytes", "B"),
    ):
        denom = counts.get(per_call[name], 0) if name in per_call else n_c
        put(name, counts.get(name, 0) / denom if denom else 0.0, unit)
    put("triangulate.min_angle_deg", counts.get("triangulate.min_angle_deg", 0.0), "deg")
    put("triangulate.max_area_mm2", counts.get("triangulate.max_area_mm2", 0.0), "mm2")
    put("items.failed_frac", sum(1 for it in count_set if not it["ok"]) / n_c, "frac")

    accs = [it["acc"] for it in count_set if it["acc"]]
    for name, key, unit in (
        ("accuracy.plane_angle_deg", "plane_deg", "deg"),
        ("accuracy.thickness_err_mm", "thickness_mm", "mm"),
        ("accuracy.area_err_pct", "area_pct", "%"),
        ("accuracy.length_err_pct", "length_pct", "%"),
    ):
        vals = [a[key] for a in accs if key in a]
        put(name, max(vals) if vals else 0.0, unit)

    first_a, first_b = {}, {}
    for it in untraced:
        first_a.setdefault(it["key"], it["seconds"])
    for it in traced:
        first_b.setdefault(it["key"], it["seconds"])
    ratios = [first_b[k] / first_a[k] for k in first_a if k in first_b and first_a[k] > 0]
    put("trace.overhead_frac", statistics.median(ratios) - 1.0 if ratios else 0.0, "frac")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](Path(args.inputs), Path(args.work))
    if args.trace == 0:
        items, rounds, _ = wl.run("timed", args.seconds, wl.min_rounds)
        metrics, extra = end_to_end(items, rounds)
        all_items = items
    else:
        untraced, _, busy = wl.run("untraced", args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        snapshot = {}

        def first_round(r, items):
            if r == 0:
                snapshot["items"] = list(items)
                snapshot["counts"] = dict(tracer.counts)

        try:
            traced, _, _ = wl.run("traced", args.seconds / 2.0, on_round_end=first_round)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, snapshot["items"], snapshot["counts"], tracer, busy)
        extra = {}
        all_items = untraced + traced
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(
                json.dumps({"fields": ["id", "name", "layer", "start", "end", "parent", "item"], "spans": tracer.spans})
            )

    failed = sum(1 for it in all_items if not it["ok"]) + wl.stats_failed
    wrong = sum(1 for it in all_items if it["checked"] and not it["ok"])
    errors = sorted({it["error"] for it in all_items if it["error"]} | wl.stats_errors)
    print(
        json.dumps(
            {
                "correct": wrong == 0 and wl.stats_failed == 0,
                "attempted": len(all_items) + wl.stats_attempted,
                "failed": failed,
                "metrics": metrics,
                "extra": extra,
                "errors": errors,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
