"""In-memory span tracer that wraps ccmorph's public functions from outside.

ccmorph's modules call each other through module globals (``pipeline`` calls
``midsagittal_plane`` by the name it imported, ``morphometry`` calls
``fem.solve_dirichlet`` through the module), so a function is traced by
replacing every binding of it in every loaded ``ccmorph`` module. Nothing
under ``src/`` is edited. A span is (id, name, layer, start, end, parent,
item, pid); spans stay in memory and are written out when the run ends.

Pool workers forked by ``run_batch`` inherit the wrappers. A worker's
``run_case`` span is the root of its case; the wrapper hands the worker's
spans and counts back to the parent inside the returned status dict, under
``TRACE_KEY``, after ``status.json`` has been written.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

TRACE_KEY = "_ccbench_trace"

# The functions wrapped in each layer (a ccmorph module): its public ones,
# plus the helpers that the pipeline and morphometry reach at call time.
TARGETS = {
    "volume": ("load_volume", "save_volume"),
    "midplane": ("label_centroids", "midsagittal_plane", "resample_slab", "plane_disagreement"),
    "contour": ("smooth_mask", "extract_contour", "resample_polyline"),
    "triangulate": ("triangulate",),
    "fem": (
        "stiffness_matrix",
        "solve_dirichlet",
        "solve_poisson",
        "gradient",
        "divergence",
        "rotate90",
        "interpolate",
        "level_set_components",
        "extract_level_set",
        "field_to_csv",
    ),
    "morphometry": (
        "intercallosal_line",
        "thickness_profile",
        "conjugate_field",
        "length_and_curvature",
        "cc_index",
        "corrected_volume",
        "shape_summary",
        "find_endpoints",
    ),
    "subseg": ("subsegment",),
    "svgfig": ("profile_svg", "shape_svg", "subseg_svg", "pmap_svg"),
    "evalstats": ("thickness_group_map", "ols_fit", "bh_correct", "dice", "hausdorff95"),
    "pipeline": ("run_case", "run_batch", "run_stats", "read_group_table", "write_atomic"),
}
LAYERS = tuple(TARGETS)


def _count_load_volume(c, args, kwargs, result):
    c["volume.bytes_read"] += os.path.getsize(args[0])


def _count_label_centroids(c, args, kwargs, result):
    c["midplane.labels_shared"] += len(result)


def _count_midsagittal_plane(c, args, kwargs, result):
    c["midplane.voxels"] += int(args[0].data.size) + int(args[1].data.size)


def _count_extract_contour(c, args, kwargs, result):
    c["contour.vertices"] += len(result.points)


# mesh-quality records keep the worst value seen instead of a sum
EXTREMES = {"triangulate.min_angle_deg": min, "triangulate.max_area_mm2": max}


def _merge(c, key, value):
    c[key] = EXTREMES[key](c[key], value) if key in c else value


def _count_triangulate(c, args, kwargs, result):
    import numpy as np

    c["triangulate.mesh_vertices"] += result.n_vertices
    c["triangulate.mesh_triangles"] += result.n_triangles
    _merge(c, "triangulate.min_angle_deg", float(np.degrees(result.angles().min())))
    _merge(c, "triangulate.max_area_mm2", float(result.signed_areas().max()))


def _count_thickness_profile(c, args, kwargs, result):
    c["morphometry.n_valid"] += int(result.valid.sum())


def _count_write_atomic(c, args, kwargs, result):
    # status.json holds stage timings, so its size is left out of the count
    path = args[0] if args else kwargs["path"]
    if os.path.basename(str(path)) == "status.json":
        return
    data = args[1] if len(args) > 1 else kwargs["data"]
    c["pipeline.write_atomic_bytes"] += len(data.encode() if isinstance(data, str) else data)


# Counts taken at a boundary, from its arguments and result, after the span
# has closed so that they cost the traced layer nothing.
COUNTERS = {
    "volume.load_volume": _count_load_volume,
    "midplane.label_centroids": _count_label_centroids,
    "midplane.midsagittal_plane": _count_midsagittal_plane,
    "contour.extract_contour": _count_extract_contour,
    "triangulate.triangulate": _count_triangulate,
    "morphometry.thickness_profile": _count_thickness_profile,
    "pipeline.write_atomic": _count_write_atomic,
}


class Tracer:
    """Records spans and counts for the functions in ``TARGETS``."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    def span_begin(self, name, layer):
        sid = (os.getpid(), self._next_id)
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return [sid, name, layer, time.perf_counter(), None, parent, self.item]

    def span_end(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()
        self.spans.append(rec)

    def _wrap(self, layer, fname, fn):
        tracer = self
        name = f"{layer}.{fname}"
        counter = COUNTERS.get(name)
        ship = name == "pipeline.run_case"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a forked pool worker starts each case with an empty record
            in_worker = ship and os.getpid() != tracer.pid
            if in_worker:
                tracer.spans, tracer.counts, tracer._stack = [], Counter(), []
                tracer.item = getattr(args[0], "case_id", None)
            rec = tracer.span_begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end(rec)
            tracer.counts[f"{name}_calls"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            if in_worker and isinstance(result, dict):
                result[TRACE_KEY] = {"spans": tracer.spans, "counts": dict(tracer.counts)}
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind it in every loaded ccmorph module."""
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"ccmorph.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(layer, fname, orig)
                for mname, m in list(sys.modules.items()):
                    if not (mname == "ccmorph" or mname.startswith("ccmorph.")) or m is None:
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches = []

    def adopt(self, shipped: dict):
        """Take in the spans and counts a pool worker returned."""
        self.spans.extend(shipped["spans"])
        for key, value in shipped["counts"].items():
            if key in EXTREMES:
                _merge(self.counts, key, value)
            else:
                self.counts[key] += value


def self_times(spans, roots):
    """Self seconds per layer inside the trees under ``roots``.

    A span's self time is its duration minus its children's durations;
    spans of one process nest, so children never overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_sum = Counter()
    for s in spans:
        if s[5] is not None:
            child_sum[s[5]] += s[4] - s[3]
    root_ids = {s[0] for s in roots}

    def root_of(s):
        while s[5] is not None and s[0] not in root_ids:
            s = by_id.get(s[5])
            if s is None:
                return None
        return s[0] if s[0] in root_ids else None

    out = Counter()
    for s in spans:
        if root_of(s) is not None:
            out[s[2]] += (s[4] - s[3]) - child_sum[s[0]]
    return out
