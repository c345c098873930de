"""Figures and text outputs against test-local copies of their per-scalar versions.

The writers format Python numbers from ``.tolist()``, and ``subseg_svg``
formats each vertex once. The references below are the versions that
formatted one numpy scalar at a time; every output must keep its bytes.
"""

import numpy as np
import pytest

from ccmorph import fem, pipeline, svgfig
from ccmorph import morphometry as mo
from ccmorph.config import RunConfig
from ccmorph.contour import Polyline
from ccmorph.mesh import TriMesh2D
from ccmorph.phantoms import arch_mask_volume, half_annulus_contour, half_annulus_landmarks
from ccmorph.subseg import SCHEME_KINDS, SubsegResult, SubsegScheme, subsegment
from ccmorph.transforms import Plane
from ccmorph.triangulate import triangulate
from ccmorph.volume import save_volume


class _RefCanvas(svgfig._Canvas):
    """The canvas that formatted each coordinate of a shape separately."""

    def polyline(self, pts, stroke="#333", width=1.0, fill="none"):
        d = " ".join(f"{svgfig._fmt(x)},{svgfig._fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{d}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polygon(self, pts, fill="#ddd", stroke="none", width=0.5):
        d = " ".join(f"{svgfig._fmt(x)},{svgfig._fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polygon points="{d}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'
        )


def _ref_subseg_svg(vertices, triangles, labels, width=640, height=420):
    m = svgfig._MapToCanvas(vertices, width, height)
    c = _RefCanvas(width, height)
    v = m(vertices)
    for t, lab in zip(np.asarray(triangles), np.asarray(labels)):
        color = svgfig._SEGMENT_COLORS[int(lab) % len(svgfig._SEGMENT_COLORS)]
        c.polygon(v[t], fill=color)
    return c.to_string()


def _ref_to_off(mesh):
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    lines += [f"{float(x)!r} {float(y)!r} 0.0" for x, y in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + "\n"


def _ref_field_to_csv(values):
    lines = ["vertex,value"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(np.asarray(values, dtype=float))]
    return "\n".join(lines) + "\n"


def _ref_polyline_csv(line):
    lines = ["x_mm,y_mm"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in line.points]
    return "\n".join(lines) + "\n"


def _ref_profile_csv(profile):
    lines = ["position_fraction,thickness_mm"]
    for p, t, v in zip(profile.positions, profile.thickness_mm, profile.valid):
        lines.append(f"{float(p)!r},{float(t)!r}" if v else f"{float(p)!r},nan")
    return "\n".join(lines) + "\n"


def _ref_subseg_csv(res):
    lines = ["scheme,segment_id,area_mm2"]
    for k, a in enumerate(res.segment_areas_mm2):
        lines.append(f"{res.scheme.kind},{k},{float(a)!r}")
    return "\n".join(lines) + "\n"


def _first_difference(a: str, b: str):
    """None for equal texts, else (line number, line of a, line of b) of the first difference.

    pytest's own diff of two long texts that differ on every line takes minutes.
    """
    if a == b:
        return None
    la, lb = a.splitlines(), b.splitlines()
    return next(((k, x, y) for k, (x, y) in enumerate(zip(la, lb)) if x != y), (min(len(la), len(lb)), "", ""))


def _shifted(mesh, lm, off):
    """The mesh and landmarks moved by -off, so both coordinates take negative values."""
    off = np.asarray(off)
    return TriMesh2D(mesh.vertices - off, mesh.triangles, mesh.boundary_flags), mo.Landmarks2D(lm.ac - off, lm.pc - off)


@pytest.fixture(scope="module", params=["arch", "annulus"])
def case(request):
    if request.param == "arch":
        mesh, lm = _shifted(triangulate(half_annulus_contour(22.0, 30.0, 240), 1.0), half_annulus_landmarks(22.0, 30.0), (3.3, 11.7))
    else:
        mesh, lm = _shifted(triangulate(half_annulus_contour(), 0.05), half_annulus_landmarks(), (0.25, 1.3))
    line, f = mo.intercallosal_line(mesh, lm, 100)
    profile = mo.thickness_profile(mesh, f, line, 100)
    th = profile.thickness_mm.copy()
    holes = np.zeros(profile.n, dtype=bool)
    holes[[0, 1, 17, 50, 98, 99]] = True  # runs of NaN rows at both ends and inside
    th[holes] = np.nan
    gappy = mo.ThicknessProfile(profile.positions, th, profile.valid & ~holes, profile.intercallosal_length_mm, 0.0)
    subs = [subsegment(mesh, SubsegScheme(kind), lm, line) for kind in SCHEME_KINDS]
    return {"mesh": mesh, "line": line, "f": f, "profiles": (profile, gappy), "subs": subs}


class TestTextWriters:
    def test_off_and_fields(self, case):
        mesh = case["mesh"]
        assert (mesh.vertices < 0).any(axis=0).all()
        assert _first_difference(mesh.to_off(), _ref_to_off(mesh)) is None
        assert _first_difference(fem.field_to_csv(case["f"]), _ref_field_to_csv(case["f"])) is None
        assert _first_difference(fem.field_to_csv(case["f"].tolist()), _ref_field_to_csv(case["f"])) is None
        assert _first_difference(case["line"].to_csv(), _ref_polyline_csv(case["line"])) is None
        outline = Polyline(mesh.vertices[mesh.boundary_loop()], closed=True)
        assert _first_difference(outline.to_csv(), _ref_polyline_csv(outline)) is None

    def test_profiles(self, case):
        profile, gappy = case["profiles"]
        assert gappy.to_csv().count(",nan\n") >= 6
        for p in (profile, gappy):
            assert _first_difference(p.to_csv(), _ref_profile_csv(p)) is None

    def test_subseg(self, case):
        for res in case["subs"]:
            assert _first_difference(res.to_csv(), _ref_subseg_csv(res)) is None
        ints = SubsegResult(SubsegScheme("hampel"), np.zeros(3, dtype=np.int64), np.array([0, 2, 5]))
        assert ints.to_csv() == _ref_subseg_csv(ints)

    def test_pipeline_subseg_files(self, tmp_path, monkeypatch):
        vol, lm = arch_mask_volume()
        save_volume(vol, tmp_path / "labels.nii.gz")
        (tmp_path / "lm.json").write_text(lm.to_json())
        (tmp_path / "plane.json").write_text(Plane(np.array([1.0, 0.0, 0.0]), 0.0).to_json())
        spec = pipeline.CaseSpec("arch", str(tmp_path / "labels.nii.gz"), str(tmp_path / "lm.json"), str(tmp_path / "plane.json"))
        results = []

        def recording_subsegment(*args):
            results.append(subsegment(*args))
            return results[-1]

        monkeypatch.setattr(pipeline, "subsegment", recording_subsegment)
        cfg = RunConfig(slab_spacing_mm=1.0, schemes=list(SCHEME_KINDS)).validate()
        assert pipeline.run_case(spec, cfg, tmp_path / "out")["ok"]
        rows = ["scheme,segment_id,area_mm2"]
        labels = ["scheme,triangle,segment_id"]
        for res in results:
            kind = res.scheme.kind
            for k, a in enumerate(res.segment_areas_mm2):
                rows.append(f"{kind},{k},{float(a)!r}")
            for t, lab in enumerate(res.triangle_labels):
                labels.append(f"{kind},{t},{int(lab)}")
        assert [r.scheme.kind for r in results] == list(SCHEME_KINDS)
        assert _first_difference((tmp_path / "out" / "subseg.csv").read_text(), "\n".join(rows) + "\n") is None
        assert _first_difference((tmp_path / "out" / "subseg_labels.csv").read_text(), "\n".join(labels) + "\n") is None


class TestFigures:
    def test_subseg_svg(self, case):
        mesh = case["mesh"]
        rng = np.random.default_rng(11)
        for labels in [r.triangle_labels for r in case["subs"]] + [rng.integers(-3, 12, mesh.n_triangles)]:
            got = svgfig.subseg_svg(mesh.vertices, mesh.triangles, labels)
            assert _first_difference(got, _ref_subseg_svg(mesh.vertices, mesh.triangles, labels)) is None

    def test_profile_shape_and_pmap_svg(self, case, monkeypatch):
        mesh, line = case["mesh"], case["line"]
        outline = mesh.vertices[mesh.boundary_loop()]
        paths = [c["points"] for c in fem.level_set_components(mesh, case["f"], 0.25)]
        profile, gappy = case["profiles"]
        p_adj = np.linspace(1e-8, 1.0, profile.n)

        def figures():
            out = [svgfig.profile_svg(p.positions, p.thickness_mm) for p in (profile, gappy)]
            out.append(svgfig.shape_svg(outline, line.points, paths))
            out.append(svgfig.pmap_svg(gappy.positions, p_adj, gappy.thickness_mm, 70.0))
            return out

        got = figures()
        monkeypatch.setattr(svgfig, "_Canvas", _RefCanvas)
        for a, b in zip(got, figures()):
            assert _first_difference(a, b) is None
        assert got[1].count("<polyline") >= 3  # the NaN rows split the profile into runs
