"""Command-line interface.

Subcommands: midplane, thickness, subseg, metrics, eval, stats, pipeline.
Exit codes: 0 ok, 1 internal error, 2 bad input. The worker count can be
overridden with the CCMORPH_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import RunConfig
from .pipeline import (
    CaseSpec,
    InputError,
    _load_input_volume,
    _register_to_template,
    run_batch,
    run_case,
    run_eval,
    run_stats,
    write_atomic,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2


def _add_case_args(p: argparse.ArgumentParser):
    p.add_argument("--labels", required=True, help="label volume (.nii/.nii.gz)")
    p.add_argument("--landmarks", required=True, help="AC/PC JSON file ({'ac': [x,y,z], 'pc': [x,y,z]}, mm)")
    p.add_argument("--plane", default="", help="precomputed mid-sagittal plane JSON")
    p.add_argument("--id", default="case", help="case id")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_args(p)


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", default="", help="key = value config file")
    p.add_argument("--sigma-vox", type=float, dest="sigma_vox")
    p.add_argument("--iso", type=float, dest="iso")
    p.add_argument("--max-area", type=float, dest="max_area_mm2")
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.add_argument("--scheme", action="append", dest="schemes", help="sub-segmentation scheme (repeatable)")
    p.add_argument("--slab-width", type=float, dest="slab_width_mm")
    p.add_argument("--slab-spacing", type=float, dest="slab_spacing_mm")
    p.add_argument("--cc-label", action="append", type=int, dest="cc_labels")
    p.add_argument("--threads", type=int, dest="threads")
    p.add_argument("--no-svg", action="store_const", const=False, dest="write_svg")
    p.add_argument("--template-seg", dest="template_seg")
    p.add_argument("--template-plane", dest="template_plane")


def _config_from_args(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return RunConfig.from_file(args.config or None, overrides)


def _case_from_args(args) -> CaseSpec:
    return CaseSpec(
        case_id=args.id,
        labels=args.labels,
        landmarks=args.landmarks,
        plane=args.plane,
        out=args.out,
    )


def _finish_case(status: dict, focus: str) -> int:
    for st in status["stages"]:
        line = f"[{status['case']}] {st['name']}: {st['status']} ({st['seconds']:.2f}s)"
        if st.get("error"):
            line += f" - {st['error']}"
        print(line)
    if status["ok"]:
        print(f"outputs: {focus}")
        return EXIT_OK
    return EXIT_BAD_INPUT if status.get("error_kind") == "input" else EXIT_INTERNAL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ccmorph", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("midplane", help="estimate the mid-sagittal plane by centroid registration")
    p.add_argument("--subject", required=True, help="subject label volume")
    p.add_argument("--template-seg", required=True)
    p.add_argument("--template-plane", required=True)
    p.add_argument("--out", required=True, help="output directory")

    for name, hint in (
        ("thickness", "thickness profile"),
        ("metrics", "shape summary"),
        ("subseg", "sub-segmentation"),
    ):
        p = sub.add_parser(name, help=f"compute the {hint} for one case")
        _add_case_args(p)

    p = sub.add_parser("eval", help="DSC / HD95 between two masks")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", default="", help="optional output JSON path")

    p = sub.add_parser("stats", help="group comparison over per-case profiles")
    p.add_argument("--table", required=True, help="group CSV (case_id,group,age,sex,tbv)")
    p.add_argument("--profiles", required=True, help="directory with <case_id>/profile.csv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pipeline", help="batch pipeline over a JSON case list")
    p.add_argument("--cases", required=True, help="JSON list of case specs")
    p.add_argument("--out", required=True, help="output root (one subdirectory per case)")
    _add_config_args(p)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, FileNotFoundError) as e:  # InputError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:  # noqa: BLE001
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args) -> int:
    if args.cmd == "midplane":
        subject = _load_input_volume(args.subject, "subject volume")
        if not subject._is_label_map_with_table():
            raise InputError(f"subject volume {args.subject} must be an integer label map")
        plane, transform = _register_to_template(subject, args.subject, args.template_seg, args.template_plane)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "plane.json", plane.to_json() + "\n")
        write_atomic(out / "transform.json", transform.to_json() + "\n")
        print(plane.to_json())
        return EXIT_OK

    if args.cmd in ("thickness", "metrics", "subseg"):
        cfg = _config_from_args(args)
        case = _case_from_args(args)
        status = run_case(case, cfg, args.out)
        focus = {
            "thickness": "profile.csv",
            "metrics": "summary.json",
            "subseg": "subseg.csv",
        }[args.cmd]
        code = _finish_case(status, str(Path(args.out) / focus))
        if code == EXIT_OK and args.cmd == "metrics":
            with open(Path(args.out) / "summary.json", "r", encoding="utf-8") as f:
                print(f.read().rstrip())
        return code

    if args.cmd == "eval":
        result = run_eval(args.pred, args.ref)
        text = json.dumps(result, sort_keys=True, indent=2)
        print(text)
        if args.out:
            write_atomic(args.out, text + "\n")
        return EXIT_OK

    if args.cmd == "stats":
        result = run_stats(args.table, args.profiles, args.out)
        print(json.dumps(result, sort_keys=True, indent=2))
        return EXIT_OK

    if args.cmd == "pipeline":
        cfg = _config_from_args(args)
        try:
            with open(args.cases, "r", encoding="utf-8") as f:
                specs = json.load(f)
        except FileNotFoundError:
            raise InputError(f"case list not found: {args.cases}") from None
        except json.JSONDecodeError as e:
            raise InputError(f"invalid case list JSON: {e}") from None
        if not isinstance(specs, list):
            raise InputError(f"case list must be a JSON list, got {type(specs).__name__}")
        statuses = run_batch([CaseSpec.from_dict(d) for d in specs], cfg, args.out)
        n_fail = 0
        for st in statuses:
            ok = "ok" if st["ok"] else "FAILED"
            print(f"[{st['case']}] {ok}")
            n_fail += 0 if st["ok"] else 1
        print(f"{len(statuses) - n_fail}/{len(statuses)} cases succeeded")
        if n_fail == 0:
            return EXIT_OK
        kinds = {st.get("error_kind") for st in statuses if not st["ok"]}
        return EXIT_BAD_INPUT if kinds == {"input"} else EXIT_INTERNAL

    raise InputError(f"unknown command {args.cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
