#!/usr/bin/env python3
"""Resident memory of one case at every stage end, read from ``/proc/self/status``.

Runs ``run_case`` on one case ``--repeat`` times in this process. Each time
``run_case`` writes ``status.json`` (once per stage), the script reads
``VmRSS``, ``VmHWM``, ``RssFile`` and ``RssAnon`` and prints one JSON line:
the run, the stage that just ended, its status, and the four values in MB.
A ``start`` line before each run gives the values the first stage starts
from. ``VmHWM`` is the process's resident high-water mark so far.

CASE_JSON holds one case spec object, as in the ``pipeline --cases`` list
(``id``, ``labels``, ``landmarks``, optionally ``plane``); ``--config`` is
the ``key = value`` configuration file of the CLI (a case without a plane
needs ``template_seg`` and ``template_plane`` there). Outputs go to
``--out`` (a temporary directory by default, removed at the end).

Exits 2 where ``/proc/self/status`` or one of its four fields is missing.

Usage: python3 scripts/stage_rss.py CASE_JSON [--config FILE] [--repeat N] [--out DIR]
"""

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

from ccmorph import pipeline
from ccmorph.config import RunConfig

PROC_STATUS = Path("/proc/self/status")
FIELDS = ("VmRSS", "VmHWM", "RssFile", "RssAnon")


def read_status() -> dict:
    """The four fields of ``PROC_STATUS`` in MB; raises OSError or KeyError where one is missing."""
    text = PROC_STATUS.read_text()
    values = {}
    for field in FIELDS:
        m = re.search(rf"^{field}:\s+(\d+) kB$", text, re.MULTILINE)
        if m is None:
            raise KeyError(field)
        values[f"{field}_mb"] = round(int(m.group(1)) / 1024, 2)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case_json")
    ap.add_argument("--config", default="")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    try:
        read_status()
    except (OSError, KeyError) as e:
        print(f"stage_rss: no memory figures in {PROC_STATUS}: {e}", file=sys.stderr)
        return 2
    case = pipeline.CaseSpec.from_dict(json.loads(Path(args.case_json).read_text()))
    cfg = RunConfig.from_file(args.config or None)

    run = 0
    write_atomic = pipeline.write_atomic

    def write_and_read(path, data):
        write_atomic(path, data)
        if Path(path).name == "status.json":
            stage = json.loads(data)["stages"][-1]
            print(json.dumps({"run": run, "stage": stage["name"], "status": stage["status"], **read_status()}), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out or tmp)
        pipeline.write_atomic = write_and_read
        try:
            for run in range(args.repeat):
                print(json.dumps({"run": run, "stage": "start", "status": "", **read_status()}), flush=True)
                pipeline.run_case(case, cfg, out / f"run{run:03d}")
        finally:
            pipeline.write_atomic = write_atomic
    return 0


if __name__ == "__main__":
    sys.exit(main())
