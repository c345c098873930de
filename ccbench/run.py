#!/usr/bin/env python3
"""ccmorph benchmark: one run of one workload.

    python3 ccbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ccmorph is imported from ``src/``.
Each run sets up its inputs several times in fresh processes (``setup_s`` is
the median), then measures in one more process, so that the peak memory it
reports belongs to the timed section and its pool workers alone. Work files
go to ``.ccbench_work/`` and are removed at the end; a traced run keeps its
spans in ``.ccbench_out/``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). The line before it gives the thread settings,
set-up samples, input digest and the metrics that have no bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from inputs import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included


class ChildError(RuntimeError):
    pass


def _child_env(workers: int) -> dict:
    """Environment for every process the run starts.

    Numerical libraries get one thread each and the case pool gets
    ``workers`` processes, so the run never asks for more threads than CPUs.
    """
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["CCMORPH_THREADS"] = str(workers)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(cmd, env, deadline):
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{Path(cmd[1]).name} passed the {DEADLINE_S:.0f} s deadline") from None
    finally:
        # on a timeout or a SIGTERM to this run, stop the child and its pool
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"{Path(cmd[1]).name} exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"{Path(cmd[1]).name} printed nothing:\n{err.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ccmorph benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ccmorph" / "__init__.py").is_file():
        print(f"ccbench: no ccmorph sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds through the finally blocks: children stop, files go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc) if args.workload == "arch_cohort" else 1
    env = _child_env(workers)
    py = sys.executable or "python3"
    work = ROOT / ".ccbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    spans = ROOT / ".ccbench_out" / f"spans-{args.workload}-seed{args.seed}.json"

    try:
        setup_s, digests = [], []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            cmd = [py, str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)]
            res = _run_child(cmd + (["--small"] if args.small else []), env, deadline)
            setup_s.append(res["setup_s"])
            digests.append(res["digests"])
        cmd = [py, str(HERE / "measure.py"), "--workload", args.workload, "--inputs", str(inputs)]
        cmd += ["--work", str(work / "out"), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = _run_child(cmd + (["--spans", str(spans)] if args.trace else []), env, deadline)
    except ChildError as e:
        print(f"ccbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds when no other run is using it

    inputs_repeat = all(d == digests[0] for d in digests)
    metrics = res["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": {"nproc": nproc, "pool_workers": workers, "blas_omp_threads_per_process": 1},
        "setup_s_samples": setup_s,
        "input_digest": hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest(),
        "inputs_repeat": inputs_repeat,
        "unbounded_metrics": res["extra"],
        "errors": res["errors"],
    }
    if args.trace:
        detail["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(res["correct"] and inputs_repeat),
                "attempted": int(res["attempted"]),
                "failed": int(res["failed"]),
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
