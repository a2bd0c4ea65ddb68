"""Seeded benchmark of the situfuse backend: ingest, dense fusion, history queries.

Run from the repository root:

    python3 perfbench/run.py --workload fuse_dense --seed 1 --seconds 4 --trace 0

The workloads are described in perfbench/README.md.  With ``--trace 0`` the
run reports every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
runs an ingest pass and the first fuse cycle with layer wrappers installed
and reports every per-layer metric, writing the spans to ``.perfbench_work/``.  It prints a
report, then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every operation and output check passed, 1 when one
failed, 2 when the situfuse sources are missing next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sqlite3
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "situfuse"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("ingest", "fuse_dense", "fuse_history")


def filesystem(path: Path) -> str:
    """Type of the filesystem holding `path`, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fp:
            for line in fp:
                _, mount, fstype = line.split()[:3]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def machine(workdir: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "store_filesystem": filesystem(workdir),
        "src_situfuse_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(PACKAGE.rglob("*.py"))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no situfuse sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(ROOT)]
    import situfuse

    if Path(situfuse.__file__).resolve().parent != PACKAGE:
        print(f"error: situfuse imported from {situfuse.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    from perfbench.workloads import Workload

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, args.seconds, str(workdir))
        metrics = workload.run(trace=bool(args.trace))
        if args.trace:
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            os.replace(workdir / "trace.json", trace_file)
            workload.info["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = workload.tally
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            tally.fail(f"metric {name} has no samples")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(WORK),
        "info": workload.info,
        "problems": tally.problems,
        "metrics": {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report, indent=1, default=str))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
