#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload qsearch|sweeps|moments --seed N \
        --seconds S --trace 0|1

The first call configures and builds the library and the driver under
.bench_build/perfbench (later calls only rebuild what changed). The driver's
report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REQUIRED = ("src/CMakeLists.txt", "bench/sweep_specs.hpp")
WORKLOADS = ("qsearch", "sweeps", "moments")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every file the driver is built from, so results from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "bench" / "sweep_specs.hpp"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"configure failed, see {log}", 3)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                   "-j", jobs], log) != 0:
        fail(f"build failed, see {log}", 3)
    return BUILD / "perfbench"


def check_metric_names(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(json.loads(line)["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"library sources missing ({', '.join(missing)}); run from a "
             "full checkout")
    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--refs", str(HERE / "refs" / "references.txt"),
           "--scratch", str(BUILD), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"driver exited with {proc.returncode}", max(proc.returncode, 1))
    lines = out.rstrip("\n").split("\n")
    check_metric_names(lines[-1], args.trace == 1)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
