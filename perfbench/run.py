#!/usr/bin/env python3
"""Builds the touch benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The build goes to .bench_build/ and run
artefacts (spill files, trace dumps) to .bench_out/, both under the root.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero when the build fails, a check
fails or the run overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "touchbench")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ beside perfbench/ to build", file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--out", OUT] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
