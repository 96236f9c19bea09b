#!/usr/bin/env python3
"""Self-tests of the touch benchmark.

    python3 perfbench/selftest.py

1. One seed always produces byte-identical frames, and a different seed
   produces different frames (touchbench --selftest, every workload).
2. Every metric BENCHMARK.json names is emitted, with its unit, by a short
   run of every workload in both modes, and nothing else is emitted.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def fail(message):
    print("selftest FAILED: " + message)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    frames = subprocess.run(RUN + ["--selftest"], cwd=ROOT,
                            capture_output=True, text=True)
    print(frames.stdout.strip())
    if frames.returncode != 0:
        fail("frame determinism")

    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            run = subprocess.run(
                RUN + ["--workload", workload["name"], "--seed", "3",
                       "--seconds", "2", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                fail("%s --trace %s exited %d" %
                     (workload["name"], trace, run.returncode))
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail("result keys %s" % sorted(result))
            if result["correct"] is not True or result["attempted"] < 1:
                fail("%s --trace %s: %s" % (workload["name"], trace, lines[-1]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail("%s --trace %s metrics differ: missing %s, extra %s, "
                     "units %s" % (
                         workload["name"], trace,
                         sorted(set(want) - set(got)),
                         sorted(set(got) - set(want)),
                         sorted(n for n in want
                                if n in got and got[n] != want[n])))
            print("%-14s --trace %s: %d metrics with units ok" %
                  (workload["name"], trace, len(got)))
    print("selftest ok")


if __name__ == "__main__":
    main()
