#!/usr/bin/env python3
"""Compare a BENCH_*.json report against its checked-in baseline.

Usage: compare_bench.py BASELINE CURRENT

The baseline file carries the gates: per metric, which direction is an
improvement ("higher" or "lower") and the fractional regression `tol`
the CI job tolerates before failing (default 0.2 = 20%, per-metric
overrides live in the baseline so it documents its own tolerances).
Metrics without a gate are printed as informational. Near-zero baselines
get a small absolute slack instead of a relative one, so a 0.0 -> 0.003
wobble on a rate metric does not fail the build. A gate at `tol` 0 gets
no slack at all: it gates an exact count, and any rise fails.

Exit status: 0 when every gated metric is within tolerance, 1 otherwise
(failures are listed), 2 on malformed input.
"""

import json
import sys

DEFAULT_TOL = 0.2
# Absolute slack for near-zero baselines (rates/ratios that are exactly
# 0 or ~0 in the baseline run) of gates with a tolerance above 0.
ABS_SLACK = 0.01


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"compare_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline = load(argv[1])
    current = load(argv[2])
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    gates = baseline.get("gates", {})

    name = current.get("bench", "?")
    print(f"[{name}] current vs baseline ({argv[1]})")
    header = f"{'metric':<32}{'baseline':>14}{'current':>14}{'delta':>10}  status"
    print(header)
    print("-" * len(header))

    failures = []
    warnings = []
    for key, gate in gates.items():
        if key not in base_metrics:
            # A gate whose metric predates the checked-in baseline (a new
            # metric gated before the baseline was regenerated) is a
            # warning, not a failure: there is nothing to compare against
            # yet. Regenerating the baseline arms the gate.
            warnings.append(
                f"{key}: gated but missing from baseline metrics "
                "(skipped; regenerate the baseline to arm this gate)"
            )
            continue
        if key not in cur_metrics:
            failures.append(f"{key}: missing from current report")
            continue
        base = float(base_metrics[key])
        cur = float(cur_metrics[key])
        tol = float(gate.get("tol", DEFAULT_TOL))
        direction = gate.get("direction", "higher")
        if direction not in ("higher", "lower"):
            failures.append(f"{key}: bad direction {direction!r} in baseline")
            continue
        slack = max(abs(base) * tol, ABS_SLACK) if tol > 0 else 0.0
        if direction == "higher":
            ok = cur >= base - slack
        else:
            ok = cur <= base + slack
        delta = (cur - base) / base * 100.0 if base != 0.0 else float("inf")
        delta_s = f"{delta:+9.1f}%" if base != 0.0 else "       n/a"
        status = "ok" if ok else f"FAIL ({direction} is better, tol {tol:.0%})"
        print(f"{key:<32}{base:>14.4g}{cur:>14.4g}{delta_s}  {status}")
        if not ok:
            failures.append(
                f"{key}: {cur:.6g} vs baseline {base:.6g} "
                f"(direction={direction}, tol={tol})"
            )

    # A metric that existed in the baseline but vanished from the new run
    # is a failure even when ungated: a silently dropped metric reads as
    # "still covered" while regressions in it go blind. (Gated metrics
    # missing from the current report were already failed above.)
    for key in sorted(set(base_metrics) - set(cur_metrics)):
        if key in gates:
            continue
        failures.append(
            f"{key}: present in baseline but missing from current report "
            "(metric dropped; regenerate the baseline if this is intended)"
        )

    informational = sorted(set(cur_metrics) - set(gates))
    if informational:
        print("\ninformational (ungated):")
        for key in informational:
            print(f"  {key:<30} {cur_metrics[key]:.6g}")

    if warnings:
        print(f"\n{len(warnings)} gate warning(s):", file=sys.stderr)
        for warning in warnings:
            print(f"  - {warning}", file=sys.stderr)

    if failures:
        print(f"\n{len(failures)} gate(s) FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(gates) - len(warnings)} armed gate(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
