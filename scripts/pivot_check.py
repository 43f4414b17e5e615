#!/usr/bin/env python3
"""Check the pivot counters of a traced ilp_study run against their pinned
values, so LP drift that leaves every step's SLDwA unchanged still fails.

Usage:
    python3 perfbench/run.py --workload ilp_study --seed 1 --seconds 1 \\
        --trace 1 > trace.txt
    python3 scripts/pivot_check.py trace.txt

The run's last output line is its JSON result. The check requires
"correct": true and the exact branch & bound node count, node-LP pivot
count, and root-LP pivot and refactorization counts below. These counters
are node-limited and deterministic, so any change is a change of the
search, not noise. Exit 0 when all match, 1 on any mismatch, 2 when the
input has no JSON result line.
"""
import json
import sys

PINNED = {
    "mip.nodes": 161,
    "mip.lp_iterations": 78478,
    "lp.root_iterations": 9492,
    "lp.root_refactorizations": 113,
}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8", errors="replace") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("pivot_check: no JSON result line in %s" % argv[1],
              file=sys.stderr)
        return 2

    failures = []
    if result.get("correct") is not True:
        failures.append('"correct" is %r, want true' % result.get("correct"))
    for name, want in PINNED.items():
        got = metrics.get(name, {}).get("value")
        status = "ok" if got == want else "MISMATCH"
        print("%-26s %10s (pinned %d) %s" % (name, got, want, status))
        if got != want:
            failures.append("%s is %s, pinned %d" % (name, got, want))
    for failure in failures:
        print("pivot_check: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
