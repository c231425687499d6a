#!/usr/bin/env python3
"""CLI flag-validation tests for d2sim.

Malformed flag values, integer flags outside their range and flags the
command does not read must exit with the usage status (2), never crash,
wrap around or silently fall back to defaults; the message must name the
flag. A small well-formed run must still exit 0. Run as:
test_cli_flags.py <path-to-d2sim>.
"""
import os
import subprocess
import sys
import tempfile

USAGE_EXIT = 2

AVAIL = ["availability", "--nodes=16", "--users=2", "--days=1", "--seed=1"]
PERF = ["performance", "--nodes=8", "--users=2", "--days=1", "--seed=1"]

# A --trace-out path that a rejected run must not need.
TRACE = os.path.join(tempfile.gettempdir(), "d2sim_cli_flags_trace.jsonl")

# (argv, expected exit status, label[, text stderr must contain])
CASES = [
    (AVAIL + ["--arcs=4"], USAGE_EXIT, "removed flag", "--arcs"),
    (AVAIL + ["--scheduler=heap"], USAGE_EXIT, "removed flag", "--scheduler"),
    (AVAIL + ["--node=16"], USAGE_EXIT, "typo of --nodes", "--node"),
    (AVAIL + ["--accesses=-5"], USAGE_EXIT, "negative access rate"),
    (AVAIL + ["--replicas=0"], USAGE_EXIT, "zero replicas"),
    (AVAIL + ["--scatter=-1"], USAGE_EXIT, "negative scatter"),
    (AVAIL + ["--scatter=3"], USAGE_EXIT, "scatter not below replicas"),
    (AVAIL + ["--replicas=4", "--scatter=3"], 0, "scatter just below replicas"),
    (AVAIL + ["--nodes=4294967304"], USAGE_EXIT, "nodes past int", "--nodes"),
    (AVAIL + ["--users=4294967298"], USAGE_EXIT, "users past int", "--users"),
    (AVAIL + ["--replicas=-4294967293"], USAGE_EXIT, "replicas below int",
     "--replicas"),
    (AVAIL + ["--trials=0"], USAGE_EXIT, "zero trials", "--trials"),
    (AVAIL + ["--trials=-2", "--trace-out=" + TRACE], USAGE_EXIT,
     "negative trials with a trace", "--trials"),
    (PERF + ["--trials=0"], USAGE_EXIT, "zero performance trials", "--trials"),
    (AVAIL + ["--jobs=-1"], USAGE_EXIT, "negative jobs", "--jobs"),
    (AVAIL + ["--trials=2", "--jobs=1"], 0, "two trials on one job"),
]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: test_cli_flags.py <d2sim>", file=sys.stderr)
        return 2
    d2sim = sys.argv[1]
    failures = 0
    for argv, want, label, *named in CASES:
        proc = subprocess.run(
            [d2sim] + argv,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        ok = proc.returncode == want and all(n in proc.stderr for n in named)
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}: {label} ({' '.join(argv)}) -> exit "
              f"{proc.returncode}, want {want}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
