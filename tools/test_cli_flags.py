#!/usr/bin/env python3
"""CLI flag-validation tests for d2sim.

Malformed flag values must exit with the usage status (2), never crash
or silently fall back to defaults; a small well-formed run must still
exit 0. Run as: test_cli_flags.py <path-to-d2sim>.
"""
import subprocess
import sys

USAGE_EXIT = 2

BASE = ["availability", "--nodes=16", "--users=2", "--days=1", "--seed=1"]

# (extra flags, expected exit status, label)
CASES = [
    (["--arcs=0"], USAGE_EXIT, "zero arcs"),
    (["--arcs=-3"], USAGE_EXIT, "negative arcs"),
    (["--arcs=abc"], USAGE_EXIT, "non-numeric arcs"),
    (["--arcs=1025"], USAGE_EXIT, "arcs above ArcPlan cap"),
    (["--arc-workers=0"], USAGE_EXIT, "zero arc workers"),
    (["--arc-workers=-1"], USAGE_EXIT, "negative arc workers"),
    (["--arc-workers=xyz"], USAGE_EXIT, "non-numeric arc workers"),
    (["--accesses=-5"], USAGE_EXIT, "negative access rate"),
    (["--scatter=2", "--arcs=4"], USAGE_EXIT, "scatter with multiple arcs"),
    (["--replicas=0"], USAGE_EXIT, "zero replicas"),
    (["--scatter=-1"], USAGE_EXIT, "negative scatter"),
    (["--scatter=3"], USAGE_EXIT, "scatter not below replicas"),
    (["--replicas=4", "--scatter=3"], 0, "scatter just below replicas"),
    (["--scheduler=bogus"], USAGE_EXIT, "unknown scheduler backend"),
    (["--scheduler=wheel"], 0, "timing-wheel scheduler"),
    (["--scheduler=heap"], 0, "reference heap scheduler"),
    (["--arcs=4", "--arc-workers=2"], 0, "valid partitioned run"),
    # Oversized worker requests clamp to hardware concurrency, not error.
    (["--arcs=4", "--arc-workers=9999"], 0, "worker count clamps"),
]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: test_cli_flags.py <d2sim>", file=sys.stderr)
        return 2
    d2sim = sys.argv[1]
    failures = 0
    for extra, want, label in CASES:
        proc = subprocess.run(
            [d2sim] + BASE + extra,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        status = "ok" if proc.returncode == want else "FAIL"
        if proc.returncode != want:
            failures += 1
        print(f"{status}: {label} ({' '.join(extra)}) -> exit "
              f"{proc.returncode}, want {want}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
