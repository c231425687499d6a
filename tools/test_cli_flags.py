#!/usr/bin/env python3
"""CLI flag-validation tests for d2sim.

Malformed flag values and flags the command does not read must exit
with the usage status (2), never crash or silently fall back to
defaults; an unknown flag's message must name it. A small well-formed
run must still exit 0. Run as: test_cli_flags.py <path-to-d2sim>.
"""
import subprocess
import sys

USAGE_EXIT = 2

BASE = ["availability", "--nodes=16", "--users=2", "--days=1", "--seed=1"]

# (extra flags, expected exit status, label[, text stderr must contain])
CASES = [
    (["--arcs=4"], USAGE_EXIT, "removed flag", "--arcs"),
    (["--node=16"], USAGE_EXIT, "typo of --nodes", "--node"),
    (["--accesses=-5"], USAGE_EXIT, "negative access rate"),
    (["--replicas=0"], USAGE_EXIT, "zero replicas"),
    (["--scatter=-1"], USAGE_EXIT, "negative scatter"),
    (["--scatter=3"], USAGE_EXIT, "scatter not below replicas"),
    (["--replicas=4", "--scatter=3"], 0, "scatter just below replicas"),
    (["--scheduler=bogus"], USAGE_EXIT, "unknown scheduler backend"),
    (["--scheduler=wheel"], 0, "timing-wheel scheduler"),
    (["--scheduler=heap"], 0, "reference heap scheduler"),
]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: test_cli_flags.py <d2sim>", file=sys.stderr)
        return 2
    d2sim = sys.argv[1]
    failures = 0
    for extra, want, label, *named in CASES:
        proc = subprocess.run(
            [d2sim] + BASE + extra,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        ok = proc.returncode == want and all(n in proc.stderr for n in named)
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}: {label} ({' '.join(extra)}) -> exit "
              f"{proc.returncode}, want {want}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
