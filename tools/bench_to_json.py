#!/usr/bin/env python3
"""Run bench_micro and emit a compact BENCH_micro.json snapshot.

Wraps the google-benchmark binary (--benchmark_format=json), keeps only the
fields that matter for trend tracking (real/cpu time per iteration, items
per second), and optionally:

  * times an end-to-end `d2sim performance` trial (wall clock),
  * computes per-benchmark speedups against a previously committed
    baseline snapshot (--baseline: informational only),
  * gates against a snapshot (--compare: prints a per-benchmark ratio
    table and exits non-zero when any benchmark regressed more than
    REGRESSION_FACTOR vs the comparison file — CI runs this report-only;
    --allow-new PREFIX exempts a newly added benchmark family from the
    one-sided-name failure), and
  * records e2e snapshots into BENCH_e2e.json: --e2e-scale (availability
    scale ladder) and --e2e-durability (correlated-failure repair probe,
    rep3 vs rs-6-3) each merge their own section without clobbering the
    other's.

Usage:
  tools/bench_to_json.py --bench build/bench/bench_micro \
      [--out BENCH_micro.json] [--label after] [--min-time 0.1] \
      [--d2sim build/tools/d2sim] [--baseline BENCH_micro_baseline.json] \
      [--compare BENCH_micro.json] [--filter REGEX]

Exit status is non-zero if the benchmark binary fails, or if --compare
found a regression beyond the threshold.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import time


def run_benchmarks(bench, min_time, bench_filter):
    # Older google-benchmark releases want a bare double for min_time;
    # newer ones also accept it (interpreted as seconds).
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    raw = json.loads(proc.stdout)
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time_ns": to_ns(b["real_time"], b["time_unit"]),
            "cpu_time_ns": to_ns(b["cpu_time"], b["time_unit"]),
            "iterations": b["iterations"],
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        if "bytes_per_second" in b:
            entry["bytes_per_second"] = b["bytes_per_second"]
        out[b["name"]] = entry
    return {"context": slim_context(raw.get("context", {})), "benchmarks": out}


def slim_context(ctx):
    return {
        k: ctx[k]
        for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_build_type")
        if k in ctx
    }


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return value * scale


def time_d2sim(d2sim):
    """Wall-clock one seeded end-to-end performance trial (2 trials, 1 job:
    measures per-trial cost, not parallelism)."""
    cmd = [
        d2sim, "performance", "--scheme=d2", "--nodes=48",
        "--trials=2", "--jobs=1", "--seed=1",
    ]
    start = time.monotonic()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    elapsed = time.monotonic() - start
    return {"command": " ".join(cmd[1:]), "wall_seconds": round(elapsed, 3)}


# Scale ladder (EXPERIMENTS.md "scale ladder"): one seeded availability
# trial per rung, 10 users per node, fixed per-user access rate, run
# serially one rung after another.
SCALE_RUNGS = [(256, 2560), (1000, 10000), (10000, 100000),
               (50000, 1000000)]


def run_scale_rung(d2sim, nodes, users):
    """One seeded availability trial. The returned rung carries a digest
    of the per-trial result lines, so a later snapshot shows at a glance
    whether a rung's output changed."""
    cmd = [
        d2sim, "availability", f"--nodes={nodes}", f"--users={users}",
        "--days=1", "--accesses=20", "--seed=1", "--trials=1", "--jobs=1",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          text=True)
    elapsed = time.monotonic() - start
    tasks = 0
    trial_lines = []
    for line in proc.stdout.splitlines():
        if line.startswith("trial="):
            trial_lines.append(line)
            if " tasks=" in line:
                tasks = int(line.split(" tasks=")[1].split()[0])
    digest = hashlib.sha256("\n".join(trial_lines).encode()).hexdigest()
    rung = {
        "nodes": nodes,
        "users": users,
        "command": " ".join(cmd[1:]),
        "wall_seconds": round(elapsed, 3),
        "tasks": tasks,
        "tasks_per_second": round(tasks / elapsed, 1) if elapsed else 0,
        "output_sha256": digest[:16],
    }
    print(f"scale rung nodes={nodes}: {elapsed:.1f}s, "
          f"{rung['tasks_per_second']} tasks/s, output {digest[:16]}")
    return rung


def note_scale_regressions(rungs, prior_section):
    """Annotates any rung whose throughput fell more than
    REGRESSION_FACTOR below the committed snapshot's same-shape rung
    (matched on nodes/users). Snapshots recorded by the removed
    arc-partitioned engine carry arc_workers per rung or per section and
    extra worker_scaling rungs: only their one-worker rungs compare. The
    note lands in the snapshot itself so a slow rung is visible in
    review, not only in a CI log."""
    prior = {}
    if prior_section:
        section_workers = prior_section.get("arc_workers", 1)
        for r in prior_section.get("rungs", []):
            if r.get("arc_workers", section_workers) == 1:
                prior[(r.get("nodes"), r.get("users"))] = r
    for rung in rungs:
        old = prior.get((rung["nodes"], rung["users"]))
        if not old:
            continue
        old_tps = old.get("tasks_per_second", 0)
        if old_tps > 0 and rung["tasks_per_second"] * REGRESSION_FACTOR < old_tps:
            rung["regression_note"] = (
                f"tasks_per_second {rung['tasks_per_second']} is more than "
                f"{REGRESSION_FACTOR}x below the committed {old_tps}; "
                "investigate or re-record the snapshot")
            print(f"WARNING scale rung nodes={rung['nodes']}: "
                  f"{rung['regression_note']}")


def run_scale_ladder(d2sim, prior_section=None):
    rungs = [run_scale_rung(d2sim, nodes, users)
             for nodes, users in SCALE_RUNGS]
    note_scale_regressions(rungs, prior_section)
    return {"rungs": rungs}


# Durability probe (EXPERIMENTS.md "durability under correlated
# failures"): one seeded correlated-failure week through the repair
# engine per redundancy scheme, at the 1k-node rung. Deterministic for a
# fixed seed, so the parsed numbers are stable across runs and machines.
DURABILITY_SCHEMES = ["rep3", "rs-6-3"]


def run_durability_probe(d2sim):
    runs = []
    for scheme in DURABILITY_SCHEMES:
        cmd = [
            d2sim, "repair", "--nodes=1000", "--blocks-per-node=20",
            "--days=7", f"--redundancy={scheme}", "--seed=1",
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                              text=True)
        elapsed = time.monotonic() - start
        entry = {"scheme": scheme, "command": " ".join(cmd[1:]),
                 "wall_seconds": round(elapsed, 3)}
        for line in proc.stdout.splitlines():
            if line.startswith("durability:"):
                lost, total = line.split("lost=")[1].split()[0].split("/")
                entry["blocks_lost"] = int(lost)
                entry["blocks"] = int(total)
            elif line.startswith("repair traffic:"):
                entry["l_over_w"] = float(line.split("L/W=")[1])
            elif line.startswith("repairs:"):
                entry["repairs_completed"] = int(
                    line.split("completed=")[1].split()[0])
            elif line.startswith("mttr:"):
                entry["mttr_mean_s"] = float(
                    line.split("mean=")[1].split("s")[0])
                entry["mttr_p99_s"] = float(
                    line.split("p99=")[1].split("s")[0])
                entry["open_episodes"] = int(
                    line.split("open=")[1].split()[0])
        runs.append(entry)
        print(f"durability {scheme}: {elapsed:.1f}s, "
              f"lost={entry.get('blocks_lost', '?')}/"
              f"{entry.get('blocks', '?')}, "
              f"L/W={entry.get('l_over_w', '?')}")
    return {"runs": runs}


def merge_e2e(path, key, section, label):
    """Update one section of the e2e snapshot in place, preserving the
    others (a durability-only run must not clobber the scale ladder)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        doc = {}
    doc["label"] = label
    doc[key] = section
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {key} to {path}")


def speedups(baseline, current):
    out = {}
    base = baseline.get("benchmarks", {})
    for name, entry in current["benchmarks"].items():
        if name in base and entry["real_time_ns"] > 0:
            out[name] = round(base[name]["real_time_ns"] / entry["real_time_ns"], 3)
    base_e2e = baseline.get("e2e_d2sim_performance")
    cur_e2e = current.get("e2e_d2sim_performance")
    if base_e2e and cur_e2e and cur_e2e["wall_seconds"] > 0:
        out["e2e_d2sim_performance"] = round(
            base_e2e["wall_seconds"] / cur_e2e["wall_seconds"], 3)
    return out


# --compare fails only on >2x slowdowns: shared CI runners are noisy
# enough that small ratios are meaningless, but a halved throughput is a
# real regression (or a baseline that needs re-recording — see
# DESIGN.md §5c).
REGRESSION_FACTOR = 2.0


def compare_report(reference, current, allow_new=()):
    """Prints a per-benchmark ratio table vs `reference`; returns a list
    of failure strings: benchmarks that regressed more than
    REGRESSION_FACTOR, plus any name present in only one of the two
    snapshots (a one-sided name means the suites diverged — renamed or
    dropped benchmarks silently escape the gate unless it fails here).

    `allow_new` is a list of name prefixes for benchmark families that
    are expected to be one-sided: a freshly added family (e.g. BM_Ec*)
    compared against a historical snapshot should not fail the gate, and
    conversely a gate run that --filter'ed the family out should not
    fail against a snapshot that has it. Timing regressions within an
    allowed family still fail normally once both sides have the name."""
    ref = reference.get("benchmarks", {})
    cur = current["benchmarks"]
    failures = []
    rows = []

    def is_allowed_new(name):
        return any(name.startswith(p) for p in allow_new)

    for name, entry in sorted(cur.items()):
        if name not in ref:
            rows.append((name, None))
            if is_allowed_new(name):
                continue  # labelled in the table, not gated
            failures.append(
                f"{name}: only in current run, not in reference "
                f"'{reference.get('label', '?')}' — re-record the reference "
                "snapshot if this benchmark was added intentionally, or "
                "pass --allow-new with its family prefix")
            continue
        if ref[name]["real_time_ns"] <= 0:
            rows.append((name, None))
            continue
        ratio = entry["real_time_ns"] / ref[name]["real_time_ns"]
        rows.append((name, ratio))
        if ratio > REGRESSION_FACTOR:
            failures.append(
                f"{name}: {ratio:.3f}x slower than reference "
                f"(> {REGRESSION_FACTOR}x threshold)")
    for name in sorted(set(ref) - set(cur)):
        rows.append((name, None))
        if is_allowed_new(name):
            continue  # labelled in the table, not gated
        failures.append(
            f"{name}: in reference but missing from current run — the "
            "benchmark was removed or renamed, or --filter excluded it")
    width = max((len(n) for n, _ in rows), default=0)
    print(f"compare vs '{reference.get('label', '?')}' "
          f"(ratio = current/reference real time; > {REGRESSION_FACTOR}x fails)")
    for name, ratio in rows:
        if ratio is None:
            if name in ref and name in cur:
                side = "(no reference timing)"
            elif is_allowed_new(name):
                side = "(one-sided: new family, allowed)"
            else:
                side = "(one-sided: see FAIL below)"
            print(f"  {name:<{width}}  {side}")
        else:
            flag = "  << REGRESSION" if ratio > REGRESSION_FACTOR else ""
            print(f"  {name:<{width}}  {ratio:6.3f}x{flag}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="", help="path to bench_micro binary")
    ap.add_argument("--out", default="BENCH_micro.json")
    ap.add_argument("--label", default="run")
    ap.add_argument("--min-time", type=float, default=0.1)
    ap.add_argument("--filter", default="", help="benchmark name regex")
    ap.add_argument("--d2sim", default="", help="also wall-clock a d2sim trial")
    ap.add_argument("--baseline", default="",
                    help="previous snapshot to compute speedups against")
    ap.add_argument("--compare", default="",
                    help="snapshot to gate against: print ratio table, exit "
                         f"non-zero on a > {REGRESSION_FACTOR}x regression")
    ap.add_argument("--allow-new", action="append", default=[],
                    metavar="PREFIX",
                    help="benchmark-name prefix for a family that may be "
                         "one-sided in --compare (newly added, or filtered "
                         "out); repeatable. Timing regressions still gate.")
    ap.add_argument("--e2e-scale", action="store_true",
                    help="run the availability scale ladder (256/1k/10k/50k "
                         "nodes, serially) and merge it into --e2e-out; "
                         "requires --d2sim")
    ap.add_argument("--e2e-durability", action="store_true",
                    help="run the correlated-failure durability probe "
                         "(d2sim repair, rep3 + rs-6-3 at 1k nodes) and "
                         "merge it into --e2e-out; requires --d2sim")
    ap.add_argument("--e2e-out", default="BENCH_e2e.json")
    args = ap.parse_args()

    if args.e2e_scale or args.e2e_durability:
        if not args.d2sim:
            ap.error("--e2e-scale/--e2e-durability require --d2sim")
        if args.e2e_scale:
            try:
                with open(args.e2e_out) as f:
                    prior_section = json.load(f).get("e2e_scale")
            except (OSError, ValueError):
                prior_section = None
            merge_e2e(args.e2e_out, "e2e_scale",
                      run_scale_ladder(args.d2sim, prior_section),
                      args.label)
        if args.e2e_durability:
            merge_e2e(args.e2e_out, "e2e_durability",
                      run_durability_probe(args.d2sim), args.label)
        if not args.bench:
            return 0
    if not args.bench:
        ap.error("--bench is required unless --e2e-scale or "
                 "--e2e-durability runs alone")

    result = run_benchmarks(args.bench, args.min_time, args.filter)
    result["label"] = args.label
    if args.d2sim:
        result["e2e_d2sim_performance"] = time_d2sim(args.d2sim)
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        result["baseline_label"] = baseline.get("label", "?")
        result["speedup_vs_baseline"] = speedups(baseline, result)

    with open(args.out, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(result['benchmarks'])} benchmarks to {args.out}")
    if "speedup_vs_baseline" in result:
        for name, s in sorted(result["speedup_vs_baseline"].items()):
            print(f"  {name}: {s}x")
    if args.compare:
        with open(args.compare) as f:
            reference = json.load(f)
        failures = compare_report(reference, result, args.allow_new)
        if failures:
            print(f"FAIL: {len(failures)} comparison failure(s):")
            for f in failures:
                print(f"  {f}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
