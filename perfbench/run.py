#!/usr/bin/env python3
"""Repository benchmark for the d2 simulator.

Builds the d2bench driver (perfbench/CMakeLists.txt) as a Release build,
runs one workload repeatedly for a fixed time, checks every repetition's
simulated result and prints the metrics. Run from the repository root:

    python3 perfbench/run.py --workload avail-3k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest      # driver-equivalence tests

--trace 0 prints the end-to-end metrics (throughput over the whole run,
medians of the other metrics over its repetitions);
--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Host facts and
every repetition are also written to .bench_build/results/, and a traced
run's spans to .bench_build/spans/. README.md in this directory
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
DRIVER = os.path.join(BUILD, "d2bench")
WORKLOADS = ("avail-3k", "perf-1k", "repair-rs63")

# Every run must end within this many seconds, build excluded.
RUN_DEADLINE_S = 150

END_TO_END = {
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Host time of a layer is given as a share of the traced wall time, so a
# layer a workload bypasses reads 0 as a share rather than as a time;
# the absolute seconds of every span are in the results file. The times
# kept in seconds are measured on every workload.
PER_LAYER = {
    "trace.generate_share": "share",
    "trace.segment_share": "share",
    "fs.insert_initial_share": "share",
    "fs.apply_share": "share",
    "fs.apply_calls": "count",
    "fs.ops_per_record": "ratio",
    "fs.writeback_coalesced_ratio": "ratio",
    "core.populate_s": "s",
    "core.op_window_share": "share",
    "core.op_windows": "count",
    "core.ops_per_window": "ratio",
    "core.serial_op_share": "share",
    "core.aggregate_s": "s",
    "core.repair.retry_ratio": "ratio",
    "core.repair.verify_ratio": "ratio",
    "core.repair.audit_share": "share",
    "sim.warmup_share": "share",
    "sim.replay_run_s": "s",
    "sim.events": "count",
    "sim.events_per_work": "ratio",
    "sim.ns_per_event": "ns",
    "sim.events_pending_end": "count",
    "sim.failure_gen_share": "share",
    "dht.lb.probes": "count",
    "dht.lb.moves": "count",
    "dht.router.lookups": "count",
    "dht.router.hops_mean": "hops",
    "dht.router.lookup_share": "share",
    "store.replica_fetches": "count",
    "store.migration_per_write": "ratio",
    "store.lookup_cache.miss_rate": "ratio",
    "net.tcp.cold_start_rate": "ratio",
    "net.uplink.transfers": "count",
    "mem.trace_mb": "MB",
    "mem.populate_mb": "MB",
    "mem.warmup_mb": "MB",
    "mem.replay_mb": "MB",
    "self.trace_share": "share",
    "self.fs_share": "share",
    "self.core_share": "share",
    "self.sim_share": "share",
    "self.dht_share": "share",
    "self.store_share": "share",
    "self.net_share": "share",
    "self.driver_share": "share",
    "span_coverage": "ratio",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}

# Simulated results of the default seed, as `d2sim` prints them for the
# flags in README.md. Any change to these is a behaviour change.
DEFAULT_SEED = 1
PINNED = {
    "avail-3k": {"tasks": "223250", "failed": "0", "nodes_per_task": "1.1",
                 "blocks_per_task": "8.4", "unknown_key_gets": "0"},
    "perf-1k": {"groups": "545", "mean_latency_s": "1.33", "lookups": "238",
                "msgs_per_node": "1.8", "miss_rate_pct": "5.7",
                "tcp_cold": "2708", "tcp_transfers": "5424"},
    "repair-rs63": {"blocks": "11698", "lost": "178", "l_over_w": "10.718",
                    "started": "125314", "completed": "122440",
                    "verified": "122440", "open": "0", "events": "250827"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (Release) and builds d2bench; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: d2 sources (src/) not found next to perfbench/")
        sys.exit(2)
    env = child_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("error: build failed: " + " ".join(cmd))
            sys.exit(2)
    info = json.loads(subprocess.run([DRIVER, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    if info["build_type"] != "Release" or not info["ndebug"]:
        log("error: refusing to record from a %s build" % info["build_type"])
        sys.exit(3)
    return info


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_facts(info):
    def first(path, key):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "commit": commit,
        "source_sha256": source_digest(),
    }


def run_rep(workload, seed, traced, deadline, spans_out=None):
    """One driver process; returns (record or None, failure reason)."""
    cmd = [DRIVER, "run", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans-out", spans_out]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if proc.returncode != 0:
        # A negative code is a signal: -9 is usually the OOM killer.
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparseable driver output"
    return rec, check(workload, seed, rec)


def check(workload, seed, rec):
    """Checks one repetition's simulated result; returns '' when correct."""
    r = rec["result"]
    if rec["work"] <= 0 or rec["wall_s"] <= rec["setup_s"]:
        return "no work measured"
    if workload == "avail-3k" and r["unknown_key_gets"] != "0":
        return "gets of unknown keys: " + r["unknown_key_gets"]
    if workload == "perf-1k" and int(r["tcp_transfers"]) == 0:
        return "no transfers simulated"
    if workload == "repair-rs63":
        if r["open"] != "0":
            return "degradation episodes left open: " + r["open"]
        if r["verified"] != r["completed"]:
            return "verified %s != completed %s" % (r["verified"],
                                                     r["completed"])
    if seed == DEFAULT_SEED and r != PINNED[workload]:
        return "result %s differs from pinned %s" % (r, PINNED[workload])
    return ""


def measure(workload, seed, seconds, traced):
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    reps, failures = [], []
    attempts = 0

    def attempt(traced_rep=False, spans_out=None):
        nonlocal attempts
        attempts += 1
        rec, why = run_rep(workload, seed, traced_rep, deadline, spans_out)
        if rec is not None:
            reps.append(rec)
        if why:
            failures.append(why)
            log("repetition failed: " + why)
        return rec if not why else None

    if traced:
        spans_out = os.path.join(spans_dir, "%s-seed%d.tsv" % (workload, seed))
        plain = attempt()
        trace = attempt(True, spans_out)
    else:
        start = time.monotonic()
        while time.monotonic() - start < seconds or not reps:
            attempt()
            if time.monotonic() > deadline - 30:
                break

    failed = len(failures)
    # Tracing must not perturb the simulation, and neither may anything
    # else between repetitions of one seed.
    if len({json.dumps(r["result"], sort_keys=True) for r in reps}) > 1:
        failures.append("repetitions of one seed disagree")
        failed = attempts
    metrics = {}
    if traced:
        if plain and trace:
            metrics = layer_metrics(plain, trace)
    elif reps:
        # Throughput over the whole run: the host's speed flips between
        # states for seconds at a time, and with three repetitions a
        # median would keep one of them and drop the rest.
        metrics = {
            "work_per_s": (sum(r["work"] for r in reps)
                           / sum(r["sim_s"] for r in reps)),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    units = PER_LAYER if traced else END_TO_END
    out = {
        "correct": not failures and bool(metrics),
        "attempted": attempts,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    return out, reps, failures


def layer_metrics(plain, trace):
    layers, wall = trace["layers"], trace["wall_s"]
    m = {}
    for k in PER_LAYER:
        if k.endswith("_share"):
            m[k] = layers.get(k[:-len("share")] + "s", 0.0) / wall
        else:
            m[k] = layers.get(k, 0.0)
    m["sim.events_per_work"] = layers.get("sim.events", 0.0) / trace["work"]
    for phase in ("trace", "populate", "warmup", "replay"):
        m["mem.%s_mb" % phase] = plain["mem"].get(phase, 0.0)
    m["traced_wall_s"] = wall
    m["trace_overhead_s"] = wall - plain["wall_s"]
    return m


def selftest():
    build()
    proc = subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                          env=child_env())
    return proc.returncode


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # driver process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    info = build()
    host = host_facts(info)
    out, reps, failures = measure(args.workload, args.seed, args.seconds,
                                  args.trace == 1)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "summary": out, "failures": failures, "repetitions": reps}
    path = os.path.join(ROOT, ".bench_build", "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
