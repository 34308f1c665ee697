#!/usr/bin/env python3
"""Builds and runs the LH*RS benchmark (see README.md).

    python3 perfbench/run.py --workload insert_grow --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench under the repository root, runs one workload
and forwards the binary's output: a metric table, then one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of stdout. Build output goes to stderr.

    python3 perfbench/run.py --check-determinism [--seed N]

runs every deterministic-engine workload twice at one seed, untraced and
traced, and fails unless every seed-exact metric and per-layer count agrees;
insert_grow_l3 is run twice too and its spread is reported, not asserted.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lhrs_perfbench")
WORKLOADS = ("insert_grow", "zipf_mixed", "fail_recover", "insert_grow_l3")
RUN_TIMEOUT_S = 175

# Metrics that are exact functions of the seed on the deterministic engine
# (everything but timings and memory).
SEED_EXACT_E2E = ("sim_p50_us", "sim_p99_us", "msgs_per_op", "bytes_per_op",
                  "storage_overhead")
SEED_EXACT_LAYER = ("net.events_per_op", "lhstar.forwards_per_op",
                    "lhstar.splits", "lhstar.overflow_reports_per_split",
                    "lhstar.move_bytes_per_op", "lhrs.parity_msgs_per_op",
                    "lhrs.deltas_applied_per_op", "lhrs.deltas_buffered",
                    "lhrs.repair_bytes_per_cycle",
                    "lhrs.recovery_msgs_per_cycle", "lhrs.recover_sim_ms",
                    "lhstar.load_factor", "exec.sim_us_per_op",
                    "exec.sim_spread_pct")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "lhrs_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(workload, seed, seconds, trace, capture=False):
    """Runs the binary once; returns (exit code, stdout, stderr)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace_%s_%s.json" % (workload, seed))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, "", ""
    return p.returncode, p.stdout, p.stderr or ""


def seed_exact(stdout, stderr, names):
    """The seed-exact line plus the named metrics of one run's result."""
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    line = [l for l in stderr.splitlines() if l.startswith("seed-exact:")]
    values = {n: metrics[n]["value"] for n in names if n in metrics}
    return line[-1] if line else "", values


def check_determinism(seed):
    ok = True
    for workload in WORKLOADS:
        for trace, names in ((0, SEED_EXACT_E2E), (1, SEED_EXACT_LAYER)):
            results = []
            for _ in range(2):
                code, out, err = run(workload, seed, 2, trace, capture=True)
                if code != 0:
                    print("%s: exit %d\n%s" % (workload, code, err))
                    return False
                results.append(seed_exact(out, err, names))
            (line_a, a), (line_b, b) = results
            if workload.endswith("_l3"):
                for name in sorted(a.keys() & b.keys()):
                    lo, hi = sorted((a[name], b[name]))
                    print("%s trace=%d %s: %.6g .. %.6g (not asserted)"
                          % (workload, trace, name, lo, hi))
                continue
            same = a == b and line_a == line_b
            ok &= same
            print("%s trace=%d: %s" % (workload, trace,
                                       "identical" if same else "DIFFERENT"))
            if not same:
                print("  run 1: %s %s\n  run 2: %s %s" % (line_a, a, line_b, b))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    if not args.check_determinism and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.check_determinism:
        return 0 if check_determinism(args.seed) else 1
    code, out, _ = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
