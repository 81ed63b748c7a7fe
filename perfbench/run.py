#!/usr/bin/env python3
"""Host-speed benchmark of the Amber simulator.

    python3 perfbench/run.py --workload scale|sor|serve|migrate --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds perfbench/ (which compiles src/) into
.bench_build/perfbench, runs the workload in its own process, checks its
virtual digest against perfbench/golden.json, and prints one JSON object as
the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones. A run
whose rounds disagree with each other, break an invariant, or differ from
the golden digest for its seed counts every attempted op as failed.

    python3 perfbench/run.py --record-golden [--smoke] [--workload W] --seed N [--seed M ...]

prints golden digests for the given seeds (of W, or of every workload) to
paste into perfbench/golden.json. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("scale", "sor", "serve", "migrate")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no Amber sources next to perfbench/ (run from the repository root)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace, smoke):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans_%s_%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden(smoke):
    with open(GOLDEN) as f:
        return json.load(f)["smoke" if smoke else "full"]


def golden_mismatch(report, smoke):
    """Fields of the report's digest that differ from the golden digest of its seed."""
    expected = load_golden(smoke).get(report["workload"], {}).get(str(report["seed"]))
    if expected is None:
        return []
    return [k for k, v in report["digest"].items() if k in expected and expected[k] != v]


def result(report, smoke):
    errors = []
    if report["error"]:
        errors.append(report["error"])
    bad = golden_mismatch(report, smoke)
    if bad:
        errors.append("digest differs from golden in " + ", ".join(bad))
    for e in errors:
        log("%s seed %d: %s" % (report["workload"], report["seed"], e))
    attempted = report["attempted"]
    return {"correct": not errors, "attempted": attempted,
            "failed": attempted if errors else 0, "metrics": report["metrics"]}


def record_golden(workloads, seeds, smoke):
    out = {}
    for w in workloads:
        out[w] = {}
        for seed in seeds:
            # A traced run also covers serve's bare (observer-free) rounds.
            report = run_workload(w, seed, 0.001, True, smoke)
            if report["error"]:
                raise RuntimeError("%s seed %d: %s" % (w, seed, report["error"]))
            out[w][str(seed)] = report["digest"]
            log("recorded %s seed %d" % (w, seed))
    print(json.dumps(out, indent=2, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes (the benchmark's own tests)")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    seeds = args.seed or [1]
    try:
        build()
        if args.record_golden:
            record_golden([args.workload] if args.workload else WORKLOADS, seeds, args.smoke)
            return 0
        if args.workload is None or len(seeds) != 1:
            ap.error("--workload and one --seed are required")
        report = run_workload(args.workload, seeds[0], args.seconds, args.trace == 1, args.smoke)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1
    print(json.dumps(result(report, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
