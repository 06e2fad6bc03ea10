#!/usr/bin/env python3
"""Builds and runs the stnb end-to-end benchmark (stnb_e2e.cpp beside this file).

One workload, as BENCHMARK.json's command runs it from the repository root:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints each metric by name with its unit, then, as the last line of stdout,
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

All four workloads, one process at a time, each timed (at least 10
repetitions) and then traced (at least 3):

    python3 bench/e2e/run.py [--out FILE] [--sets 2]

prints every metric, writes the results to --out (default: e2e.json in
the build directory) and exits 1 if any check failed. --sets 2 runs
everything twice and compares the second set with the first through
compare.py (exit 1 on any regression).

The driver is built with CMake into $CARGO_TARGET_DIR/stnb_e2e (default
.bench_build/stnb_e2e) unless --build names another directory.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["spacetime_sheet", "spacetime_wide", "serial_sheet", "coulomb_cube"]
THREADS = min(4, os.cpu_count() or 1)
DRIVER_TIMEOUT_S = 170  # a run must end within 180 s


def build(build_dir):
    """Configures (once) and incrementally builds the driver; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator])
    steps.append(["cmake", "--build", build_dir, "--target", "stnb_e2e",
                  "-j", str(THREADS)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "stnb_e2e")


def run_driver(binary, workload, seed, reps, seconds, trace_dir=None):
    """Runs one driver process and returns its result document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--reps", str(reps), "--seconds", str(seconds)]
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: driver timed out after {DRIVER_TIMEOUT_S} s")
    try:
        return json.loads(proc.stdout)
    except ValueError:
        sys.exit(f"{workload}: driver exited {proc.returncode} without a result")


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        spread = ""
        if "q1" in m:
            spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})"
        print(f"{workload:16s} {name:40s} {m['value']:14.6g} {m['unit']}{spread}")


def host_descriptor(driver_host):
    """The driver's own host fields plus the CPU model and the git SHA."""
    host = dict(driver_host)
    host["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    host["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host["git_sha"] = "unknown"
    try:
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if sha.returncode == 0:
            dirty = subprocess.run(git + ["diff", "--quiet", "HEAD"]).returncode
            host["git_sha"] = sha.stdout.strip() + ("-dirty" if dirty else "")
    except OSError:
        pass
    return host


def one_workload(args, binary):
    """The benchmark contract: one process, one pass, one result line."""
    trace_dir = os.path.join(args.build, "traces") if args.trace else None
    doc = run_driver(binary, args.workload, args.seed, 3, args.seconds, trace_dir)
    metrics = doc["layers"] if args.trace else doc["metrics"]
    print_metrics(args.workload, metrics)
    for failure in doc["failures"]:
        print(f"{args.workload}: {failure}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if doc["correct"] else 1


def one_set(args, binary):
    """Every workload timed then traced; returns the combined result."""
    result = {"workloads": {}}
    for w in WORKLOADS:
        timed = run_driver(binary, w, args.seed, 10, args.seconds)
        traced = run_driver(binary, w, args.seed, 3, 0,
                            os.path.join(args.build, "traces"))
        if "host" not in result:
            result["host"] = host_descriptor(timed["host"])
        result["workloads"][w] = {
            "correct": timed["correct"] and traced["correct"],
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "failed_frac": timed["failed_frac"],
            "digest": timed["digest"],
            "failures": timed["failures"] + traced["failures"],
            "metrics": timed["metrics"],
            "layers": traced["layers"],
        }
        print_metrics(w, {**timed["metrics"], **traced["layers"]})
        print(f"{w:16s} {'failed_frac':40s} {timed['failed_frac']:14.6g} 1"
              f"  (digest {timed['digest']})")
        for failure in result["workloads"][w]["failures"]:
            print(f"{w}: {failure}")
    return result


def all_workloads(args, binary):
    stem, ext = os.path.splitext(args.out)
    paths = []
    correct = True
    for k in range(args.sets):
        path = args.out if args.sets == 1 else f"{stem}.set{k + 1}{ext}"
        result = one_set(args, binary)
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        print(f"wrote {path}")
        paths.append(path)
        correct = correct and all(r["correct"]
                                  for r in result["workloads"].values())
    status = 0 if correct else 1
    for later in paths[1:]:
        status = max(status, compare.main([paths[0], later]))
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="minimum seconds of timed repetitions per process")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: report the per-layer metrics")
    parser.add_argument("--build", help="build directory of the driver")
    parser.add_argument("--out", help="all workloads: result file")
    parser.add_argument("--sets", type=int, default=1,
                        help="all workloads: run this many sets and compare them")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.sets < 1:
        parser.error("--seed and --seconds must be >= 0, --sets >= 1")
    if args.build is None:
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        args.build = os.path.join(target, "stnb_e2e")
    args.build = os.path.abspath(args.build)
    if args.out is None:
        args.out = os.path.join(args.build, "e2e.json")

    binary = build(args.build)
    if args.workload is not None:
        return one_workload(args, binary)
    return all_workloads(args, binary)


if __name__ == "__main__":
    sys.exit(main())
