#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload socket_oue --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload paper_figures --seed 1 --repeat 10

The first call configures and builds the benchmark (the library from src/
plus perfbench/src/) in Release under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. A single-workload run passes the binary's output
through: its last stdout line is the JSON result. --repeat N runs N seeds
in a row and prints each metric's median, quartiles, spread and CV.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["socket_oue", "longitudinal_grr", "multidim_tuples",
             "paper_figures"]
RUN_TIMEOUT_S = 600


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout, parsed result)."""
    work = os.path.join(build_root(), "run")
    os.makedirs(work, exist_ok=True)
    # A relative socket path stays under the 108-byte sun_path limit.
    work = os.path.relpath(work, ROOT)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--repo-root", ".", "--work-dir", work]
    if trace:
        command += ["--trace-out",
                    os.path.join(work, f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binary, workloads, first_seed, count, seconds, trace):
    status = 0
    for workload in workloads:
        samples = {}
        units = {}
        print(f"\n{workload}: {count} runs, seeds {first_seed}.."
              f"{first_seed + count - 1}, {seconds} s each", flush=True)
        for seed in range(first_seed, first_seed + count):
            code, _, result = run_once(binary, workload, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"  seed {seed}: FAILED (exit {code})", flush=True)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            shown = "  ".join(f"{name}={metric['value']:.6g}"
                              for name, metric in result["metrics"].items())
            print(f"  seed {seed}: {shown}", flush=True)
        print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/median':>10} {'cv':>8}  unit")
        for name, values in samples.items():
            q1, median, q3 = quartiles(values)
            mean = statistics.fmean(values)
            cv = (statistics.stdev(values) / mean
                  if len(values) > 1 and mean else 0.0)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:<24} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>10.4f} {cv:>8.4f}  {units[name]}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N seeds and print per-metric statistics")
    args = parser.parse_args()
    seconds = f"{args.seconds:g}"
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    binary = build()
    if args.repeat > 0:
        sys.exit(repeat(binary, workloads, args.seed, args.repeat, seconds,
                        args.trace))

    if len(workloads) == 1:
        code, out, _ = run_once(binary, workloads[0], args.seed, seconds,
                                args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, out, result = run_once(binary, workload, args.seed, seconds,
                                     args.trace)
        sys.stdout.write("".join(out.splitlines(keepends=True)[:-1]))
        if code != 0 or result is None:
            status = 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    sys.exit(status)


if __name__ == "__main__":
    main()
