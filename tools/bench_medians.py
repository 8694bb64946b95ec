#!/usr/bin/env python3
"""Reduces repeated google-benchmark runs to one median row per benchmark.

A single run of a benchmark binary can swing well past the bench gate's
1.3x on a shared runner, and `check_bench_regression.py --rebaseline` pins
whatever its input says. Feed it medians instead:

  LDPR_THREADS=1 ./build/bench/micro_batch --benchmark_repetitions=5 \
      --benchmark_out=batch.json --benchmark_out_format=json   # ... each binary
  python3 tools/bench_medians.py medians.json batch.json closedform.json serve.json
  python3 tools/check_bench_regression.py --baseline tools/bench_baseline.json \
      --current medians.json --rebaseline

Every iteration row of every input file (all repetitions, any number of
runs) is pooled by name; the output row carries the median cpu_time in ns
and the median items_per_second. Aggregate rows (mean/median/stddev) that
google-benchmark appends are ignored, so the median is over the raw runs.
"""

import json
import statistics
import sys

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    context, times, rates = None, {}, {}
    for path in sys.argv[2:]:
        with open(path) as f:
            doc = json.load(f)
        if context is None:
            context = doc.get("context", {})
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type", "iteration") != "iteration":
                continue
            name = bench["name"]
            unit = UNIT_TO_NS[bench.get("time_unit", "ns")]
            times.setdefault(name, []).append(float(bench["cpu_time"]) * unit)
            rates.setdefault(name, [])
            if bench.get("items_per_second") is not None:
                rates[name].append(bench["items_per_second"])
    rows = []
    for name, runs in times.items():
        row = {"name": name, "run_type": "iteration", "time_unit": "ns",
               "cpu_time": statistics.median(runs), "repetitions": len(runs)}
        if rates[name]:
            row["items_per_second"] = statistics.median(rates[name])
        rows.append(row)
    with open(sys.argv[1], "w") as f:
        json.dump({"context": context, "benchmarks": rows}, f, indent=1)
    counts = [len(r) for r in times.values()]
    print(f"wrote {sys.argv[1]}: {len(rows)} benchmarks, "
          f"{min(counts)}-{max(counts)} runs each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
