#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--trace 0|1]

Runs perfbench/run.py once per seed (with BENCHMARK.json's run_seconds) and
prints, per metric, the median of the runs and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, beside the metric's bound. Use it to check that the benchmark is
steady before relying on a comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, units, provenance = {}, {}, None
    for seed in seeds(args.seeds):
        t0 = time.time()
        r = subprocess.run(bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.exit("seed %d: no result (exit %d)\n%s" % (seed, r.returncode,
                                                          r.stderr[-2000:]))
        print("seed %d: exit %d, correct %s, failed %d, %.1f s" % (
            seed, r.returncode, result["correct"], result["failed"],
            time.time() - t0), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines:
            if provenance is None and line.startswith("provenance: "):
                provenance = json.loads(line[len("provenance: "):])
    print("%-34s %14s %8s %7s" % ("metric", "median", "iqr/med", "bound"))
    summary = {}
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s %14.6g %8.3f %7s" % (name, med, spread,
                                          "" if bound is None else bound))
        if args.verbose:
            print("    " + " ".join("%.4g" % x for x in v))
        summary[name] = {"unit": units[name], "median": med, "q1": q[0],
                         "q3": q[2], "iqr_share": spread, "values": v}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seeds": seeds(args.seeds),
                       "run_seconds": bench["run_seconds"],
                       "provenance": provenance, "metrics": summary},
                      f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
