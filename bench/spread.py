"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py [--workload W ...] [--seeds 1-10]
        [--trace-seeds 1-3] [--seconds S] [--out point.json]

Runs bench/run.py once per seed and workload, one run at a time (all
workloads when none is named).  For every metric it prints the median and
the distance between the first and third quartiles (statistics.quantiles
with n=4) as a share of the median.  End-to-end spreads are compared with
a third of their bounds (run.END_TO_END, which BENCHMARK.json carries);
setup_s is exempt, as only its median is compared between commits.
--trace-seeds adds traced runs, summarized the same way.  --out writes
every run and the summaries as one JSON file: a point of the trajectory.
Exits 3 if a run was incorrect or a spread too wide.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run as bench


def seeds_of(text):
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_seeds(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            raise RuntimeError("%s failed:\n%s%s" % (" ".join(cmd),
                                                     proc.stdout,
                                                     proc.stderr))
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print("%s trace=%d seed %d correct=%s attempted=%d failed=%d" % (
            workload, trace, seed, result["correct"], result["attempted"],
            result["failed"]), flush=True)
    return runs


def report(runs, bounds):
    """Summaries per metric; the second value is False if a run was
    incorrect or a bounded spread is not below a third of its bound."""
    ok = all(r["correct"] for r in runs)
    summary = {}
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        line = "  %-36s median %12.6g  spread %7.4f" % (name, s["median"],
                                                        s["spread"])
        if name in bounds:
            s["bound"] = bounds[name]
            if name != "setup_s":
                s["steady"] = s["spread"] < bounds[name] / 3
                ok = ok and s["steady"]
                line += "  bound/3 %.4f %s" % (
                    bounds[name] / 3, "ok" if s["steady"] else "WIDE")
        summary[name] = s
        print(line)
    return summary, ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   choices=sorted(bench.workloads.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--seconds", type=float, default=bench.RUN_SECONDS)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {n: bound for n, _u, _b, bound in bench.END_TO_END}
    point = {"python": platform.python_version(),
             "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
             "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or list(bench.workloads.WORKLOADS):
        entry = point["workloads"][workload] = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds_of(seeds):
                continue
            runs = run_seeds(workload, seeds_of(seeds), args.seconds, trace)
            print("%s trace=%d over %d seeds:" % (workload, trace,
                                                   len(runs)))
            summary, good = report(runs, bounds if trace == 0 else {})
            ok = ok and good
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
