#!/usr/bin/env python3
"""Same-code two-set comparison of the dftserved benchmark.

Runs every workload of BENCHMARK.json in two sets of untraced runs on the
current checkout (set A with seeds 1.., set B with seeds 101..)
and prints, per workload and end-to-end metric, both medians, the median
difference in the metric's worse direction as a share of set A's median,
and each set's quartile spread as a share of its own median, beside the
metric's bound. The
host's spin-loop reference time is printed per set, so a disagreement
can be put down to the host or to the program. With --traced, one traced
run per workload prints the traced jobs/s beside the untraced median.

    python3 dftbench/compare.py --runs 10
    python3 dftbench/compare.py --runs 5 --workloads store-churn

Run it from the checkout root. Exit status 1 means some spread or median
difference exceeded its bound; setup_s is held to both, like every other
metric.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

HOST_RE = re.compile(r"host\.ref_ms=([0-9.]+),([0-9.]+)")


def run_once(cfg, workload, seed, trace):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    refs = []
    for line in lines:
        m = HOST_RE.search(line)
        if m:
            refs += [float(m.group(1)), float(m.group(2))]
            res["diagnostic"] = line
    return res, refs


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def worse(metric, a, b):
    """Share by which median b is worse than median a."""
    if a == 0:
        return 0.0
    d = (b - a) / a
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write every run's result line to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    names = args.workloads or [w["name"] for w in cfg["workloads"]]
    metrics = cfg["end_to_end"]
    raw = {}
    ok = True
    for name in names:
        sets, refs = [], []
        for s in range(2):
            runs, set_refs = [], []
            for r in range(args.runs):
                res, ref = run_once(cfg, name, 100 * s + r + 1, 0)
                if not res["correct"]:
                    print(f"{name}: run {r} of set {s} not correct: {res['failed']} failed")
                    ok = False
                runs.append(res)
                set_refs += ref
            sets.append(runs)
            refs.append(statistics.median(set_refs) if set_refs else float("nan"))
        raw[name] = sets
        print(f"\n== {name}: {args.runs} runs per set; per set host.ref_ms median: "
              + ", ".join(f"{x:.3f}" for x in refs))
        print(f"{'metric':24} {'median A':>12} {'median B':>12} {'worse B':>8} "
              f"{'IQR A':>7} {'IQR B':>7} {'bound':>6}")
        for m in metrics:
            vals = [[run["metrics"][m["name"]]["value"] for run in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            d = worse(m, meds[0], meds[1])
            bad = d > m["bound"] or any(x > m["bound"] for x in spreads)
            ok = ok and not bad
            print(f"{m['name']:24} {meds[0]:12.4f} {meds[1]:12.4f} {d:8.1%} "
                  + " ".join(f"{x:7.1%}" for x in spreads)
                  + f" {m['bound']:6.0%}" + ("  OVER" if bad else ""))
        if args.traced:
            res, _ = run_once(cfg, name, 1, 1)
            untraced = statistics.median(run["metrics"]["jobs_per_s"]["value"] for run in sets[0])
            traced = res["metrics"].get("trace.jobs_per_s", {}).get("value", float("nan"))
            print(f"traced jobs/s {traced:.2f} vs untraced median {untraced:.2f} "
                  f"(tracing overhead {1 - traced / untraced:.1%})")
            raw[name + ":traced"] = res
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
