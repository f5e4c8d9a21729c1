#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--trace 0|1] [--record perfbench/RESULTS.json]

Runs BENCHMARK.json's command once per (workload, seed) from the
repository root, sequentially, with BENCHMARK.json's run_seconds. For
every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread, (q3 - q1) / median, next to
the metric's bound, and the same spread of the raw times, before they
were scaled to the reference host's speed. --record adds those figures, the host block and
each run's values to a JSON file, under "end_to_end" or "per_layer"
by --trace; the first seed is recorded as the workload seed and the
second as the second seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit("%s seed %d: exit %d\n%s" % (workload, seed, proc.returncode,
                                              proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    host = next((l[len("# host: "):] for l in lines if l.startswith("# host: ")), "")
    raw = {}
    for l in lines:
        if l.startswith("# raw: "):
            for item in l[len("# raw: "):].split(", "):
                name, value = item.split()
                raw[name] = float(value)
    return json.loads(lines[-1]), host, raw, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / q2 if q2 else None}


def git_commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    except OSError:
        return ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record")
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    host = {}
    results = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out, host_line, raw, wall = run_once(bench, w, seed, args.trace)
            runs.append({"seed": seed, "wall_s": round(wall, 1),
                         "correct": out["correct"], "attempted": out["attempted"],
                         "failed": out["failed"],
                         "values": {k: v["value"] for k, v in out["metrics"].items()},
                         "raw": raw})
            host["benchmark"] = host_line
            print("%-17s seed %3d  %5.1fs  attempted %6d failed %4d  %s" % (
                w, seed, wall, out["attempted"], out["failed"],
                "  ".join("%s=%.4g" % (k, v["value"])
                          for k, v in out["metrics"].items()
                          if args.trace == 0)), flush=True)
        summary = {}
        for m in metrics:
            vals = [r["values"][m["name"]] for r in runs]
            s = summarise(vals) if len(vals) >= 2 else {"median": vals[0]}
            if s.get("spread") is not None:
                bound = bounds.get(m["name"])
                flag = ""
                if bound is not None:
                    flag = "ok" if s["spread"] <= bound / 3 else (
                        "WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
                raw_vals = [r["raw"][m["name"]] for r in runs if m["name"] in r["raw"]]
                if len(raw_vals) == len(runs):
                    s["raw"] = summarise(raw_vals)
                    flag += "  (raw spread %.4f)" % s["raw"]["spread"]
                print("  %-28s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  %s" % (
                    m["name"], s["median"], s["q1"], s["q3"], s["spread"], flag))
            summary[m["name"]] = dict(s, unit=m["unit"])
        why = next(x["why"] for x in bench["workloads"] if x["name"] == w)
        results[w] = {"why": why, "summary": summary, "runs": runs}
    if args.record:
        seeds = seed_list(args.seeds)
        host.update({
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "commit": git_commit(),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "workload_seed": seeds[0],
            "second_seed": seeds[1] if len(seeds) > 1 else None,
        })
        record = {}
        if os.path.exists(args.record):
            with open(args.record) as f:
                record = json.load(f)
        section = "end_to_end" if args.trace == 0 else "per_layer"
        record[section] = {"host": host, "workloads": results}
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
