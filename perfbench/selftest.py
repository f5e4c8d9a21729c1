#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that
  - an untraced run prints exactly BENCHMARK.json's end-to-end metrics,
    with their units, and scores every verdict correct;
  - a traced run prints exactly the per-layer metrics, passes the
    replica check and writes a Chrome trace file that parses, with
    balanced begin/end events;
  - scoring against a deliberately wrong reference makes operations
    fail and the run report itself incorrect.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = "_perfbench"


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s: exit %d\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def check(cond, msg):
    if not cond:
        fail(msg)


def same_metrics(result, declared, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, "%s: metrics %s, expected %s" % (what, got, want))
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), "%s: %s not a number" % (what, k))


def check_trace_file(workload):
    path = os.path.join(ROOT, TRACE_DIR, "%s-seed3.trace.json" % workload)
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    check(events, "%s: empty trace file" % workload)
    depth = {}
    for e in events:
        check(e["ph"] in ("B", "E", "M"), "%s: bad phase %r" % (workload, e["ph"]))
        if e["ph"] == "M":
            continue
        d = depth.get(e["tid"], 0) + (1 if e["ph"] == "B" else -1)
        check(d >= 0, "%s: unbalanced end event" % workload)
        depth[e["tid"]] = d
    check(all(d == 0 for d in depth.values()), "%s: unclosed spans" % workload)
    check(any(e["name"] == "op" for e in events), "%s: no op spans" % workload)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        r = run(bench, w, 0)
        same_metrics(r, bench["end_to_end"], w + " untraced")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              "%s: tiny run not clean: %s" % (w, r))
        r = run(bench, w, 1)
        same_metrics(r, bench["per_layer"], w + " traced")
        check(r["correct"] and r["metrics"]["replica_ok"]["value"] == 1,
              "%s: replica check failed" % w)
        check(r["metrics"]["error_rate"]["value"] == 0, "%s: traced errors" % w)
        check_trace_file(w)
        r = run(bench, w, 0, "--wrong-reference")
        check(r["failed"] > 0 and not r["correct"],
              "%s: a wrong reference went unnoticed: %s" % (w, r))
        r = run(bench, w, 1, "--wrong-reference")
        check(r["metrics"]["error_rate"]["value"] > 0,
              "%s: a wrong reference left error_rate at 0" % w)
        print("ok %s" % w, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
