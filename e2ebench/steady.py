#!/usr/bin/env python3
"""Steadiness check for the pam end-to-end benchmark.

    python3 e2ebench/steady.py --runs 10 [--workloads deep_t15i6,scan_t10i4]
        [--seed 1] [--seconds S] [--out FILE]

Runs every workload in N fresh processes through e2ebench/run.py (run from
the repository root). Round r runs the workloads in the listed order when r
is even and in reverse when r is odd, and uses seed S + r. Every run is
untraced (--trace 0). For each workload it prints every metric's median,
first and third quartiles (statistics.quantiles, n=4) and IQR/median, and
for each run the host CPU steal over that run (host.steal_s, from
/proc/stat). With --out it writes every run and the summary as JSON,
together with host cores, build type, compiler flags, git sha and seeds.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def host_steal_seconds():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=HERE)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    steal = host_steal_seconds()
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    steal = host_steal_seconds() - steal
    lines = proc.stdout.strip().splitlines()
    header = next((l for l in lines if l.startswith("# pam_e2e ")), "")
    notes = [l for l in lines if l.startswith("#")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": wall, "host.steal_s": steal, "header": header,
            "notes": notes, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    runs = []
    for r in range(args.runs):
        seed = args.seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            rec = run_once(w, seed, args.seconds)
            runs.append(rec)
            res = rec["result"] or {}
            print(f"run {r} {w} seed {seed}: exit {rec['exit']} "
                  f"correct {res.get('correct')} failed {res.get('failed')} "
                  f"wall {rec['wall_s']:.1f}s "
                  f"host.steal_s {rec['host.steal_s']:.2f}", flush=True)
    summary = {}
    for w in workloads:
        ok = [x["result"] for x in runs if x["workload"] == w
              and x["result"] and x["exit"] == 0]
        if len(ok) < 2:
            continue
        names = list(ok[0]["metrics"])
        summary[w] = {n: spread([x["metrics"][n]["value"] for x in ok])
                      for n in names}
        summary[w]["host.steal_s"] = spread(
            [x["host.steal_s"] for x in runs if x["workload"] == w])
        print(f"\n{w}: {len(ok)} good runs")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8}")
        for n, s in summary[w].items():
            print(f"  {n:32} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['iqr_over_median']:8.3f}")
    header = next((x["header"] for x in runs if x["header"]), "")
    build = re.search(r"build=(\S+)", header)
    flags = re.search(r'flags="([^"]*)"', header)
    cxx = re.search(r"cxx=(.*?) flags=", header)
    record = {
        "host_cores": os.cpu_count(),
        "build_type": build.group(1) if build else "unknown",
        "compiler": cxx.group(1) if cxx else "unknown",
        "compiler_flags": flags.group(1).strip() if flags else "unknown",
        "git_sha": git_sha(),
        "seeds": sorted({x["seed"] for x in runs}),
        "seconds": args.seconds,
        "runs": runs,
        "summary": summary,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    bad = [x for x in runs if x["exit"] != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
