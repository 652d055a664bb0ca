#!/usr/bin/env python3
"""Self-test of the pam end-to-end benchmark at tiny scale.

    python3 e2ebench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
e2ebench/run.py with --tiny and checks that

  * an untraced run succeeds and prints exactly the end-to-end metrics,
    each with its registered unit and a positive value;
  * a traced run succeeds, prints exactly the per-layer metrics with their
    units, and its replayed serial pipeline is at least 95% covered by
    spans (trace.coverage);
  * a run with --tamper, which corrupts one formulation's result, is caught:
    it reports correct=false with a failed operation and exits non-zero.

Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCH = json.load(f)
COVERAGE_FLOOR = 0.95


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_metrics(result, registered, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in registered}
    expect(got == want, f"{what} prints every registered metric with its unit")


def main():
    for w in (x["name"] for x in BENCH["workloads"]):
        code, res = run(w, 0)
        expect(code == 0 and res and res["correct"] and res["failed"] == 0
               and res["attempted"] >= 1, f"{w}: untraced run is correct")
        check_metrics(res, BENCH["end_to_end"], f"{w}: untraced run")
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{w}: every end-to-end metric is positive")

        code, res = run(w, 1)
        expect(code == 0 and res and res["correct"] and res["failed"] == 0,
               f"{w}: traced run is correct")
        check_metrics(res, BENCH["per_layer"], f"{w}: traced run")
        coverage = res["metrics"]["trace.coverage"]["value"]
        expect(coverage >= COVERAGE_FLOOR,
               f"{w}: spans cover {coverage:.3f} of the replayed pipeline")

        code, res = run(w, 0, "--tamper")
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1, f"{w}: an altered result is caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
