#!/usr/bin/env bash
# CI gate: build and run the full test suite under both an optimized
# Release configuration (-O3 -DNDEBUG, warnings as errors) and an
# ASan/UBSan debug configuration. Uses the presets in CMakePresets.json.
#
# Every ctest invocation carries a hard per-test timeout so a hung test
# (e.g. a deadlocked rank in the message-passing substrate) fails the
# gate instead of wedging CI. The chaos suite (ctest label `chaos`:
# mining under an intentionally faulty transport) additionally gets a
# dedicated pass under the sanitizers, where the fault-recovery paths
# are most likely to expose lifetime or data-race bugs, and so do the
# counting-kernel differentials (label `threaded`: the candidate trie and
# the counting team against the hash tree and brute force), where a read
# past a trie level or a scratch array aborts the test.
#
# The tsan job builds under ThreadSanitizer and runs the suites that
# exercise real threads: the intra-rank counting team differentials
# (label `threaded`), the chaos matrix (rank threads + counting workers
# over a faulty transport), the mining-server suite (label `serve`:
# concurrent tenants over a shared rank pool and dataset cache), and the
# static load-balancing suite (label `balance`: IDD and HD at P = 8 with
# counting teams, whose per-pass partition digests must agree across
# ranks and with the fault-free run).
#
#   scripts/ci.sh [release|sanitize|tsan]   (default: all)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# Upper bound for any single test; generous because the sanitize preset
# runs the mining matrices several times slower than release.
test_timeout=300

run_preset() {
  local preset="$1"
  echo "=== preset: $preset ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset"
  ctest --preset "$preset" --timeout "$test_timeout"
}

# The serve label includes the cancellation chaos matrix
# (serve_cancel_test): the server driven under stall and drop fault plans
# with deadlines, asserting every response is typed and every rank lease
# comes home. It runs under both sanitizers — ASan for the unwind paths
# (a cancelled run tears down mid-pass), TSan for the token/watchdog
# concurrency.
run_chaos_sanitized() {
  echo "=== chaos + serve + balance + threaded suites under ASan/UBSan ==="
  ctest --preset sanitize -L 'chaos|serve|balance|threaded' \
    --timeout "$test_timeout"
}

# The fuzz drivers (label `fuzz`: mutants of tests/tdb/corpus fed to
# ReadText and ReadBinary, mutants of every encoder's frames fed to the
# FrameReader and the frame decoders, and seeded argv mutants fed to
# FlagParser) get their own pass under ASan/UBSan, where a read past a
# buffer is a failure rather than luck.
run_fuzz_sanitized() {
  echo "=== reader, frame and flag fuzz drivers under ASan/UBSan ==="
  ctest --preset sanitize -L fuzz --timeout "$test_timeout"
}

run_tsan() {
  echo "=== threaded + chaos + serve + balance suites under TSan ==="
  cmake --preset tsan
  cmake --build --preset tsan
  ctest --preset tsan -L 'threaded|chaos|serve|balance' --timeout "$test_timeout"
}

# Smoke pass of the transport benchmark: exercises the zero-copy vs
# copy-per-hop comparison end to end (including the cross-formulation
# mining-equivalence check, which exits non-zero on any mismatch), then
# checks that BENCH_comm.json records the host it was timed on.
run_bench_comm_smoke() {
  echo "=== bench_comm smoke ==="
  (cd build-release/bench && ./bench_comm --smoke)
  python3 - build-release/bench/BENCH_comm.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["smoke"] is True, doc
assert doc["host_cpu_cores"] > 0 and doc["build_type"], doc
print(f"BENCH_comm.json: {doc['build_type']} build, "
      f"{doc['host_cpu_cores']} host cores: ok")
PYEOF
}

# Smoke pass of the serving benchmark: drives the multi-tenant mining
# server with the mixed-algorithm request mix plus the open-loop overload
# burst (bench_serve exits non-zero if any served result diverges from a
# solo run), then checks the emitted BENCH_serve.json shape.
run_bench_serve_smoke() {
  echo "=== bench_serve smoke ==="
  (cd build-release/bench && ./bench_serve --smoke)
  python3 - build-release/bench/BENCH_serve.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "serve", doc
assert doc["host_cpu_cores"] > 0 and doc["build_type"], doc
assert doc["pool_ranks"] > 0 and doc["workers"] > 0
sections = doc["sections"]
assert sections, "no sections"
for s in sections:
    assert s["requests"] > 0 and s["throughput_rps"] > 0, s
    assert 0 < s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"], s
over = doc["overload"]
assert over["submitted"] == over["admitted"] + over["queue_full"] + \
    over["tenant_in_flight"], over
assert over["queue_full"] > 0, "overload burst never filled the queue"
dl = doc["deadline_mix"]
assert dl["tight_requests"] > 0 and 0 < dl["tight_fraction"] <= 1, dl
assert 0 <= dl["shed_rate"] <= 1, dl
assert dl["survivors"] > 0, "deadline mix starved the well-behaved load"
assert 0 < dl["survivor_p95_ms"] <= dl["survivor_p99_ms"], dl
rc = doc["result_cache"]
assert rc["mined"] > 0 and rc["hits"] > 0, rc
assert rc["hot_leases"] == 0, "result-cache hits leased ranks"
assert rc["resident_bytes"] > 0, rc
assert 0 < rc["hot_p50_ms"] <= rc["cold_p50_ms"], \
    "cache hits were not faster than mining"
wf = doc["weighted_fairness"]
assert wf["heavy_weight"] == 3.0 and wf["light_weight"] == 1.0, wf
assert wf["heavy_in_window"] + wf["light_in_window"] == wf["window"], wf
assert wf["ratio"] >= 2.0, \
    f"3:1-weighted tenant got only {wf['ratio']}x the share"
print(f"BENCH_serve.json: {len(sections)} sections, "
      f"{over['queue_full']} queue-full rejections, "
      f"deadline shed rate {dl['shed_rate']:.2f}, "
      f"cache speedup {rc['speedup']:.0f}x, "
      f"fairness ratio {wf['ratio']:.1f}: ok")
PYEOF
}

# Loopback smoke of the networked front-end (DESIGN.md §15): pam_serve in
# --listen mode on an ephemeral port, driven by pam_client over TCP with
# every algorithm in the mix plus a stats poll, then a remote shutdown.
# Checks both exit codes: the client's (all responses ok) and the
# daemon's (clean drain on the shutdown frame).
run_serve_net_smoke() {
  echo "=== pam_serve --listen / pam_client loopback smoke ==="
  local tools="build-release/tools"
  local scratch="build-release/serve_net_smoke"
  mkdir -p "$scratch"
  "$tools/pam_gen" --transactions 800 --items 100 --avg-len 8 \
    --pattern-len 3 --patterns 40 --seed 7 --output "$scratch/smoke.bin"
  cat > "$scratch/requests.txt" <<'EOF'
mine id=r1 tenant=acme dataset=smoke algorithm=serial minsup=2
mine id=r2 tenant=acme dataset=smoke algorithm=cd ranks=4 minsup=2
mine id=r3 tenant=beta dataset=smoke algorithm=dd ranks=3 minsup=2
mine id=r4 tenant=beta dataset=smoke algorithm=idd ranks=4 minsup=2
mine id=r5 tenant=gamma dataset=smoke algorithm=hd ranks=4 minsup=2
mine id=r6 tenant=gamma dataset=smoke algorithm=hpa ranks=3 minsup=2 rules
stats
shutdown
EOF
  rm -f "$scratch/port"
  "$tools/pam_serve" --datasets "smoke=$scratch/smoke.bin" --listen \
    --port-file "$scratch/port" --allow-shutdown --result-cache &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$scratch/port" ] && break
    sleep 0.1
  done
  [ -s "$scratch/port" ] || { echo "server never wrote its port"; exit 1; }
  "$tools/pam_client" --port-file "$scratch/port" \
    --script "$scratch/requests.txt"
  wait "$server_pid"
  echo "loopback smoke: client and daemon both exited clean"
}

# Smoke pass of the counting-kernel benchmark: the classic and flat
# kernels on the tuned tree, the flat kernel on the default shape, the
# trie, and the counting-team sweeps, on a 10K-transaction workload
# (bench_hashtree_kernel exits non-zero on any count or stats mismatch),
# then checks that every pass row of BENCH_kernel.json records exact
# counts and stats, and that the k = 2 row sweeps the triangle's team.
run_bench_kernel_smoke() {
  echo "=== bench_hashtree_kernel smoke ==="
  (cd build-release/bench && ./bench_hashtree_kernel --smoke)
  python3 - build-release/bench/BENCH_kernel.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["smoke"] is True and doc["host_cpu_cores"] > 0, doc
passes = doc["passes"]
assert passes, "no passes"
for row in passes:
    assert row["counts_identical"] is True, f"k={row['k']}: counts differ"
    assert row["stats_identical"] is True, f"k={row['k']}: stats differ"
    for key in ("classic_seconds", "flat_seconds", "default_seconds",
                "trie_seconds"):
        assert row[key] > 0, (row["k"], key)
    assert row["team"], f"k={row['k']}: no team sweep"
    assert row["trie_team"], f"k={row['k']}: no trie team sweep"
pass2 = [row for row in passes if row["k"] == 2]
assert pass2 and pass2[0].get("triangle_team"), "k=2: no triangle team sweep"
print(f"BENCH_kernel.json: {len(passes)} passes, counts and stats exact: ok")
PYEOF
}

# Smoke pass of the load-balancing benchmark: contiguous vs bin-packed IDD
# on a tiny skewed-prefix workload (bench_balance exits non-zero if either
# variant diverges from the serial reference), then checks the emitted
# BENCH_balance.json: both static variants exact, and bin packing below
# the contiguous ablation's work imbalance.
run_bench_balance_smoke() {
  echo "=== bench_balance smoke ==="
  (cd build-release/bench && ./bench_balance --smoke)
  python3 - build-release/bench/BENCH_balance.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "balance", doc
assert doc["smoke"] is True and doc["ranks"] > 0, doc
assert doc["host_cpu_cores"] > 0 and doc["build_type"], doc
assert doc["all_exact"] is True, "a variant diverged from serial"
variants = {v["name"]: v for v in doc["variants"]}
assert len(doc["variants"]) == 2, doc["variants"]
assert set(variants) == {"static-contiguous", "static-binpack"}, variants
for v in variants.values():
    assert v["exact"] is True and v["total_imbalance"] >= 1.0, v
    assert v["per_pass"], f"{v['name']}: no tree passes"
contiguous = variants["static-contiguous"]["total_imbalance"]
binpack = variants["static-binpack"]["total_imbalance"]
assert binpack < contiguous, (binpack, contiguous)
print(f"BENCH_balance.json: imbalance {contiguous:.3f} contiguous, "
      f"{binpack:.3f} bin-packed: ok")
PYEOF
}

# One traced P=4 mining run per formulation through the MiningSession CLI
# path: pam_mine must produce a chrome://tracing document and a metrics
# document that parse as JSON and carry the expected top-level structure.
run_traced_smoke() {
  echo "=== traced mining smoke (all formulations) ==="
  local tools="build-release/tools"
  local scratch="build-release/traced_smoke"
  mkdir -p "$scratch"
  "$tools/pam_gen" --transactions 800 --items 100 --avg-len 8 \
    --pattern-len 3 --patterns 40 --seed 7 --output "$scratch/smoke.bin"
  for alg in serial cd dd ddcomm idd hd hpa; do
    echo "--- $alg ---"
    "$tools/pam_mine" --input "$scratch/smoke.bin" --minsup 2 \
      --algorithm "$alg" --ranks 4 \
      --save-itemsets "$scratch/$alg.itemsets" \
      --trace-out "$scratch/$alg.trace.json" \
      --metrics-out "$scratch/$alg.metrics.json" > /dev/null
    # Every miner must mine serial's itemsets, byte for byte.
    cmp "$scratch/serial.itemsets" "$scratch/$alg.itemsets"
    python3 - "$scratch/$alg.trace.json" "$scratch/$alg.metrics.json" \
      "$alg" <<'PYEOF'
import json, sys
trace_path, metrics_path, alg = sys.argv[1:4]
with open(trace_path) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, f"{alg}: no complete events in trace"
kinds = {e["cat"] for e in spans}
assert {"run", "pass"} <= kinds, f"{alg}: missing run/pass spans: {kinds}"
with open(metrics_path) as f:
    metrics = json.load(f)
assert metrics["algorithm"], f"{alg}: metrics missing algorithm"
assert metrics["complete"] is True, f"{alg}: metrics run did not complete"
assert metrics["passes"], f"{alg}: metrics missing passes"
# One pass span per PassMetrics row on every rank.
passes = sum(1 for e in spans if e["cat"] == "pass")
expected = len(metrics["passes"]) * metrics["ranks"]
assert passes == expected, f"{alg}: {passes} pass spans, expected {expected}"
# The pass-2 triangle is Count Distribution in every formulation: its rows
# send no data, and the ranks count pass 1's transactions between them.
def counted(p):
    return sum(r["transactions_processed"] for r in p["per_rank"])
two = [p for p in metrics["passes"] if p["per_rank"][0]["k"] == 2]
assert two, f"{alg}: no pass 2"
for p in two:
    sent = sum(r["data_bytes_sent"] for r in p["per_rank"])
    assert sent == 0, f"{alg}: pass 2 sent {sent} data bytes"
    assert counted(p) == counted(metrics["passes"][0]), \
        f"{alg}: pass 2 counted {counted(p)} transactions"
print(f"{alg}: {len(spans)} spans, {len(metrics['passes'])} passes: ok")
PYEOF
  done
}

case "${1:-all}" in
  release)
    run_preset release
    run_bench_comm_smoke
    run_bench_serve_smoke
    run_bench_kernel_smoke
    run_bench_balance_smoke
    run_traced_smoke
    run_serve_net_smoke
    ;;
  sanitize)
    run_preset sanitize
    run_chaos_sanitized
    run_fuzz_sanitized
    ;;
  tsan)
    run_tsan
    ;;
  all)
    run_preset release
    run_bench_comm_smoke
    run_bench_serve_smoke
    run_bench_kernel_smoke
    run_bench_balance_smoke
    run_traced_smoke
    run_serve_net_smoke
    run_preset sanitize
    run_chaos_sanitized
    run_fuzz_sanitized
    run_tsan
    ;;
  *)
    echo "usage: scripts/ci.sh [release|sanitize|tsan]" >&2
    exit 2
    ;;
esac
