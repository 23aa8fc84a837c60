#!/usr/bin/env bash
# CI gate: every build adds -Werror to the project's -Wall -Wextra, so
# a warning fails it. Stages: tier-1 suite in a plain build, then the
# same suite under ASan+UBSan (its soak tests at CLUE_ASAN_SOAK_UPDATES
# updates, default 100000), then the concurrency tests (SPSC ring,
# doorbell parking, epoch domain, runtime stress, rebalancer,
# group-commit batches, the chip set, the cross-host commit transaction,
# observability counters/histograms) under TSan, then a
# metrics-exporter smoke run
# (bench_runtime_throughput + bench_update_burst, whose JSON exports
# must parse, whose multi-worker runs must apply DRed fills, and whose
# batched throughput must beat sequential), then
# the churn-soak: the rebalancer soak test rerun at CLUE_SOAK_UPDATES
# updates (default 500000) of sustained hot-/8 churn, plus two
# differential tests at CLUE_SOAK_UPDATES / 50 steps (the flat image's
# in-place patches against full builds, and every ONRTC diff against the
# diff of the full recompressions before and after it) and the flat
# image's concurrent-reader test at CLUE_SOAK_UPDATES / 50 patches
# (every answer a reader sees is the pre- or post-patch answer of a
# patch in its window), and the
# burst-soak: the async group-commit ingress hammered under TSan at
# CLUE_SOAK_UPDATES bursty updates with concurrent lookups, then the
# figures guard: bench_ttf's modeled TTF2/TTF3 columns of Figs. 10-14
# (fig10_14_ttf.csv) must equal ci/golden/fig10_14_modeled.csv byte for
# byte (TTF1 is measured wall time and is not compared), and
# bench_tcam_update's whole stdout must equal ci/golden/tcam_update.txt,
# and the router_linecard, burst_survivor and `fib_tool gen 20000 7 |
# fib_tool simulate 4 200000` examples' stdout must equal their goldens
# in ci/golden/ (each a seeded, clock-stepped engine run), then the
# bench-check: perfbench/check.py, which builds the benchmark of record
# (perfbench/ compiles src/ through its own CMake project) and runs each
# BENCHMARK.json workload on small inputs. Any data race, leak, UB,
# build break or test failure fails the script.
#
#   $ ci/check.sh            # all eight stages
#   $ ci/check.sh plain      # just the plain tier-1 run
#   $ ci/check.sh asan       # just ASan+UBSan
#   $ ci/check.sh tsan       # just TSan concurrency stage
#   $ ci/check.sh smoke      # just the metrics-exporter smoke run
#   $ ci/check.sh soak       # just the churn-soak
#   $ ci/check.sh burst-soak # just the group-commit burst soak (TSan)
#   $ ci/check.sh figures    # just the Figs. 10-14, §IV-B and examples guard
#   $ ci/check.sh bench-check # just the perfbench build + self-check
#   $ CLUE_SOAK_UPDATES=100000 ci/check.sh soak   # bounded soak
#   $ CLUE_ASAN_SOAK_UPDATES=20000 ci/check.sh asan  # shorter ASan soak
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
STAGE="${1:-all}"

configure_and_build() {
  local dir="$1" sanitize="$2"
  cmake -B "$dir" -S . -DCLUE_SANITIZE="$sanitize" \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_plain() {
  echo "=== stage: plain tier-1 ==="
  configure_and_build build ""
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_asan() {
  echo "=== stage: ASan+UBSan tier-1 ==="
  configure_and_build build-asan address
  # The soak tests run here at soak scale, so migration-sized flat-image
  # patches (level-2 id reuse, chunks dropping back to null, blocks parked
  # after their grace period) get leak and use-after-free checking too.
  CLUE_SOAK_UPDATES="${CLUE_ASAN_SOAK_UPDATES:-100000}" \
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tsan() {
  echo "=== stage: TSan concurrency ==="
  configure_and_build build-tsan thread
  # The soak test runs here too, shortened: TSan is ~10x, so a bounded
  # update count still soaks the migration protocol for races.
  CLUE_SOAK_UPDATES="${CLUE_TSAN_SOAK_UPDATES:-5000}" \
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'SpscRingTest|DoorbellTest|EpochTest|LookupRuntimeTest|FlatTableTest|CounterBlockTest|LatencyHistogramTest|TtfTraceRingTest|RebalancePlannerTest|RebalanceTest|RebalanceSoakTest|CoalesceOps|BatchUpdate|ChipSetTest|CommitTxn|BurstSoakTest'
}

run_smoke() {
  echo "=== stage: metrics-exporter smoke ==="
  configure_and_build build ""
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  CLUE_METRICS_DIR="$out" CLUE_CSV_DIR="$out" CLUE_BENCH_LOOKUPS=20000 \
    ./build/bench/bench_runtime_throughput >/dev/null
  [ -s "$out/runtime_throughput.json" ] || {
    echo "smoke: JSON export missing" >&2
    exit 1
  }
  [ -s "$out/BENCH_runtime.json" ] || {
    echo "smoke: BENCH_runtime.json export missing" >&2
    exit 1
  }
  [ -s "$out/runtime_throughput.csv" ] || {
    echo "smoke: CSV export missing" >&2
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$out/runtime_throughput.json" >/dev/null || {
      echo "smoke: exported JSON does not parse" >&2
      exit 1
    }
    python3 - "$out/BENCH_runtime.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["histograms"], "no histograms exported"
assert any(".service_ns" in k for k in doc["histograms"]), "no worker histograms"
assert "ttf_traces" in doc, "no TTF trace section"
gauges = doc["gauges"]
for key in ("flat_ab.speedup", "flat_ab.flat_mlookups_per_s",
            "flat_ab.trie_mlookups_per_s"):
    assert key in gauges, f"missing {key} gauge"
assert gauges["flat_ab.speedup"] > 0, "flat A/B did not run"
# Every multi-worker run (tags "w<N>.<churn>") must have landed DRed
# fills: fill batching that silently drops them all fails here. The
# doorkeeper's declines must be exported beside them.
counters = doc["counters"]
runs = [k[:-len(".fills_sent")] for k in counters if k.endswith(".fills_sent")]
multi = [t for t in runs if int(t.split(".")[0][1:]) > 1]
assert multi, "no multi-worker run exported fill counters"
for tag in multi:
    assert counters[tag + ".fills_applied"] > 0, f"{tag}: no DRed fill applied"
    assert tag + ".fills_declined" in counters, f"{tag}: fills_declined missing"
# Every run must carry the runtime's start-up gauges: the control tries'
# bytes and the CompressedFib build time.
for tag in runs:
    for name in ("onrtc.trie_bytes", "runtime.fib_build_ns"):
        key = f"{tag}.{name}"
        assert key in gauges, f"missing {key} gauge"
        assert gauges[key] > 0, f"{key} is not positive"
EOF
  else
    echo "smoke: python3 not found, skipping JSON parse check"
  fi
  # Group-commit smoke: a small burst replay must export BENCH_update.json,
  # show the batched path at least matching the sequential one, and show
  # the sequential phase recycling flat-image blocks.
  CLUE_METRICS_DIR="$out" CLUE_BENCH_UPDATES=1536 \
    ./build/bench/bench_update_burst >/dev/null
  [ -s "$out/BENCH_update.json" ] || {
    echo "smoke: BENCH_update.json export missing" >&2
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_update.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
gauges = doc["sections"]["update_burst"]["gauges"]
seq = gauges["update_burst.sequential_updates_per_sec"]
bat = gauges["update_burst.batched_updates_per_sec"]
assert seq > 0, "sequential phase did not run"
assert bat >= seq, f"batched {bat:.0f}/s slower than sequential {seq:.0f}/s"
# Steady-state commits must reuse replaced flat blocks: a silently
# bypassed block pool fails here.
counters = doc["sections"]["update_burst"]["counters"]
recycled = counters["update_burst.sequential_flat_blocks_recycled"]
assert recycled > 0, "sequential phase recycled no flat-image block"
EOF
  fi
  echo "smoke: exporter output OK"
}

run_soak() {
  echo "=== stage: churn-soak (${CLUE_SOAK_UPDATES:-500000} updates) ==="
  configure_and_build build ""
  CLUE_SOAK_UPDATES="${CLUE_SOAK_UPDATES:-500000}" \
    ctest --test-dir build --output-on-failure \
      -R 'RebalanceSoakTest|FlatTableTest.DiffStreamsMatchFullBuildsOfTheTrie|FlatTableTest.ConcurrentReadersSeePreOrPostAnswerPerAddress|CompressedFib.EveryDiffEqualsTheFullRecompressionDiff'
}

run_burst_soak() {
  echo "=== stage: burst-soak (${CLUE_SOAK_UPDATES:-100000} updates, TSan) ==="
  configure_and_build build-tsan thread
  CLUE_SOAK_UPDATES="${CLUE_SOAK_UPDATES:-100000}" \
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure \
      -R 'BurstSoakTest'
}

run_figures() {
  echo "=== stage: figures (modeled TTF of bench_ttf, bench_tcam_update, examples vs golden) ==="
  configure_and_build build ""
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  CLUE_CSV_DIR="$out" ./build/bench/bench_ttf >/dev/null
  # Keep the bucket column and every ttf2_*/ttf3_* column, by header name.
  awk -F, 'NR == 1 {
             for (i = 1; i <= NF; i++)
               if ($i == "bucket" || $i ~ /^ttf[23]_/) keep[++n] = i
           }
           {
             line = $(keep[1])
             for (j = 2; j <= n; j++) line = line "," $(keep[j])
             print line
           }' "$out/fig10_14_ttf.csv" >"$out/modeled.csv"
  if ! diff -u ci/golden/fig10_14_modeled.csv "$out/modeled.csv"; then
    echo "figures: modeled TTF2/TTF3 of Figs. 10-14 moved off the golden" >&2
    exit 1
  fi
  echo "figures: modeled TTF2/TTF3 match the golden"
  # bench_tcam_update prints only modeled op counts (no wall time), so its
  # whole stdout is deterministic: the §IV-B per-layout costs and the
  # 4-chip systems' critical-path TTF2.
  ./build/bench/bench_tcam_update >"$out/tcam_update.txt"
  if ! diff -u ci/golden/tcam_update.txt "$out/tcam_update.txt"; then
    echo "figures: bench_tcam_update output moved off the golden" >&2
    exit 1
  fi
  echo "figures: bench_tcam_update matches the golden"
  # The examples' engine runs are seeded and clock-stepped, so their whole
  # stdout is deterministic too.
  ./build/examples/router_linecard >"$out/router_linecard.txt"
  ./build/examples/burst_survivor >"$out/burst_survivor.txt"
  ./build/examples/fib_tool gen 20000 7 |
    ./build/examples/fib_tool simulate 4 200000 >"$out/fib_tool_simulate.txt"
  local example
  for example in router_linecard burst_survivor fib_tool_simulate; do
    if ! diff -u "ci/golden/$example.txt" "$out/$example.txt"; then
      echo "figures: $example output moved off the golden" >&2
      exit 1
    fi
  done
  echo "figures: example outputs match the goldens"
}

run_bench_check() {
  echo "=== stage: bench-check (perfbench build + self-check) ==="
  python3 perfbench/check.py
}

case "$STAGE" in
  plain) run_plain ;;
  asan) run_asan ;;
  tsan) run_tsan ;;
  smoke) run_smoke ;;
  soak) run_soak ;;
  burst-soak) run_burst_soak ;;
  figures) run_figures ;;
  bench-check) run_bench_check ;;
  all)
    run_plain
    run_asan
    run_tsan
    run_smoke
    run_soak
    run_burst_soak
    run_figures
    run_bench_check
    ;;
  *)
    echo "usage: $0 [plain|asan|tsan|smoke|soak|burst-soak|figures|bench-check|all]" >&2
    exit 2
    ;;
esac

echo "=== all requested stages passed ==="
