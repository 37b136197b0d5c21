#!/usr/bin/env bash
# Hot-path benchmark pass, emitting BENCH_hotpath.json.
#
# Runs the steady-state access benchmarks (BenchmarkAccessAllocs{Map,File})
# and the sharded-store throughput suite (BenchmarkStoreParallel*) with
# -benchmem, plus the two kernels one backend access spends its time in —
# bucket seal/open (internal/crypt) and path eviction (internal/stash) —
# then serializes name/ns_per_op/b_per_op/allocs_per_op so the allocation
# and latency trajectory of the hottest loop in the system is tracked as a
# CI artifact from PR to PR.
#
# Usage: scripts/bench_hotpath.sh [out.json]
# Env:   BENCH_TIME (default 200x; the kernels, ~100x shorter than an
#        access, run for go test's default second each instead)
set -euo pipefail

OUT=${1:-BENCH_hotpath.json}
BENCH_TIME=${BENCH_TIME:-200x}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run=NONE -bench='BenchmarkAccessAllocs|BenchmarkStoreParallel' \
  -benchmem -benchtime="$BENCH_TIME" . | tee "$tmp"
go test -run=NONE -bench='BenchmarkSealTo|BenchmarkOpenTo|BenchmarkEvictForPath' \
  -benchmem ./internal/crypt ./internal/stash | tee -a "$tmp"

# Benchmark lines interleave standard metrics (ns/op, B/op, allocs/op) with
# custom ones (%coalesced), so pick fields by their unit token instead of
# position.
awk 'BEGIN { print "[" }
     /^Benchmark/ {
       ns = bop = aop = "null"
       for (i = 2; i <= NF; i++) {
         if ($i == "ns/op")     ns  = $(i-1)
         if ($i == "B/op")      bop = $(i-1)
         if ($i == "allocs/op") aop = $(i-1)
       }
       if (n++) printf ",\n"
       printf "  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s}", \
              $1, $2, ns, bop, aop
     }
     END { print "\n]" }' "$tmp" > "$OUT"
cat "$OUT"

# Sanity gate: the access benchmarks must be present and allocation-lean.
# The steady-state budget is ~2 allocs/op (the public API result copy);
# 8 leaves slack for noisy CI boxes while still catching a real regression
# (the pre-refactor loop allocated ~145/op).
awk -F'"' '/AccessAllocs/ { found++ }
     END { exit !(found >= 2) }' "$OUT" ||
  { echo "FAIL: AccessAllocs benchmarks missing from $OUT" >&2; exit 1; }
grep -o '"name": "BenchmarkAccessAllocs[^}]*' "$OUT" | while read -r line; do
  allocs=$(printf '%s' "$line" | sed -n 's/.*"allocs_per_op": \([0-9]*\).*/\1/p')
  name=$(printf '%s' "$line" | sed -n 's/"name": "\([^"]*\)".*/\1/p')
  if [ -z "$allocs" ] || [ "$allocs" -gt 8 ]; then
    echo "FAIL: $name allocates ${allocs:-?}/op, budget 8" >&2
    exit 1
  fi
done
echo "OK: hot-path benchmarks recorded in $OUT"
