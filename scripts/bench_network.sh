#!/usr/bin/env bash
# Build-and-smoke for the network serving path, emitting BENCH_network.json.
#
# Starts one oramstore server speaking BOTH wire protocols (HTTP plus
# -listen-binary frames), then drives the SAME zipf workload through each
# transport and batch size:
#
#   json1:    JSON POST /batch, batch size 1     (load -transport json)
#   json16:   JSON POST /batch, batch size 16
#   binary1:  binary streaming frames, batch 1   (load -transport binary)
#   binary16: binary streaming frames, batch 16
#
# — then scrapes /metrics and fails on any non-2xx response, zero completed
# ops, or a binary16/json16 ratio below BENCH_MIN_BINARY_SPEEDUP (default
# 2.0: the binary transport must decisively beat JSON at the same batch
# size, per-PR).
#
# The worker count defaults to 128: enough offered concurrency that several
# batches are in flight at once, which is the regime the pipelined binary
# transport exists for (at a handful of in-flight batches the two transports
# are closer and the comparison measures mostly idle time).
#
# Usage: scripts/bench_network.sh [oramstore-binary] [out.json]
# Env:   BENCH_DURATION (default 3s), BENCH_WORKERS (128),
#        BENCH_MIN_BINARY_SPEEDUP (2.0),
#        ORAMSTORE_ADDR (127.0.0.1:18080), ORAMSTORE_BIN_ADDR (127.0.0.1:18081)
set -euo pipefail

BIN=${1:-}
OUT=${2:-BENCH_network.json}
ADDR=${ORAMSTORE_ADDR:-127.0.0.1:18080}
BADDR=${ORAMSTORE_BIN_ADDR:-127.0.0.1:18081}
DURATION=${BENCH_DURATION:-3s}
WORKERS=${BENCH_WORKERS:-128}
MIN_BINARY_SPEEDUP=${BENCH_MIN_BINARY_SPEEDUP:-2.0}

if [ -z "$BIN" ]; then
  BIN=$(mktemp -d)/oramstore
  go build -o "$BIN" ./cmd/oramstore
fi

"$BIN" -addr "$ADDR" -listen-binary "$BADDR" -shards 8 -blocks 16 -lightweight &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true; wait "$SRV" 2>/dev/null || true' EXIT

up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.2
done
[ "$up" = 1 ] || { echo "server never became healthy on $ADDR" >&2; exit 1; }

run() { # run MODE EXTRA-FLAGS...
  local label=$1; shift
  echo "== $label ==" >&2
  "$BIN" load -dist zipf -workers "$WORKERS" -duration "$DURATION" -json "$@"
}

json1=$(run "json, batch 1"    -transport json   -addr "http://$ADDR" -batch 1)
json16=$(run "json, batch 16"  -transport json   -addr "http://$ADDR" -batch 16)
binary1=$(run "binary, batch 1"  -transport binary -addr "$BADDR" -batch 1)
binary16=$(run "binary, batch 16" -transport binary -addr "$BADDR" -batch 16)

# field NAME JSON -> numeric value of "NAME":<v>
field() {
  printf '%s\n' "$2" | sed -n "s/.*\"$1\":\([0-9.eE+-]*\).*/\1/p"
}

for mode in json1 json16 binary1 binary16; do
  json=$(eval "printf '%s' \"\$$mode\"")
  printf '%s\n' "$json"
  ops=$(field ops "$json"); fails=$(field failures "$json")
  completed=$(awk -v o="$ops" -v f="$fails" 'BEGIN { print o - f }')
  if [ "${completed%.*}" -le 0 ]; then
    echo "FAIL: $mode mode completed $completed ops (ops=$ops failures=$fails)" >&2
    exit 1
  fi
  if [ "${fails%.*}" -ne 0 ]; then
    echo "FAIL: $mode mode had $fails failed ops" >&2
    exit 1
  fi
done

# /metrics must answer 2xx and carry the core series, with traffic counted
# on both transports.
metrics=$(curl -fsS "http://$ADDR/metrics")
printf '%s\n' "$metrics" | grep -q '^oramstore_accesses_total [1-9]' ||
  { echo "FAIL: /metrics missing a non-zero oramstore_accesses_total" >&2; exit 1; }
printf '%s\n' "$metrics" | grep -q '^oramstore_shard_coalesced_reads_total' ||
  { echo "FAIL: /metrics missing coalesced-reads series" >&2; exit 1; }
printf '%s\n' "$metrics" | grep -q '^oramstore_transport_batches_total{transport="binary"} [1-9]' ||
  { echo "FAIL: /metrics missing non-zero binary transport batches" >&2; exit 1; }
printf '%s\n' "$metrics" | grep -q '^oramstore_transport_batches_total{transport="http"} [1-9]' ||
  { echo "FAIL: /metrics missing non-zero http transport batches" >&2; exit 1; }
coalesced=$(printf '%s\n' "$metrics" |
  awk '/^oramstore_shard_coalesced_reads_total/ { sum += $2 } END { print sum+0 }')

ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }
binary_speedup=$(ratio "$(field ops_per_sec "$binary16")" "$(field ops_per_sec "$json16")")
binary_speedup1=$(ratio "$(field ops_per_sec "$binary1")" "$(field ops_per_sec "$json1")")

printf '{\n  "workload": "zipf s=1.2, %s workers, %s, 8 shards, lightweight",\n  "json_batch1": %s,\n  "json_batch16": %s,\n  "binary_batch1": %s,\n  "binary_batch16": %s,\n  "binary_speedup_batch1": %s,\n  "binary_speedup_batch16": %s,\n  "server_coalesced_reads": %s\n}\n' \
  "$WORKERS" "$DURATION" "$json1" "$json16" "$binary1" "$binary16" \
  "$binary_speedup1" "$binary_speedup" "$coalesced" > "$OUT"
cat "$OUT"

awk -v sp="$binary_speedup" -v min="$MIN_BINARY_SPEEDUP" 'BEGIN { exit !(sp >= min) }' ||
  { echo "FAIL: binary transport is ${binary_speedup}x json at batch 16, below required ${MIN_BINARY_SPEEDUP}x" >&2; exit 1; }
echo "OK: binary is ${binary_speedup}x json at batch 16 (${binary_speedup1}x at batch 1; ${coalesced} reads coalesced)"
