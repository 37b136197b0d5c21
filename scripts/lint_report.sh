#!/bin/sh
# lint_report.sh [out.json] — build oramlint, write the LINT_report.json
# artifact (per-analyzer finding and allow-directive counts), and gate
# suppressions exactly: the total number of honored //oramlint:allow
# directives must equal the committed LINT_baseline.json. New suppressions
# are a deliberate act — justify them in review and bump the baseline in
# the same change — never a drive-by; a change that removes some lowers the
# baseline with them, so a stale baseline never leaves slack for new ones.
set -eu
cd "$(dirname "$0")/.."
out="${1:-LINT_report.json}"

mkdir -p bin
go build -o bin/oramlint ./cmd/oramlint
# Exits nonzero on any unsuppressed finding; the report is written first,
# so CI can upload it from a failed run too.
./bin/oramlint -report "$out" ./...

total() { sed -n 's/.*"total_allows": *\([0-9][0-9]*\).*/\1/p' "$1"; }
have="$(total "$out")"
base="$(total LINT_baseline.json)"
if [ -z "$have" ] || [ -z "$base" ]; then
    echo "lint_report: cannot read total_allows (report: '${have}', baseline: '${base}')" >&2
    exit 1
fi
echo "lint_report: $have allow directive(s) in use (baseline $base)"
if [ "$have" -gt "$base" ]; then
    echo "lint_report: allow count grew ($base -> $have);" \
        "each new //oramlint:allow needs review — update LINT_baseline.json deliberately" >&2
    exit 1
fi
if [ "$have" -lt "$base" ]; then
    echo "lint_report: allow count shrank ($base -> $have);" \
        "lower LINT_baseline.json to $have in the same change" >&2
    exit 1
fi
