# Targets mirror the CI jobs in .github/workflows/ci.yml so local runs and
# CI stay in lockstep.

# The one authoritative staticcheck pin. CI installs exactly this via
# `make staticcheck-version`; the workflow must not carry its own copy.
STATICCHECK_VERSION := 2025.1

.PHONY: all build cross test race bench bench-all bench-check bins lint oramlint lint-report staticcheck-version fuzz-smoke fmt

all: build lint test

build:
	go build ./...

# A platform without mmap gets internal/mem's stub (OpenFile fails there),
# and one without internal/crypt's AES-NI kernel gets its per-block
# fallback; everything must still compile. windows/amd64 assembles the
# kernel; linux/arm64 builds and vets the fallback.
cross:
	GOOS=windows GOARCH=amd64 go build ./...
	GOOS=linux GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/crypt

test:
	go test ./...

# Race coverage is derived from `go list` (see scripts/race_pkgs.sh): every
# package whose source or tests import a concurrency-bearing stdlib package
# is in, so a new concurrent package cannot silently drop out the way the
# old hand-maintained list allowed. The fault tests of the in-flight window
# (a fault lands while several accesses wait for memory) race a receiver
# goroutine against a teardown, so they run twenty times over.
race:
	go test -race $$(./scripts/race_pkgs.sh)
	go test -race -count=20 -run 'WindowFault' ./internal/mem ./internal/backend ./internal/store

bench:
	go test -run=NONE -bench=. -benchtime=1x .

# Every benchmark in every package, one iteration each (the CI smoke pass).
bench-all:
	go test -run=NONE -bench=. -benchtime=1x ./...

# The repo benchmark (BENCHMARK.json) lives in bench/, a module of its own
# that `go build ./...` and `go test ./...` never see, yet it pins exported
# names across mem, backend, bhoram, core, frame, store and client. Vet and
# test it so a refactor cannot break the benchmark silently (the CI
# bench-check job).
bench-check:
	go vet -C bench ./...
	go test -C bench ./...

# Link every cmd/ and examples/ binary, then run the client walkthrough,
# which serves itself on loopback (the CI bins-and-bench job).
bins:
	@mkdir -p bin
	@for d in ./cmd/* ./examples/*; do \
		echo "building $$d"; \
		go build -o "bin/$$(basename $$d)" "$$d" || exit 1; \
	done
	./bin/batchclient

# The full static gate: stock vet, the repo's own analyzer suite, gofmt with
# simplification, and staticcheck. staticcheck is skipped with a warning
# when not installed locally, but is mandatory under CI — the workflow
# installs the pinned version first.
lint: oramlint lint-report
	go vet ./...
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt -s:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck is required in CI but not installed (want $(STATICCHECK_VERSION))"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi

# The custom analyzer suite (internal/lint): security and hot-path
# invariants as findings. Suppressions need //oramlint:allow with a reason.
oramlint:
	@mkdir -p bin
	go build -o bin/oramlint ./cmd/oramlint
	./bin/oramlint ./...

# LINT_report.json (per-analyzer finding/allow counts) plus the
# suppression ratchet: total //oramlint:allow directives must equal the
# committed LINT_baseline.json.
lint-report:
	./scripts/lint_report.sh LINT_report.json

# CI reads the staticcheck pin from here so it lives in exactly one place.
staticcheck-version:
	@echo $(STATICCHECK_VERSION)

# Short coverage-guided runs of every fuzz target (the CI fuzz-smoke job):
# the codecs, seeded from the committed corpora under testdata/fuzz/, the
# bucket keystream against the stdlib's AES-CTR, and the stash against a
# plain-map model.
fuzz-smoke:
	go test ./internal/frame -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=30s
	go test ./internal/frame -run='^$$' -fuzz='^FuzzDecodeResponse$$' -fuzztime=30s
	go test ./internal/bucketwire -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=30s
	go test ./internal/bucketwire -run='^$$' -fuzz='^FuzzDecodeResponse$$' -fuzztime=30s
	go test ./internal/crypt -run='^$$' -fuzz='^FuzzPadMatchesStdlibCTR$$' -fuzztime=30s
	go test ./internal/stash -run='^$$' -fuzz='^FuzzStashMatchesModel$$' -fuzztime=30s

fmt:
	gofmt -s -w .
