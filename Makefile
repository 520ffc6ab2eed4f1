GO ?= go

.PHONY: all build test vet race fmt-check linkcheck api-docs api-docs-check loadbench-check serve bench bench-file bench-compare bench-cores bench-quick bench-full fuzz ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any file needs gofmt (mirrors the CI Format step).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Verify relative links in the documentation resolve.
linkcheck:
	$(GO) run ./cmd/mdlinkcheck README.md CHANGES.md ROADMAP.md docs

# Regenerate docs/API.md from the route table, the policy schema and the
# engine registry (see cmd/apidocs).
api-docs:
	$(GO) run ./cmd/apidocs > docs/API.md

# Fail when docs/API.md is stale (mirrors the CI step and the in-tree
# TestAPIDocsCurrent).
api-docs-check:
	@$(GO) run ./cmd/apidocs | diff -u docs/API.md - \
		|| { echo "docs/API.md is stale: run 'make api-docs' and commit the result" >&2; exit 1; }

# loadbench/ is a module of its own that compiles against internal/core,
# internal/engine and internal/server; the root ./... never builds it, so
# this keeps an internal API change from silently breaking the harness.
loadbench-check:
	cd loadbench && $(GO) vet ./... && $(GO) test ./...

# Run the HTTP anonymization service with a preloaded census table.
serve:
	$(GO) run ./cmd/ppdp serve -preload census=5000

# Race-detector run; also exercises the parallel Mondrian recursion.
race:
	$(GO) test -race ./...

# Hot-path benchmarks with memory stats, recorded as JSON so the perf
# trajectory is tracked per PR (see the non-gating CI bench job). Each
# benchmark runs six times and benchjson records the median of every unit
# with the sample count, plus every ns/op sample and their quartiles. The
# file name carries the PR number that introduced the recording;
# bench-compare diffs the fresh numbers against the previous PR's committed
# baseline.
BENCH_OUT ?= BENCH_PR31.json
BENCH_BASELINE ?= BENCH_PR29.json
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGroupBy|BenchmarkFingerprint|BenchmarkMondrian|BenchmarkCoreAnonymizeCensus|BenchmarkRecodeGroups|BenchmarkAppendTable|BenchmarkIncognito|BenchmarkTopDown|BenchmarkDatafly|BenchmarkSamarati|BenchmarkKMember|BenchmarkAnatomy|BenchmarkLaplace|BenchmarkServeAnonymize|BenchmarkServeAnonymizeMix|BenchmarkJobThroughput|BenchmarkCacheHit|BenchmarkReadCSV|BenchmarkSnapshot|BenchmarkMmap|BenchmarkStore|BenchmarkReconcile' \
		-benchmem -count=6 ./... > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	cat bench.out
	$(GO) run ./cmd/benchjson < bench.out > $(BENCH_OUT)
	@rm -f bench.out
	@echo "wrote $(BENCH_OUT)"

# Print the recording's file name, so CI reads it from here rather than
# repeating it (`make -s bench-file`).
bench-file:
	@echo $(BENCH_OUT)

# Per-benchmark ns/op and allocs/op deltas against the previous PR's
# baseline; exits non-zero on any allocs/op rise or a >10% ns/op regression
# that the U test finds significant (CI keeps this non-gating).
bench-compare:
	$(GO) run ./cmd/benchjson compare $(BENCH_BASELINE) $(BENCH_OUT)

# GOMAXPROCS sweep over the parallel-path benchmarks (the per-algorithm
# Workers1/WorkersMax pairs and the parallel Mondrian recursion), clamped to
# the host's cores; prints the speedup-per-core table via `benchjson speedup`.
bench-cores:
	sh scripts/bench_cores.sh

# Coverage-guided fuzzing of the dual-path CSV reader against pure
# encoding/csv (error presence, every cell and the content fingerprint must
# agree) and of the snapshot decoder on arbitrary bytes (refuse, or serve a
# table that reads without panicking). The committed corpora under
# internal/dataset/testdata/fuzz replay in every ordinary `go test` run; this
# target keeps exploring. Snapshot inputs are page-aligned, so at least
# 12 KiB each: minimizing every new one would eat the budget, hence the
# short -fuzzminimizetime. FuzzPolicyValidate feeds arbitrary bytes through
# the strict policy decoder into every algorithm's engine.Validate (no
# panics; accepted policies re-encode to identical bytes). FuzzParseAPIKeys
# feeds them to the serve -api-keys file parser (no panics; an accepted map
# has no empty or whitespace-holding key or tenant and round-trips through
# its "<key> <tenant>" lines). FuzzReplayWAL opens a store over an arbitrary
# WAL and FuzzOpenManifest over an arbitrary checkpoint manifest (refuse, or
# recover records that all have a kind and a key, with NextSeq past every
# recovered sequence number); each input opens a store in a fresh
# directory, so minimization gets the short budget too. FuzzHandlerBodies
# POSTs arbitrary bytes to /v1/anonymize, /v1/jobs, /v1/specs and
# /v1/policies of a fresh server holding a 50-row census dataset (every
# answer a 2xx, or a 4xx or 504 with the error envelope; no panic, no 500).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/dataset -run '^$$' -fuzz 'FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz 'FuzzReadCSVInferred$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz 'FuzzOpenSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/engine -run '^$$' -fuzz 'FuzzPolicyValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzParseAPIKeys$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz 'FuzzHandlerBodies$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzReplayWAL$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzOpenManifest$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# Micro-benchmarks for the hot paths (quick mode, ~1 minute).
bench-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkGroupBy|BenchmarkMondrian|BenchmarkLaplace' -benchmem .

# Full experiment benchmark suite (regenerates EXPERIMENTS.md-scale tables).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem -ppdp.full .

ci: build fmt-check vet linkcheck api-docs-check loadbench-check test race
