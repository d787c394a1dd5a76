GO ?= go

.PHONY: all check fmt-check vet lint perfbench staticcheck govulncheck fuzz-smoke build test race bench bench-baseline bench-compare cluster-smoke serve examples clean

all: check

check: fmt-check vet lint build race examples perfbench

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs mira-vet, the repo's own analyzer suite (internal/lint):
# eleven checks — six syntactic, five dataflow/interprocedural — each
# encoding an invariant a past PR paid for. The ./... target includes
# internal/lint and cmd/mira-vet themselves (the linter lints itself).
# CI runs this target as is and fails on any finding; suppress a finding
# in-source with `//lint:ignore mira/<name> reason`. For findings as JSON
# plus mira_vet_findings_total and per-analyzer wall time, run
# `go run ./cmd/mira-vet -json ./...`.
lint:
	$(GO) run ./cmd/mira-vet ./...

# perfbench is the benchmark's own module (perfbench/go.mod, outside
# ./...): it compiles against the engine's query and sweep types, and
# TestWorkloads checks every workload's premises against a live daemon.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# staticcheck and govulncheck are pinned by version and fetched on
# demand via `go run pkg@version`, so they need network access: they run
# as separate CI jobs, not in `check` (the local loop stays offline).
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

GOVULNCHECK_VERSION ?= v1.1.4
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# fuzz-smoke runs the three-way evaluator divergence fuzzer (tree walker
# vs compiled model vs VM over synthesized programs), the frame decoder
# fuzzer (the frame around untrusted store and peer bytes), the unit
# decoder fuzzer (cc.DecodeUnitBytes on the compiled units inside those
# frames: no panic, allocation bounded by the input, stable
# re-encoding), the rational arithmetic fuzzer (every operation against
# math/big across the int64 overflow boundary), the source fuzzer
# (core.Analyze on arbitrary MiniC, the daemon's largest untrusted
# input), the wire cell fuzzer (mira-serve's /query and /sweep encoder
# against encoding/json), the expression renderer fuzzer
# (ast.ExprString against its fmt-based reference on parsed MiniC), and
# the compiled sweep fuzzer (a synthesized program's sweep points at
# fuzzed int64 values against the tree walker), each for FUZZTIME; CI
# runs it on every push, so all eight stay continuously fuzzed.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzThreeWayEvaluators -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/cachestore
	$(GO) test -run xxx -fuzz FuzzDecodeUnit -fuzztime $(FUZZTIME) ./internal/cc
	$(GO) test -run xxx -fuzz FuzzRatArith -fuzztime $(FUZZTIME) ./internal/rational
	$(GO) test -run xxx -fuzz FuzzAnalyzeSource -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzWireCell -fuzztime $(FUZZTIME) ./cmd/mira-serve
	$(GO) test -run xxx -fuzz FuzzExprString -fuzztime $(FUZZTIME) ./internal/ast
	$(GO) test -run xxx -fuzz FuzzCompiledRows -fuzztime $(FUZZTIME) ./internal/engine

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./

# bench-baseline records the performance trajectory: the sweep
# (compiled-vs-treewalk), cache (cold-vs-warm), incremental-edit, and
# report-path (suite -> engine sweeps -> typed report -> JSON)
# benchmarks as a test2json event stream. -benchtime 5x keeps each
# sample cheap; -count 5 records five samples per benchmark, so
# -compare's per-benchmark median stands on more than one number. CI compares
# a fresh run against the committed previous baseline (gating, see
# bench-compare) and uploads the file as an artifact.
BENCH_BASELINE_OUT ?= BENCH_8.json
BENCH_SET = BenchmarkSweep_CompiledVsTreeWalk|BenchmarkSweep_CompileOnce|BenchmarkEngineEval_ColdVsWarm|BenchmarkReport_SuitePath|BenchmarkIncrementalEdit|BenchmarkCrossArchSweep|BenchmarkCluster_
bench-baseline:
	$(GO) test -json -run xxx -benchtime 5x -count 5 \
		-bench '$(BENCH_SET)' \
		. > $(BENCH_BASELINE_OUT)
	@grep -o '"Output":".*speedup-x[^"]*"' $(BENCH_BASELINE_OUT) | tail -2
	@grep -o '"Output":".*rows/s[^"]*"' $(BENCH_BASELINE_OUT) | tail -1

# bench-compare gates on benchmark regressions: a fresh baseline against
# the newest committed one (the highest numeric BENCH_<n>.json suffix),
# host-normalized (the two may come from different machines), failing on
# >15% relative slowdowns of the per-benchmark median over five samples
# in benchmarks above the 100µs noise floor.
BENCH_COMPARE_OLD ?= $(shell ls BENCH_*.json | grep -E '^BENCH_[0-9]+\.json$$' | sort -t_ -k2 -n | tail -n 1)
bench-compare:
	$(GO) test -json -run xxx -benchtime 5x -count 5 \
		-bench '$(BENCH_SET)' \
		. > BENCH_ci_fresh.json
	$(GO) run ./cmd/mira-bench -compare -normalize -threshold 15 \
		$(BENCH_COMPARE_OLD) BENCH_ci_fresh.json

# cluster-smoke is the end-to-end cluster gate: three loopback replicas
# sharing a peer cache tier serve a mixed interactive/bulk load, the
# peer-hit counter must be non-zero (the shared tier is real), the
# interactive class must see zero 5xx, and killing one replica mid-run
# must not fail in-flight interactive requests. See
# cmd/mira-serve/cluster_test.go (TestClusterSmoke).
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count 1 -v ./cmd/mira-serve

serve:
	$(GO) run ./cmd/mira-serve -cache-dir .mira-cache

examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null; \
	done

clean:
	$(GO) clean ./...
