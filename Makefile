# COBRA build/test/bench entry points. CI (.github/workflows/ci.yml) runs
# the same steps; `make bench` records the perf trajectory in BENCH_core.json.

GO ?= go

.PHONY: all build test race vet vuln staticcheck cobra-lint cobra-escape lint fmt-check cover bench bench-quick benchmark-smoke serve-bench ci

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package, so inter-test
# state dependencies cannot hide.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# Known-vulnerability scan (network required; CI runs this too).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# Static analysis beyond go vet (network required; CI runs this too).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# The repo's own go/analysis suite (cmd/cobra-lint, a `tool` in go.mod):
# determinism, goroutine discipline, iterator lifecycle, sink errors,
# context flow and wall-clock hygiene. Stdlib-only — runs offline.
# `go tool -n` builds the tool and prints its path for -vettool.
cobra-lint:
	$(GO) vet -vettool=$$($(GO) tool -n cobra-lint) ./...

# Heap-escape ratchet (cmd/cobra-escape, also a `tool` in go.mod):
# recompiles the hot packages with -gcflags=-m=2 (replayed from the build
# cache when warm), inventories the escape sites per function into
# ESCAPES.json (untracked; CI uploads it), and fails if any function
# exceeds escape_budget.json.
# Re-baseline deliberately with `go tool cobra-escape -update`.
cobra-escape:
	$(GO) tool cobra-escape

# Full lint gate: the in-repo analyzers and escape ratchet plus the
# network-dependent tools.
lint: cobra-lint cobra-escape staticcheck vuln

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# Per-package coverage summary + total; coverage.out feeds `go tool cover
# -html` locally and is published as a CI artifact.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# Run the E1–E9 and E14–E16 experiment benchmarks plus the
# parallel-vs-sequential and sweep-vs-recompress pairs and write
# BENCH_core.json (fails without writing on any benchmark error; see
# scripts/bench.sh for knobs).
bench:
	sh scripts/bench.sh

# One-iteration smoke of the cheapest experiment benchmark — what CI runs.
bench-quick:
	$(GO) test -run='^$$' -bench='^BenchmarkE1_' -benchtime=1x .

# The BENCHMARK.json program is a module of its own (benchmark/go.mod), so
# `go build ./... && go test ./...` never compiles it. Its smoke test runs
# all seven workloads on small inputs with every answer checked (~6 s): it
# is what notices a change to a function the benchmark calls.
benchmark-smoke:
	cd benchmark && $(GO) test .

# Sustained cobra-serve HTTP throughput (EvalBatch req/s with a hard
# floor, BENCH_SERVE_MIN=1000 by default); records BENCH_serve.json.
serve-bench:
	sh scripts/bench_serve.sh

ci: fmt-check vet cobra-lint cobra-escape build race bench-quick benchmark-smoke serve-bench
