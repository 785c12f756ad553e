# COBRA build/test entry points. CI (.github/workflows/ci.yml) runs the same
# steps. Performance is measured by the BENCHMARK.json program in benchmark/
# (`make benchmark-smoke` is its smoke test); layer benchmarks live beside
# the packages they measure (`go test -run '^$$' -bench . ./internal/...`).

GO ?= go

.PHONY: all build test race vet vuln staticcheck cobra-lint lint fmt-check cover benchmark-smoke examples surface ci

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

# The repo's own go/analysis suite (cmd/cobra-lint, a `tool` in go.mod),
# seven analyzers: determinism, goroutine discipline, iterator lifecycle,
# sink errors, context flow, wall-clock hygiene and lock guards.
# Stdlib-only — runs offline.
# `go tool -n` builds the tool and prints its path for -vettool.
cobra-lint:
	$(GO) vet -vettool=$$($(GO) tool -n cobra-lint) ./...

# Full lint gate: the in-repo analyzers plus the network-dependent tools.
lint: cobra-lint staticcheck vuln

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# Per-package coverage summary + total; coverage.out feeds `go tool cover
# -html` locally and is published as a CI artifact.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# The BENCHMARK.json program is a module of its own (benchmark/go.mod), so
# `go build ./... && go test ./...` never compiles it. Its smoke test runs
# all seven workloads on small inputs with every answer checked (~6 s): it
# is what notices a change to a function the benchmark calls.
benchmark-smoke:
	cd benchmark && $(GO) test .

# The runnable programs under examples/ have no tests: run each one and fail
# on a non-zero exit, so a facade change that breaks one cannot land
# unnoticed. Together they take a few seconds.
EXAMPLES = quickstart telephony tpch whatif

examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "== examples/$$e"; $(GO) run ./examples/$$e > /dev/null; \
	done

# The two size numbers ROADMAP tracks like a benchmark, printed into every
# CI log: non-test, non-blank, non-comment Go lines outside benchmark/, and
# the exported top-level functions of the facade (pinned by
# TestFacadeSurface).
surface:
	@git ls-files '*.go' | grep -v -e '^benchmark/' -e '_test\.go$$' | xargs cat \
		| awk '/^[[:space:]]*$$/ || /^[[:space:]]*\/\// { next } { n++ } END { print "non-test code lines:", n }'
	@printf 'cobra.go exported functions: '; grep -c '^func [A-Z]' cobra.go

ci: fmt-check vet cobra-lint build race benchmark-smoke examples surface
