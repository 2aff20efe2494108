# DX100 reproduction — convenience targets.

GO ?= go

.PHONY: all build test vet race cover fuzz bench microbench benchdiff profile examples figures serve unreached clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the full tree, vet first. The parallel
# experiment runner makes this the gate for any scheduling change.
race: vet
	$(GO) test -race -timeout 30m ./...

# Coverage profile + per-function summary (CI enforces the floor).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Fuzz the spec canonicalization/hashing invariants, the pattern
# compiler's hostile-input handling, the DRAM scheduler's per-bank hit
# counts, and the engine's event order across its wheel and heap (CI
# runs 10s each).
fuzz:
	$(GO) test ./internal/exp -run '^$$' -fuzz FuzzSpecCanonical -fuzztime=30s
	$(GO) test ./internal/workloads/pattern -run '^$$' -fuzz FuzzPatternCompile -fuzztime=30s
	$(GO) test ./internal/dram -run '^$$' -fuzz FuzzBankHitCounts -fuzztime=30s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventOrder -fuzztime=30s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzSubmitRun -fuzztime=30s

# Regenerate every figure/table (tens of minutes; see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -timeout=120m .

# Engine microbenchmarks (event wheel, dense/sparse stepping, DRAM tick)
# plus the end-to-end fast-forward-on/off comparison; numbers land in
# BENCH_engine.json.
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedulePop|BenchmarkEngineStep' -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench BenchmarkDRAMTick -benchmem ./internal/dram
	$(GO) test -run '^$$' -bench BenchmarkFigureRun -benchtime=1x -timeout=60m .

# Compare fresh microbenchmarks against the committed baseline in
# BENCH_engine.json: fails on a >10% ns/op regression or a broken
# speedup gate (sampled-run speedup).
benchdiff:
	$(GO) run ./cmd/benchdiff

# CPU + heap profile of a representative run; inspect with
#   go tool pprof cpu.prof
profile:
	$(GO) run ./cmd/dx100sim -run GZZ -mode dx100 -scale 8 \
		-cpuprofile cpu.prof -memprofile mem.prof

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/spmv
	$(GO) run ./examples/hashjoin
	$(GO) run ./examples/graph

# Quick look at the headline result (Figure 9 on a subset).
figures:
	$(GO) run ./cmd/dx100sim -fig 9 -scale 4 -workloads IS,GZZ,XRAGE,PR

# The experiment service with an on-disk result cache (see README
# "Running as a service").
serve:
	$(GO) run ./cmd/dx100d -addr :8100 -cache .dx100-cache

# Production functions that only tests reach: symbols from non-test
# files that some internal/ test binary links and no production binary
# (the cmd/ mains, the examples, perfbench) does. Inlining is off so
# every call keeps its symbol; generic instantiations, closures and
# compiler-generated wrappers are left out.
unreached:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -gcflags=all=-l -o "$$d/prod/" ./cmd/... ./examples/... && \
	(cd perfbench && $(GO) build -gcflags=all=-l -o "$$d/prod/perfbench" .) && \
	$(GO) test -c -gcflags=all=-l -o "$$d/test/" ./internal/... && \
	syms() { for b in "$$1"/*; do $(GO) tool objdump -s '^dx100/' "$$b"; done | \
	  awk '/^TEXT/ && $$3 ~ /\.go$$/ && $$3 !~ /_test\.go$$/ && $$2 !~ /\[|\.func[0-9]|wrap[0-9]/ { sub(/\(SB\)$$/, "", $$2); print $$2 }' | sort -u; } && \
	syms "$$d/prod" > "$$d/prod.txt" && syms "$$d/test" > "$$d/test.txt" && \
	comm -13 "$$d/prod.txt" "$$d/test.txt"

clean:
	$(GO) clean ./...
