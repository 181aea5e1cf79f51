# Developer entry points. `make bench` is the perf trajectory: it runs the
# two headline benchmarks (whole fleet day, sweep engine scaling) under
# -benchmem and records ns/op, B/op and allocs/op as BENCH_$(BENCH_N).json
# via tools/benchjson. Bump BENCH_N once per PR so the series of committed
# files shows how the numbers move as the codebase grows.

BENCH_N ?= 10
BENCH_PATTERN ?= BenchmarkFleetDay|BenchmarkSweep

# Benchmarks the profile target captures pprof data from, one profile pair
# per pattern so the hot paths of the fleet loop and the sweep engine stay
# separable in the flame graph.
PROFILE_BENCHES = FleetDay:BenchmarkFleetDay/stations-1000 Sweep:BenchmarkSweep/workers-1

.PHONY: all build test vet lint bench bench-check bench-history profile

all: build vet lint test

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# lint runs tools/glacvet, the repo's own static analysis suite: the
# determinism, hotpath, wiretag, deadexport (unused exports, fields
# nothing reads, exported fields nothing outside their package sets or
# reads) and allow-hygiene checks (see DESIGN.md §10). Nonzero exit on
# any finding.
lint:
	go run ./tools/glacvet ./internal/... ./cmd/... .

bench:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 1 . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	go run ./tools/benchjson < bench.out > BENCH_$(BENCH_N).json
	@rm -f bench.out
	@cat BENCH_$(BENCH_N).json

# bench-check is the regression gate: run the headline benchmarks fresh and
# compare against the newest committed BENCH_*.json with tools/benchcmp.
# Thresholds are generous (see benchcmp -h) so runner noise passes but an
# order-of-magnitude churn regression fails the build. On failure the fresh
# numbers stay in bench-check.json for inspection.
bench-check:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count 1 . > bench-check.out || (cat bench-check.out; rm -f bench-check.out; exit 1)
	go run ./tools/benchjson < bench-check.out > bench-check.json
	@rm -f bench-check.out
	go run ./tools/benchcmp $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1) bench-check.json
	@rm -f bench-check.json

# bench-history prints the ns/op trajectory across every committed
# BENCH_*.json — the story of where each PR's cycles went.
bench-history:
	go run ./tools/benchcmp -history $$(ls BENCH_*.json | sort -t_ -k2 -n)

# profile captures CPU and heap pprof profiles from the headline
# benchmarks into profiles/ and prints the top-10 flat entries of each CPU
# profile. This is where a perf PR starts: the EXPERIMENTS.md compute
# ledger records these tables before and after. Inspect interactively with
#   go tool pprof profiles/FleetDay.test profiles/FleetDay.cpu.pprof
profile:
	@mkdir -p profiles
	@for spec in $(PROFILE_BENCHES); do \
		name=$${spec%%:*}; pattern=$${spec#*:}; \
		echo "== profiling $$pattern"; \
		go test -run '^$$' -bench "$$pattern" -benchtime 5x -count 1 \
			-cpuprofile profiles/$$name.cpu.pprof \
			-memprofile profiles/$$name.mem.pprof \
			-o profiles/$$name.test . || exit 1; \
		echo "== top-10 CPU, $$pattern"; \
		go tool pprof -top -nodecount=10 profiles/$$name.test profiles/$$name.cpu.pprof; \
	done
