# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet test test-short race cover bench bench-plan-scale figures examples serve fuzz-scenarios fuzz-soak lines clean

all: check

# The default gate: compile, static checks, full tests, race-checked
# short tests.
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./...

# The CI smoke: 500 seeded fault scenarios through the full resilient
# stack with every invariant checker armed, under the race detector.
fuzz-scenarios:
	$(GO) run -race ./cmd/m2mfuzz -n 500 -q

# Overnight soak: keep drawing seeds and checking invariants until the
# clock runs out (~275 scenarios/sec without -race). Failing seeds are
# shrunk to repro-seed<N>.json in the working directory.
FUZZ_SOAK_DURATION ?= 10m
fuzz-soak:
	$(GO) run ./cmd/m2mfuzz -n 0 -duration $(FUZZ_SOAK_DURATION) -q

# One testing.B benchmark per paper figure/table plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the checked-in planner scaling artifact (68/1k/10k nodes).
bench-plan-scale:
	$(GO) run ./cmd/m2mbench -plan-scale -topo-size 68,1000,10000 -json > BENCH_plan_scale.json

# Run the session server with default admission/deadline settings.
SERVE_ADDR ?= :8437
serve:
	$(GO) run ./cmd/m2md -addr $(SERVE_ADDR)

# Regenerate every evaluation figure and ablation at full scale.
figures:
	$(GO) run ./cmd/m2mbench -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sapflux
	$(GO) run ./examples/wildlife
	$(GO) run ./examples/dynamic
	$(GO) run ./examples/failover
	$(GO) run ./examples/motes

# Production Go line count (tests and the separate perfbench module
# excluded): the figure the code-size goal in ROADMAP.md is tracked by.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
