# hierdet — build/test/experiment entry points. Standard library only; no
# network access required for any target.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-scale bench-compare perfbench-check fuzz figures alpha examples smoke smoke-metrics soak fmt vet lint clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One bench per paper artifact (Table I, Figures 4–5) plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the recorded benchmark trajectories (append-only; see EXPERIMENTS.md).
bench-json:
	$(GO) run ./cmd/benchjson

# Live-runtime scale lanes at p ∈ {127, 511, 1023} → BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/benchjson -suite scale

# Perf drift gate: diff the last two entries of the scale trajectory (CI
# points BENCH_COMPARE_OUT at its freshly refreshed copy) and fail when the
# p=1023 parallel lane's throughput regressed more than 10% or its
# observe→solution p99 latency rose more than 150% (latency quantiles on a
# shared box are far noisier than throughput, hence the loose tolerance).
BENCH_COMPARE_OUT ?= BENCH_scale.json
bench-compare:
	$(GO) run ./cmd/benchjson -suite scale -compare -out $(BENCH_COMPARE_OUT) \
		-maxregress 'p1023_parallel_intervals_per_sec=10,p1023_parallel_latency_p99_ms>150'

# The benchmark (perfbench/) is a Go module of its own, so the root build
# and test targets never compile it; this vets and tests it against the
# current tree, so an API change cannot break the benchmark silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz passes over the wire codecs. Patterns are anchored: a bare
# FuzzDecodeReport would match both FuzzDecodeReport and FuzzDecodeReportV2,
# and `go test -fuzz` refuses ambiguous patterns.
fuzz:
	$(GO) test -run FuzzUnmarshalBinary -fuzz FuzzUnmarshalBinary -fuzztime 30s ./internal/vclock/
	$(GO) test -run FuzzDecodeDelta -fuzz FuzzDecodeDelta -fuzztime 30s ./internal/vclock/
	$(GO) test -run 'FuzzDecodeReport$$' -fuzz 'FuzzDecodeReport$$' -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeReportV2 -fuzz FuzzDecodeReportV2 -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeReportBatch -fuzz FuzzDecodeReportBatch -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeHeartbeat -fuzz FuzzDecodeHeartbeat -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeAttach -fuzz FuzzDecodeAttach -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzDecodeTrace -fuzz FuzzDecodeTrace -fuzztime 30s ./internal/replay/

# Regenerate the paper's evaluation artifacts.
figures:
	$(GO) run ./cmd/figures

alpha:
	$(GO) run ./cmd/alpha

examples:
	@for ex in examples/*/; do \
		echo "== $$ex"; \
		$(GO) run ./$$ex || exit 1; \
	done

# Multi-process failover proof: seven hierdet-node OS processes over TCP,
# one SIGKILLed mid-run, detection counts checked against the in-memory
# reference. Localhost sockets only.
smoke:
	timeout 180 $(GO) run ./examples/distributed

# Observability proof: three hierdet-node OS processes, /metrics scraped off
# node 0's pprof endpoint and checked for every exposition plane.
smoke-metrics:
	timeout 180 ./scripts/metrics_smoke.sh

# Chaos/soak lane: randomized kill/partition schedules under load, every run
# recorded as a trace, replayed and invariant-checked; the failing run's
# trace survives in $(SOAK_OUT) for `hierdet-chaos -replay` triage.
SOAK_DURATION ?= 60s
SOAK_OUT ?= chaos-artifacts
soak:
	$(GO) run ./cmd/hierdet-chaos -duration $(SOAK_DURATION) -out $(SOAK_OUT)

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# vet plus staticcheck when it's on PATH (CI installs it; locally optional).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
