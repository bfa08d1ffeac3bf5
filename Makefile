# Local dev and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race fuzz-smoke bench bench-smoke bench-json bench-compare staticcheck serve-smoke cluster-smoke crash-smoke fmt fmt-check vet ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Time-boxed run of every fuzz target (go test -fuzz takes one target and
# one package at a time). The segfile openers are the only door persisted
# bytes come in through, the query parser and cursor decoder the only ones
# for request text.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzReader$$' -fuzztime=5s ./internal/segfile
	$(GO) test -run=NONE -fuzz='^FuzzSegfileOpen$$' -fuzztime=5s ./internal/ir
	$(GO) test -run=NONE -fuzz='^FuzzVecSegfileOpen$$' -fuzztime=5s ./internal/vec
	$(GO) test -run=NONE -fuzz='^FuzzDeserialize$$' -fuzztime=5s ./internal/store
	$(GO) test -run=NONE -fuzz='^FuzzParseRequest$$' -fuzztime=5s ./internal/dlse
	$(GO) test -run=NONE -fuzz='^FuzzCursor$$' -fuzztime=5s ./internal/dlse

# Full benchmark run with the experiment tables.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: exercises every bench path without the cost
# of a measured run. This is what CI runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable perf trajectory: run the scoring-kernel benchmark set
# with -benchmem and write BENCH_PR10.json (the committed trajectory point
# of this PR; BENCH_PR9.json is the previous one). BENCHTIME=1x for smoke.
bench-json:
	bash scripts/bench_json.sh

# Guard the perf trajectory: fail when a gated benchmark regressed more
# than 3x between the two committed points. (BenchmarkSceneJoin has no
# earlier committed point; it is gated against a fresh run by
# bench-json-smoke below.)
bench-compare:
	bash scripts/bench_compare.sh BENCH_PR9.json BENCH_PR10.json \
		'BenchmarkIRQueryFull BenchmarkSegmentedSearch/segs=4 BenchmarkColdOpen/segfile/segs=4 BenchmarkSegfileSearch/segs=4 BenchmarkE2ShotBoundarySweep BenchmarkDLSEQuery/cold'

# staticcheck (honnef.co/go/tools). CI installs it; locally the target
# skips with a notice when the binary is absent (this repo vendors nothing
# and the build environment is offline).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# End-to-end daemon check: start dlserve on a random port, curl /healthz
# and /v2/search, shut down gracefully.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end cluster check: two dlserve nodes behind dlrouter, byte-
# identical answers vs a single node, commit visibility, node-death
# failover, Prometheus metrics.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# End-to-end durability check: SIGKILL a WAL-backed dlserve mid-commit,
# restart, assert zero acked-commit loss and identical normalized answers;
# a graceful SIGTERM restart must replay nothing.
crash-smoke:
	bash scripts/crash_smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

ci: fmt-check vet staticcheck build test race fuzz-smoke bench-smoke bench-json-smoke serve-smoke cluster-smoke crash-smoke

# The bench-json CI step: one iteration per benchmark, same script. Writes
# to a scratch path so it never clobbers the committed BENCH_PR10.json (the
# real trajectory point, regenerated deliberately via `make bench-json`),
# then fails the build if the fresh run shows the gated scoring-kernel and
# scene-join benchmarks more than 3x slower than this PR's committed point,
# or the segfile and cold-query benchmarks more than 10x — wider because a
# 1x iteration of a ~16µs cold open (or a first-ever query, which pays
# every lazy init at once) is noise-dominated, while the regressions these
# guard against (losing the mmap fast path, a cold query going quadratic)
# are 100x+. The full-benchtime committed points gate DLSEQuery/cold at 3x
# via bench-compare.
.PHONY: bench-json-smoke
bench-json-smoke:
	BENCHTIME=1x bash scripts/bench_json.sh /tmp/bench_smoke.json
	@cat /tmp/bench_smoke.json
	bash scripts/bench_compare.sh BENCH_PR10.json /tmp/bench_smoke.json \
		'BenchmarkIRQueryFull BenchmarkSegmentedSearch/segs=4 BenchmarkVecSearch BenchmarkHybridSearch BenchmarkE2ShotBoundarySweep BenchmarkSceneJoin/hot/segs=4'
	bash scripts/bench_compare.sh BENCH_PR10.json /tmp/bench_smoke.json \
		'BenchmarkColdOpen/segfile/segs=4 BenchmarkSegfileSearch/segs=4 BenchmarkDLSEQuery/cold' 10
