# Local dev and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build cross test race fuzz-smoke bench bench-smoke bench-check staticcheck serve-smoke cluster-smoke crash-smoke fmt fmt-check vet loc-check ci

all: build test

build:
	$(GO) build ./...

# Cross-builds the module for a 32-bit host (linux/386), a big-endian one
# (linux/s390x: the segfile codec compiles there and refuses to read or
# write) and one without syscall.Mmap (windows/amd64: the heap-read
# fallback).
cross:
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Time-boxed run of the twelve fuzz targets (go test -fuzz takes one target
# and one package at a time). The segfile openers are the only door persisted
# bytes come in through (FuzzMetaSegfileOpen also feeds its input to the
# meta-index table decoder), the query parser and cursor decoder the only ones
# for request text, and the SVF decoder the one for the video a commit names;
# FuzzAnalyze holds the build's one-analysis path to the query-side chain,
# FuzzTopKMatchesDense the text lane's top-k kernel to its dense scan and
# FuzzQuadSegment the tracker's segmentation kernel to its per-pixel oracle,
# FuzzRegisterCourt feeds frames of any size to the court registration
# every frame of a tennis shot goes through, and FuzzTextColumn holds the
# webspace's compressed text blocks to the strings appended to them and
# their contains scan to strings.ToLower.
# -fuzzminimizetime=1s caps how long the fuzzer minimizes each new
# interesting input: at Go's default of 60 s a target with large seeds
# (FuzzSegfileOpen) spends most of its 5 s minimizing the first new input
# and executes nothing, so the cap is what makes these runs explore.
FUZZ = $(GO) test -run=NONE -fuzztime=5s -fuzzminimizetime=1s
fuzz-smoke:
	$(FUZZ) -fuzz='^FuzzDecode$$' ./internal/vidfmt
	$(FUZZ) -fuzz='^FuzzAnalyze$$' ./internal/ir
	$(FUZZ) -fuzz='^FuzzReader$$' ./internal/segfile
	$(FUZZ) -fuzz='^FuzzSegfileOpen$$' ./internal/ir
	$(FUZZ) -fuzz='^FuzzTopKMatchesDense$$' ./internal/ir
	$(FUZZ) -fuzz='^FuzzVecSegfileOpen$$' ./internal/vec
	$(FUZZ) -fuzz='^FuzzMetaSegfileOpen$$' ./internal/core
	$(FUZZ) -fuzz='^FuzzParseRequest$$' ./internal/dlse
	$(FUZZ) -fuzz='^FuzzCursor$$' ./internal/dlse
	$(FUZZ) -fuzz='^FuzzQuadSegment$$' ./internal/track
	$(FUZZ) -fuzz='^FuzzRegisterCourt$$' ./internal/track
	$(FUZZ) -fuzz='^FuzzTextColumn$$' ./internal/webspace

# Full benchmark run with the experiment tables.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: exercises every bench path without the cost
# of a measured run. This is what CI runs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The benchmark (bench/, its own module, so `go test ./...` above never
# reaches it): vet and unit tests of dlbench, then a smoke run of all four
# HTTP workloads with their answer checks. The micro-benchmarks above are
# developer tools, not gates; the regression locks are the AllocsPerRun
# tests and, for end-to-end numbers, paired dlbench runs (bench/README.md).
bench-check:
	bash bench/run.sh -check

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

# expvar was the second metrics model beside serve.Registry (DESIGN.md
# §10); the grep keeps it from growing back into shipped code. The
# dead-surface gate (exported API that only tests reach, unless
# scripts/deadapi/allow.txt claims it with a reason) runs under `make test`
# as scripts/deadapi's TestRepositoryGate.
vet:
	$(GO) vet ./...
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench '"expvar"' .); \
		if [ -n "$$out" ]; then echo "expvar imported outside tests (use serve.Registry):"; echo "$$out"; exit 1; fi

# The README package map's line counts are how "less code at equal
# behaviour" is judged; fail when they drift from what scripts/loc.sh counts.
loc-check:
	bash scripts/loc.sh -check

ci: fmt-check vet loc-check staticcheck build cross test race fuzz-smoke bench-smoke bench-check serve-smoke cluster-smoke crash-smoke
