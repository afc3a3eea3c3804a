# Standard developer entry points. `make check` is the tier-1 gate:
# everything it runs must pass before a change lands.

GO ?= go

.PHONY: check vet build test race allocs cover examples fuzz fuzz-search fuzz-constraints fuzz-submit fuzz-design fuzz-eco bench-json bench-smoke bench-constraint-smoke bench-eco-smoke serve-smoke clean

check: vet build race allocs cover examples bench-eco-smoke

# gofmt -l prints each file that is not gofmt-clean; any output fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# perfbench/ is a Go module of its own, which the root's ./... never
# reaches; vetting and testing it here makes an engine API change break
# now, not at the next benchmark run.
build:
	$(GO) build ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation guards (TestSingleMLLCallAllocs*, TestReadAllocs,
# TestWriteAllocsFlat). They skip under -race, whose runtime perturbs
# allocation counts, so they run here without it.
allocs:
	$(GO) test -count=1 -run Allocs . ./internal/iodesign

# Coverage floors: internal/obs >= 90%, internal/core no worse than its
# pre-observability level (see scripts/cover.sh and docs/OBSERVABILITY.md).
cover:
	sh scripts/cover.sh

# Run every example end to end. Each exits non-zero (log.Fatal) when a
# legality check of its result fails; bufferinsertion is the session
# API's end-to-end check.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cellsizing
	$(GO) run ./examples/detailedplace
	$(GO) run ./examples/bufferinsertion

# Short fuzz session over the bookshelf parser (satellite of the
# robustness work; see docs/ROBUSTNESS.md).
fuzz:
	$(GO) test ./internal/bookshelf -fuzz FuzzRead -fuzztime 30s

# Short fuzz session over the best-first-vs-exhaustive search equivalence
# property (docs/PERFORMANCE.md §5).
fuzz-search:
	$(GO) test ./internal/core -run FuzzBestFirstMatchesExhaustive \
		-fuzz FuzzBestFirstMatchesExhaustive -fuzztime 30s

# Short fuzz session over the constraint-plugin admissibility property:
# every plugin's lower-bound term must stay below the realized horizontal
# cost of any candidate its own filters admit, and the best-first search
# under an armed set must reproduce the exhaustive sweep bit for bit
# (docs/CONSTRAINTS.md).
fuzz-constraints:
	$(GO) test ./internal/core -run FuzzConstraintLowerBound \
		-fuzz FuzzConstraintLowerBound -fuzztime 30s

# Constraint-plugin differential smoke (CI gate): each plugin alone and
# all three composed must produce byte-identical placements in both
# search modes under the race detector, pass the plugins' verify.Check
# oracles with zero violations, and a rule set swapped on a live
# legalizer must take effect at the next call (docs/CONSTRAINTS.md).
bench-constraint-smoke:
	$(GO) test -race -short ./internal/core \
		-run 'TestConstraintPluginsMatchAcrossModes|TestConstraintFiltersActuallyFire|TestConstraintLowerBoundProperty|TestConstraintSwapTakesEffect'
	$(GO) test -race ./internal/experiments -run TestGoldenConstraintPlacements

# Regenerate the benchmark artifacts: BENCH_prune.json (best-first search
# vs exhaustive sweep) and BENCH_eco.json (incremental session delta
# batches vs full relegalization); see docs/PERFORMANCE.md. Results
# depend on the machine; num_cpu, go_max_procs and speedup_valid are
# recorded in the eco artifact — on a single-CPU box every speedup field
# is suppressed.
bench-json:
	$(GO) run ./cmd/mrbench -experiment prune -scale 400 \
		-json BENCH_prune.json -no-progress
	$(GO) run ./cmd/mrbench -experiment eco -sizes 5000,20000 \
		-delta-fracs 0.001,0.01,0.05 -json BENCH_eco.json -no-progress

# Short fuzz session over the job-submission decoder — the boundary
# between the network and the engine (docs/SERVICE.md).
fuzz-submit:
	$(GO) test ./internal/service -run FuzzDecodeSubmit \
		-fuzz FuzzDecodeSubmit -fuzztime 30s

# Short fuzz session over the design-text codec: Read and Write must
# match the reference codec kept in internal/iodesign's tests.
fuzz-design:
	$(GO) test ./internal/iodesign -run FuzzRead -fuzz FuzzRead -fuzztime 30s

# Short fuzz session over the ECO delta-frame decoder: malformed frames
# and hostile JSON must map to stable bad_request errors, never a panic
# (docs/SERVICE.md §8).
fuzz-eco:
	$(GO) test ./internal/service -run FuzzDecodeDelta \
		-fuzz FuzzDecodeDelta -fuzztime 30s

# ECO-equivalence smoke (CI gate): on a Table-1 subset, session delta
# batches applied over legalized designs must stay legal (the tier-1
# suite's TestGoldenSessions pins each batch's placement); plus the
# session engine's own suite and the eco benchmark plumbing, all under
# the race detector (docs/PERFORMANCE.md §9).
bench-eco-smoke:
	$(GO) test -race -short ./internal/core -run 'TestSession'
	$(GO) test -race ./internal/experiments -run 'TestEcoEquivalence|TestRunEcoSmoke'
	$(GO) test -race ./internal/service -run 'TestSession'

# End-to-end exercise of the job server: build mrserve, submit a bench
# over HTTP, compare the placement checksum against a direct library
# call, and require a clean SIGTERM drain (docs/SERVICE.md; CI gate).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Quick allocation/latency smoke over the MLL hot path, the placement
# checksum, the text codec and the job-submission decoder (CI gate).
bench-smoke:
	$(GO) test -run xxx -bench 'SingleMLLCall|RegionExtraction|InsertionPointEnumeration|PlacementChecksum|IodesignRoundTrip|DecodeSubmit' \
		-benchtime 100x -benchmem . ./internal/core ./internal/service

clean:
	$(GO) clean ./...
