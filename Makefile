# Standard developer entry points. `make check` is the tier-1 gate:
# everything it runs must pass before a change lands.

GO ?= go

.PHONY: check vet build test race cover fuzz fuzz-search fuzz-constraints fuzz-submit fuzz-eco bench-json bench-smoke bench-shard-smoke bench-constraint-smoke bench-eco-smoke serve-smoke clean

check: vet build race cover bench-eco-smoke

vet:
	$(GO) vet ./...

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

# Coverage floors: internal/obs >= 90%, internal/core no worse than its
# pre-observability level (see scripts/cover.sh and docs/OBSERVABILITY.md).
cover:
	sh scripts/cover.sh

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
# all three composed must produce byte-identical placements across
# workers x shards x search modes under the race detector, pass the
# plugins' verify.Check oracles with zero violations, and a rule set
# swapped on a live legalizer must take effect at the next call
# (docs/CONSTRAINTS.md).
bench-constraint-smoke:
	$(GO) test -race -short ./internal/core \
		-run 'TestConstraintPluginsMatchAcrossModes|TestConstraintFiltersActuallyFire|TestConstraintLowerBoundProperty|TestConstraintSwapTakesEffect'
	$(GO) test -race ./internal/experiments -run TestGoldenConstraintPlacements

# Regenerate the benchmark artifacts: BENCH_prune.json (best-first search
# vs exhaustive sweep), BENCH_shard.json (spatial sharding size x K
# sweep) and BENCH_eco.json (incremental session delta batches vs full
# relegalization); see docs/PERFORMANCE.md. Results depend on the
# machine; num_cpu, go_max_procs and speedup_valid are recorded in the
# shard and eco artifacts — on a single-CPU box every speedup field is
# suppressed.
bench-json:
	$(GO) run ./cmd/mrbench -experiment prune -scale 400 \
		-json BENCH_prune.json -no-progress
	$(GO) run ./cmd/mrbench -experiment shard -sizes 5000,20000 -shards 1,2,4,8 \
		-json BENCH_shard.json -no-progress
	$(GO) run ./cmd/mrbench -experiment eco -sizes 5000,20000 \
		-delta-fracs 0.001,0.01,0.05 -json BENCH_eco.json -no-progress

# Shard-parity smoke (CI gate): a small design legalized with 1-8 spatial
# shards under the race detector must reproduce the serial run's
# placement and Stats across both search modes, with most cells
# legalized as shard-interior cells (docs/PERFORMANCE.md §7).
bench-shard-smoke:
	$(GO) test -race -short ./internal/core \
		-run 'TestShardMatchesSerialAcrossK|TestShardZeroClaimTraffic'

# Short fuzz session over the job-submission decoder — the boundary
# between the network and the engine (docs/SERVICE.md).
fuzz-submit:
	$(GO) test ./internal/service -run FuzzDecodeSubmit \
		-fuzz FuzzDecodeSubmit -fuzztime 30s

# Short fuzz session over the ECO delta-frame decoder: malformed frames
# and hostile JSON must map to stable bad_request errors, never a panic
# (docs/SERVICE.md §8).
fuzz-eco:
	$(GO) test ./internal/service -run FuzzDecodeDelta \
		-fuzz FuzzDecodeDelta -fuzztime 30s

# ECO-equivalence smoke (CI gate): on a Table-1 subset, session delta
# batches applied over designs legalized with workers {1,4} must stay
# legal, pass the fixed-point oracle, and give the same placement at
# both worker counts; plus the session engine's own suite and the eco
# benchmark plumbing, all under the race detector (docs/PERFORMANCE.md
# §9).
bench-eco-smoke:
	$(GO) test -race -short ./internal/core -run 'TestSession'
	$(GO) test -race ./internal/experiments -run 'TestEcoEquivalence|TestRunEcoSmoke'
	$(GO) test -race ./internal/service -run 'TestSession'

# End-to-end exercise of the job server: build mrserve, submit a bench
# over HTTP, compare the placement checksum against a direct library
# call, and require a clean SIGTERM drain (docs/SERVICE.md; CI gate).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Quick allocation/latency smoke over the MLL hot path and the placement
# checksum (CI gate).
bench-smoke:
	$(GO) test -run xxx -bench 'SingleMLLCall|RegionExtraction|InsertionPointEnumeration|PlacementChecksum' \
		-benchtime 100x -benchmem .

clean:
	$(GO) clean ./...
