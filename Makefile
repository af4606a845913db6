GO ?= go

# Pre-PR total-coverage baseline; cover-check fails when the suite
# drops below it. Raise it when coverage durably improves.
COVER_FLOOR ?= 79.1

# Reduced benchmark scale for the CI bench smoke (SUPG_BENCH_N): big
# enough to be multi-segment-capable and alloc-stable, small enough to
# finish in seconds.
SMOKE_N ?= 65536

# The hot-path trajectory battery (see bench-json / bench-check).
BENCH_HOTPATH_ENGINE = SelectHotPath$$|SelectMixtureWarm
BENCH_HOTPATH_INDEX = PermScan|IndexAppend

.PHONY: all build test test-race vet lint lint-fix fmt-check bench bench-json bench-check bench-labelstore bench-multiproxy bench-storage cover cover-check fuzz-smoke chaos-smoke profile

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus supglint, the repository's custom
# analyzer suite (internal/lint) that enforces the determinism,
# error-taxonomy, storage-commit, and benchmark-hygiene invariants.
# Fails on any finding and on stale //supg:*-ok annotations alike.
lint: vet
	$(GO) run ./cmd/supglint ./...

# Like lint, but prints the suggested fix under every finding.
# Advisory: always exits 0, so it can be run mid-cleanup.
lint-fix:
	-$(GO) run ./cmd/supglint -suggest ./...

# Fails when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Writes cover.out and prints the total statement coverage.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

# Fails when total coverage drops below the pre-PR baseline.
cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$NF); print $$NF }'); \
	echo "total coverage $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% baseline"; exit 1; }

# Short native-fuzzing runs of the dataset parsers, the query parser,
# the shared framed-log reader, and the durable-storage on-disk parsers
# (CI smoke; use go test -fuzz directly for long local sessions).
# FuzzParse checks parse -> String -> re-parse equality, so the SQL
# grammar (REUSE FREE, FUSE, CALIBRATE) stays round-trip clean.
# FuzzLogReplay feeds the frame reader behind the label WAL and the
# MANIFEST arbitrary bytes under both CRC formats. The storage targets
# feed the manifest replayer and the column/segment/dataset file
# parsers arbitrary bytes: any input must yield a clean error or a view
# that agrees with its declared counts — never a panic, never an
# out-of-bounds replay.
fuzz-smoke:
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzLoadCSV$$' -fuzztime 10s
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzLoadBinary$$' -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime 10s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzManifestReplay$$' -fuzztime 10s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzColumnFile$$' -fuzztime 10s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzSegmentFile$$' -fuzztime 10s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzDatasetFile$$' -fuzztime 10s

# Fault-injection battery + crash durability: chaos equivalence
# (byte-identical Indices/Tau/oracle_calls under 30% injected
# transient oracle failures), retry/backoff/breaker determinism, WAL
# torn-tail/tombstone/compaction replay, and the kill-and-restart
# recovery tests (a restarted server re-buys zero labels).
chaos-smoke:
	$(GO) test ./internal/oracle -run 'Chaos|Breaker|Resilient' -count=1
	$(GO) test ./internal/labelstore -run 'WAL' -count=1
	$(GO) test ./internal/storage -run 'Torn|Corrupt|Crash|Orphan' -count=1
	$(GO) test ./internal/engine -run 'Chaos|KillRestart|RestartThenReRegistration|BreakerFailFast|Restart' -count=1
	$(GO) test ./internal/server -run 'KillRestartWALRecovery|OracleUnavailable|JobFailureCarriesDiagnostic|Persist' -count=1

bench:
	$(GO) test ./internal/engine -bench SelectHotPath -benchmem -run '^$$'
	$(GO) test ./internal/index -bench 'IndexBuild|IndexAppend' -benchmem -run '^$$'
	$(GO) test . -bench . -run '^$$'

# Records the hot-path benchmark battery — steady-state select, the
# mixture-warm spread-column select, the dense permutation scan, and
# incremental append — into BENCH_hotpath.json, committed per PR: a
# "full" section at paper scale (n=1e6) for the human-readable
# trajectory and a "smoke" section at SMOKE_N that bench-check diffs
# in CI. ns/op is recorded but never gated (noisy on shared VMs);
# allocs/op and bytes/op are.
bench-json:
	{ $(GO) test ./internal/engine -bench '$(BENCH_HOTPATH_ENGINE)' -benchmem -run '^$$' && \
	  $(GO) test ./internal/index -bench '$(BENCH_HOTPATH_INDEX)' -benchmem -run '^$$'; } | \
	  $(GO) run ./cmd/bench-gate emit -out BENCH_hotpath.json -section full -n 1000000 \
	    -note "Hot-path trajectory: steady-state SUPG select, mixture-warm select on a spread column, dense permutation scan, and incremental append. ns/op recorded but not gated (noisy on shared VMs); CI gates allocs/op and bytes/op against the smoke section."
	{ SUPG_BENCH_N=$(SMOKE_N) $(GO) test ./internal/engine -bench '$(BENCH_HOTPATH_ENGINE)' -benchmem -run '^$$' && \
	  SUPG_BENCH_N=$(SMOKE_N) $(GO) test ./internal/index -bench '$(BENCH_HOTPATH_INDEX)' -benchmem -run '^$$'; } | \
	  $(GO) run ./cmd/bench-gate emit -out BENCH_hotpath.json -section smoke -n $(SMOKE_N)

# CI trajectory gate: re-run the smoke-scale battery and fail when
# allocs/op or bytes/op regress beyond tolerance against the committed
# BENCH_hotpath.json smoke section (or when a baselined benchmark
# disappears). ns/op deltas are printed, never enforced.
bench-check:
	{ SUPG_BENCH_N=$(SMOKE_N) $(GO) test ./internal/engine -bench '$(BENCH_HOTPATH_ENGINE)' -benchmem -run '^$$' && \
	  SUPG_BENCH_N=$(SMOKE_N) $(GO) test ./internal/index -bench '$(BENCH_HOTPATH_INDEX)' -benchmem -run '^$$'; } | \
	  $(GO) run ./cmd/bench-gate check -baseline BENCH_hotpath.json -section smoke

# Cross-query label store: cold vs warm oracle-call counts. The warm
# benchmark reports warm-oracle-calls/op = 0 — a repeated identical
# query never touches the oracle UDF again; the disabled baseline
# re-pays the full budget every run.
bench-labelstore:
	$(GO) test ./internal/engine -bench LabelStore -benchmem -run '^$$'

# Multi-proxy fusion: fused (logistic) vs best-single-proxy selection
# on a warm index, plus the warm-recalibration path. Both warm metrics
# report 0 oracle UDF calls per op — the fused index is cached, and a
# forced recalibration draws every label from the cross-query store.
bench-multiproxy:
	$(GO) test ./internal/engine -bench MultiProxy -benchmem -run '^$$'

# Durable storage: cold boot with recovery (manifest replay + CRC
# verify + mmap adoption, zero proxy calls, zero sorts) vs the only
# alternative — a full proxy re-scan and segmented re-sort — at
# n=1e6. Committed snapshot: BENCH_storage.json.
bench-storage:
	$(GO) test ./internal/storage -bench StorageBoot -benchmem -run '^$$'

# Profile scale (records); the default matches the CI bench smoke.
PROFILE_N ?= $(SMOKE_N)

# Writes cpu/mem pprof profiles of the hot-path benchmark batteries
# into profiles/, plus `go tool pprof -top` text summaries. CI uploads
# the directory as an artifact; inspect interactively with
# `go tool pprof -http=: profiles/engine_cpu.pprof`.
profile:
	mkdir -p profiles
	SUPG_BENCH_N=$(PROFILE_N) $(GO) test ./internal/engine -bench '$(BENCH_HOTPATH_ENGINE)' -run '^$$' \
		-cpuprofile profiles/engine_cpu.pprof -memprofile profiles/engine_mem.pprof -o profiles/engine.test
	SUPG_BENCH_N=$(PROFILE_N) $(GO) test ./internal/index -bench '$(BENCH_HOTPATH_INDEX)' -run '^$$' \
		-cpuprofile profiles/index_cpu.pprof -memprofile profiles/index_mem.pprof -o profiles/index.test
	$(GO) tool pprof -top -nodecount=20 profiles/engine.test profiles/engine_cpu.pprof > profiles/engine_cpu.txt
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_space profiles/engine.test profiles/engine_mem.pprof > profiles/engine_mem.txt
	$(GO) tool pprof -top -nodecount=20 profiles/index.test profiles/index_cpu.pprof > profiles/index_cpu.txt
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_space profiles/index.test profiles/index_mem.pprof > profiles/index_mem.txt
	@echo "wrote profiles/: engine_{cpu,mem}.pprof, index_{cpu,mem}.pprof and -top summaries"
