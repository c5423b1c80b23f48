# Build/test entry points for the BTrace repository. `make tier1` is the
# gate every change must keep green (ROADMAP.md); `make chaos` runs the
# deterministic fault-injection suite on its own.

GO ?= go

.PHONY: all build fmt vet test race race-stress tier1 tier1-contended chaos overload-stress compaction-chaos cluster-chaos vulture-soak bench benchdiff

all: tier1

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any tracked Go file is not
# gofmt-clean, so formatting drift cannot land through CI.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own (the root ./... skips it) that compiles
# against internal/ APIs: vetting it here means moving a type it imports
# fails locally, not only on the CI runner. TestDocCitations fails on a
# test that DESIGN.md or a package doc cites, or that a -run or -fuzz
# pattern here or in CI selects, and that no *_test.go declares.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	$(GO) test -count=1 -run '^TestDocCitations$$' .

test:
	$(GO) test ./...

# Race-check the concurrent packages (the tracer core, simulator, fault
# injector, admission and stores all exercise real concurrency).
race:
	$(GO) test -race ./internal/...

# The store's cursor stress test under the race detector: concurrent
# appenders, cursors (full passes reopened back to back, and partial
# drains ending in Close) and retention all racing
# mid-scan; appenders racing Close, each batch all or nothing; commits
# racing rotations: Sync and Seal cover every segment rotated before
# them, and a free-running appender cannot hold a Sync off; and the one
# durability rule: a sealed segment is fsynced as its seal finalizes,
# with no commit, and Close leaves every file fsynced.
# -short keeps a double run CI-sized.
race-stress:
	$(GO) test -race -short -count 2 -run 'TestStoreParallelStress|TestAppendRacingClose|TestSyncCoversConcurrentRotations|TestCommitNotHeldOffByAppends|TestSealDurableWithoutCommit|TestCloseLeavesEverythingDurable' ./internal/store

tier1: build fmt vet test race

# ROADMAP item 8's deterministic tier-1: every tier-1 test five times
# over while two busy loops compete for the CPUs. A test that leans on
# the clock or on scheduling luck fails here before it flakes elsewhere.
tier1-contended:
	@pids=; for i in 1 2; do sh -c 'while :; do :; done' & pids="$$pids $$!"; done; \
	trap 'kill $$pids' EXIT; \
	$(GO) test -count 5 ./...

# The chaos suite: every DESIGN.md invariant under injected preemption
# storms, stalled writers and hotplug-during-resize; the overload storm,
# shard kill and vulture scenarios over flaky stores; and the injector's
# one-seed-one-plan determinism. Honors -short (make chaos SHORT=-short).
SHORT ?=
chaos:
	$(GO) test $(SHORT) -v -run 'TestChaos' ./internal/faults/

# The overload storm scenario on its own: an oversubscribed producer and
# a wedged store drive internal/ingest's admission through two full
# engage → degrade → recover cycles, checking the tier trajectory, the
# event-exact accounting identity and the per-batch work bound (in
# counts; the wall-clock form is a benchdiff ratio rule). Honors -short
# (make overload-stress SHORT=-short).
overload-stress:
	$(GO) test $(SHORT) -v -run 'TestChaosOverloadStorm' ./internal/faults/

# The tiered-storage chaos suite under the race detector: the object-
# backend conformance pass, crash snapshots at every tier-transition
# boundary (each reopened and checked for exactly-once recovery), and
# the compactor stress test racing appends, queries and retention.
compaction-chaos:
	$(GO) test -race -count 1 -v \
	  -run 'TestCompactionChaosTierBoundaries|TestObjectBackendConformance|TestStoreCompactorStress' \
	  ./internal/store

# The distributed ingest tier's kill-a-shard scenario under the race
# detector: a 4-shard RF=2 cluster with flaky replica stores loses one
# shard mid-storm and another wedges transiently; every quorum-acked
# event must remain readable through the merged query view, the tenant
# accounting identity must hold exactly, and the ring property tests
# bound key movement on join/leave and hold the ring's owner memo to the
# walk's answer under racing lookups. The ring changes' one copy loop runs
# three times over, raced against Ingest: joins and drains under
# writers keep every owner whole, an add-drain-remove sequence loses no
# acked event, and a move copies each row to the owners its thread
# gains exactly once. Honors -short (make cluster-chaos SHORT=-short).
cluster-chaos:
	$(GO) test -race $(SHORT) -v -run 'TestChaosClusterShardKill' ./internal/faults/
	$(GO) test -race -run 'TestRing' ./internal/ring/
	$(GO) test -race -count 3 -run 'TestAddDrainRemoveLosesNothing|TestRebalanceUnderWritesKeepsEveryOwnerWhole|TestMoveCopiesExactlyWhatMoves' ./internal/distributor/

# Continuous-verification soak: boot a real single-store btrace-serve,
# run btrace-vulture against it (known stamped writes read back through
# /live, the /store/query range read, and the cold tier), then
# do the same to a real 4-shard RF=2 one and drain a shard mid-soak.
# Fails on any acked-stamp loss, duplication or mis-ordering on either.
# Honors -short (make vulture-soak SHORT=-short, ~1 min).
vulture-soak:
	./scripts/vulture-soak.sh $(SHORT)

# Read/write-path benchmarks with allocation accounting, recorded as
# machine-readable JSON (BENCH_*.json) to track the perf trajectory
# across commits. BENCHTIME trades precision for runtime. BENCH_obs.json
# captures the self-observability overhead contract: the instrumented
# record/read fast paths must stay at 0 allocs/op and within noise of
# the Options.DisableStats baseline (see internal/obs). The obs record
# sub-benchmarks measure a single ~45ns Write, so they get their own
# much higher iteration count (OBS_RECORD_BENCHTIME) — at BENCHTIME-scale
# counts the timer granularity would swamp the <2% contract — and the
# benchmark runs the pair six times itself, the two variants taking
# turns (rows name#01..#05, which benchdiff folds), so that their ratio
# rule can drop the first pass, which pays for running first, and take
# the median of the other five, each pass timed on the same machine;
# every other benchmark a ratio rule compares two variants of does the
# same (the distributor's ingest and aggregate benchmarks, the store's
# append and hot-tail CSV ones), so no line here takes -count. The CSV
# export benchmark's op is one row, ~45ns on a 2-CPU box, and runs at
# OBS_RECORD_BENCHTIME too.
BENCHTIME ?= 2000x
OBS_RECORD_BENCHTIME ?= 200000x
# The store benchmarks whose op is milliseconds or more (a payload-heavy
# cold drain, ordering 65 536 entries, deflating a cold block's
# sections) run at a count of their own, and
# so does the hot-tail CSV export.
STORE_SLOW_BENCHTIME ?= 300x
# The concurrent append benchmark's first run of its appenders makes
# about a hundred allocations, a pooled frame buffer apiece among them,
# that do not grow with the count; its zero-allocation rule needs a
# count that rounds them to 0/op by a wide margin (~0.1 s).
APPEND_CONCURRENT_BENCHTIME ?= 2000x
bench:
	@{ $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkReadPath' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test . -run '^$$' -bench 'BenchmarkWritePathStampBatch' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/live -run '^$$' -bench 'BenchmarkLive(Fanout|SSE)' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/export -run '^$$' -bench 'BenchmarkExportCSV' -benchmem -benchtime $(OBS_RECORD_BENCHTIME); \
	   $(GO) test ./internal/tracer -run '^$$' -bench 'BenchmarkDecodeEvents' -benchmem -benchtime $(BENCHTIME); } \
	 | tee /dev/stderr | $(GO) run ./cmd/bench2json > BENCH_readpath.json
	@echo "wrote BENCH_readpath.json"
	@{ $(GO) test ./internal/store -run '^$$' -bench 'BenchmarkStore(Query|Reopen)|BenchmarkColdQuery|BenchmarkCompactTier|BenchmarkQuery(FullScan|SelectiveBTQL|Aggregate|AggregateRepeat)|BenchmarkHotTailExport|BenchmarkWindowExport' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/store -run '^$$' -bench 'BenchmarkColdSelect|BenchmarkRunMerge|BenchmarkFreezeDeflate' -benchmem -benchtime $(STORE_SLOW_BENCHTIME); \
	   $(GO) test ./internal/store -run '^$$' -bench 'BenchmarkHotTailCSV' -benchmem -benchtime $(STORE_SLOW_BENCHTIME); \
	   $(GO) test ./internal/store -run '^$$' -bench 'BenchmarkStoreAppend$$' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/store -run '^$$' -bench 'BenchmarkStoreAppendConcurrent' -benchmem -benchtime $(APPEND_CONCURRENT_BENCHTIME); \
	   $(GO) test ./internal/distributor -run '^$$' -bench 'BenchmarkDistributorIngest' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/distributor -run '^$$' -bench 'BenchmarkDistributorQuery' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/distributor -run '^$$' -bench 'BenchmarkDistributorAggregate' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./cmd/btrace-serve -run '^$$' -bench 'BenchmarkServeIngest' -benchmem -benchtime $(BENCHTIME); } \
	 | tee /dev/stderr | $(GO) run ./cmd/bench2json > BENCH_store.json
	@echo "wrote BENCH_store.json"
	@{ $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkObsOverhead/record' -benchmem -benchtime $(OBS_RECORD_BENCHTIME); \
	   $(GO) test ./internal/core -run '^$$' -bench 'BenchmarkObsOverhead/read' -benchmem -benchtime $(BENCHTIME); \
	   $(GO) test ./internal/overload -run '^$$' -bench 'BenchmarkRecordUnderOverload' -benchmem -benchtime $(BENCHTIME); } \
	 | tee /dev/stderr | $(GO) run ./cmd/bench2json > BENCH_obs.json
	@echo "wrote BENCH_obs.json"

# Check freshly produced BENCH_*.json against the contracts one run can
# show, and note its ns/op, MB/s and custom-metric deltas against the
# committed baselines (taken from HEAD) without failing on them. The
# read-path / obs fast paths, the store's append path (a pooled frame
# buffer, alone over either store size and under eight appenders), the
# /ingest body decode (BenchmarkDecodeEvents) and both /ingest paths
# (pooled batch → decode → admit → ack → append on the handler
# goroutine, BenchmarkServeIngest/single;
# and → one encoding → four shards' deliveries on the handler
# goroutine, BenchmarkServeIngest/cluster-4xrf2) must stay
# allocation-free. The -max-ratio rules enforce the
# storage contracts within the fresh run itself (hardware-independent):
# the wide query over the majority-cold store must stay within 2x of the
# identical all-hot query, a selective BTQL query with predicate
# pushdown must beat the full-scan-and-filter baseline by at least 5x,
# the header-only count() aggregate must run in at most a fifth of the
# time of that same full scan (it decodes one wide column, builds no
# entries and inflates no payloads; every timed run is a first fold, the
# partials of the one before dropped), the same aggregate asked again at
# most a tenth of that (the sealed segments' partials come out of the
# block cache; no file is opened), a cache-less cold query that wants
# one row in a thousand with its payload must cost at most 0.3x of the
# one that wants every row (it inflates the payload chunks its rows live
# in, one in eight, not every block's whole payload section) and the
# same query read for payload lengths only — what a CSV or Chrome export
# asks for — at most 0.65x of that again (it inflates no chunk at all;
# what is left is the blocks' meta sections and columns, which with the
# cache off both pay and which is half of the sparse row), a length-only
# read of the newest 65 536 stamps of an unordered hot tier served from
# the sealed segments' cached header sets at most half the time of the
# same read walking their frames (it reads no file byte and sorts
# nothing), the CSV export of that read served the sets' text at most
# 0.12x of the same export walking and rendering every row (it formats
# no row; the median of the five passes after the first), a length-only
# `tid == T && category == C` window over the mostly-cold store asked
# again served from the cold files' filtered sets at most a twentieth of
# the same read walking their blocks with the cache off (it opens no
# file and decodes no column), an append to a store holding 4096
# segments within 1.5x of the same append to a store holding one (the
# segment gauges are running totals: nothing on the append path walks
# the segment list; the median of the five passes after the first),
# RF=2 ingest over 4 shards must stay within 3x of direct single-shard
# ingest (2x of it is the second copy; the batch is framed once for
# both replicas; the median of the five passes after the first, the two
# variants taking turns), a count() over the same cluster within 3x of the count() over
# one store holding the stream once (2x of it is the second copy
# again: every shard folds what it holds, and what it pays on top is
# the ownership lookup and the replica fingerprint per row; the median
# of the five passes after the first, see bench), the overload gate under
# storm within 2x of its baseline, and the instrumented record fast path
# within 1.1x of the DisableStats one (the "<2 %" self-observability
# contract, with room for timer noise; the median of the five passes
# after the first, see bench).
# CI runs this target on every push (bench-smoke job): the rules live
# here and nowhere else.
benchdiff:
	@mkdir -p .benchbase
	@for f in BENCH_readpath.json BENCH_store.json BENCH_obs.json; do \
	  git show HEAD:$$f > .benchbase/$$f 2>/dev/null || rm -f .benchbase/$$f; done
	$(GO) run ./cmd/benchdiff -old .benchbase -new . \
	  -zero-allocs 'BenchmarkReadPathCursor,BenchmarkStoreAppend/.*,BenchmarkStoreAppendConcurrent,BenchmarkObsOverhead/.*,BenchmarkLiveFanout/.*,BenchmarkLiveSSE,BenchmarkExportCSV,BenchmarkDecodeEvents,BenchmarkServeIngest/single,BenchmarkServeIngest/cluster-4xrf2' \
	  -max-ratio 'BenchmarkColdQuery<=2*BenchmarkStoreQueryWide,BenchmarkQuerySelectiveBTQL<=0.2*BenchmarkQueryFullScan,BenchmarkQueryAggregate<=0.2*BenchmarkQueryFullScan,BenchmarkQueryAggregateRepeat<=0.1*BenchmarkQueryAggregate,BenchmarkColdSelect/sparse<=0.3*BenchmarkColdSelect/dense,BenchmarkColdSelect/sparse-lengths<=0.65*BenchmarkColdSelect/sparse,BenchmarkHotTailExport/cached<=0.5*BenchmarkHotTailExport/walk,BenchmarkHotTailCSV/cached<=0.12*BenchmarkHotTailCSV/walk,BenchmarkWindowExport/cached<=0.05*BenchmarkWindowExport/walk,BenchmarkStoreAppend/segs=4096<=1.5*BenchmarkStoreAppend/segs=1,BenchmarkDistributorIngest/rf2-4shards<=3*BenchmarkDistributorIngest/direct-1shard,BenchmarkDistributorAggregate/count-4xrf2<=3*BenchmarkDistributorAggregate/direct-1shard,BenchmarkRecordUnderOverload/storm<=2*BenchmarkRecordUnderOverload/baseline,BenchmarkObsOverhead/record-instrumented<=1.1*BenchmarkObsOverhead/record-baseline'
