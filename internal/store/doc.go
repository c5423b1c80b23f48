// Package store is the durable half of the deployment: an append-only,
// segmented trace store fed by tracer.Cursor streams and read back
// through the same contract. The block buffer keeps the latest trace
// continuous in memory; the store keeps it across crashes and answers
// post-mortem queries without replaying an export.
//
// A store is a backend namespace (a local directory by default, see
// internal/store/backend) of numbered files. Row segments
// (seg-%08d.seg, segment.go) are a header followed by CRC-framed wire
// records; exactly one, the newest, is active. Sealed segments are
// immutable and age into the cold tier: compressed columnar block files
// (col-%08d.blk; coldv2.go writes v3, cold.go reads v1 and v2), each
// committed by one write, fsync, rename, delete sequence (compactor.go).
// Every read steps one scan (scan.go): the file, block, column and row
// rungs of the pruning ladder, over the predicate the query compiles
// to. The block cache (blockcache.go) describes its entry kinds; what
// each costs and when it is admitted is stated there and only there.
//
// # Contract
//
// Each operation states what it guarantees, one sentence per guarantee,
// with the test that pins it.
//
// Open:
//   - It recovers a crashed store losing at most the torn record at the
//     tail of the last segment, and a range query over the recovered
//     store equals the same query over the surviving records
//     (TestCrashRecoveryTornTail, TestRecoveryMidStore).
//   - On arbitrary cuts and bit flips of a segment image it succeeds,
//     surfaces no fabricated or duplicate record, and accepts appends
//     afterwards (FuzzSegmentRecover).
//   - A read error during recovery fails it and leaves the file
//     untouched: bytes that could not be read are not known to be bad
//     (TestRecoveryReadErrorKeepsSegment).
//   - A seal's torn header rewrite costs the header only; it is rebuilt
//     from the frames (TestRecoveryTornHeader).
//   - It holds an exclusive lock until Close, so a second Open of the
//     same directory fails fast (TestOpenLocksDirectory).
//   - A crash at any tier-transition boundary recovers exactly once: no
//     committed event lost, none duplicated (TestCompactionChaosTierBoundaries).
//   - Leftovers of an interrupted freeze are identified by the seqs the
//     result covers, never by stamp ranges, which independent runs repeat
//     (TestReopenKeepsRepeatedStampRanges); a merged segment an earlier
//     version left reopens as a hot row segment (TestMergedV0Directory).
//   - Everything appended before a clean Close reads back after it
//     (TestReopenPreservesEverything, TestColdReopenPreservesEverything).
//
// AppendEntries, AppendBatch, Batch.Encode:
//   - A batch is readable by cursors when the call returns and durable at
//     the next commit (TestAppendReadRoundTrip).
//   - A row that cannot be framed is left out and its error returned; the
//     rest is written.
//   - A Batch framed once and appended to several stores writes
//     byte-identical segment files to AppendEntries of the same rows
//     (TestSharedFramesByteIdentical, in internal/distributor).
//   - Every error either returns is sticky, ErrClosed or the write path's
//     first failure, so a second try could only meet it again
//     (TestAppendFailureIsSticky).
//   - An append racing Close is either written, sealed and fsynced by
//     Close, or fails whole with ErrClosed (TestAppendRacingClose).
//   - The segment gauges are running totals equal to a recount of the
//     segment list (TestStoreGaugesMatchRecount), so an append to a store
//     of 4096 segments costs what one to a store of one does
//     (BenchmarkStoreAppend, gated at 1.5x and 0 allocs/op by benchdiff).
//
// Sync, Seal, Close, WriteErr, Pressure:
//   - Durability has one rule, whatever CommitEvery says: a sealed
//     segment is fsynced as its seal finalizes, with no commit asking
//     (TestSealDurableWithoutCommit); the active segment is durable at
//     the next commit — Sync, Seal, Close or the CommitEvery timer.
//   - A commit covers every byte written before it began, segments
//     rotated while it runs included (TestSyncCoversConcurrentRotations),
//     and a steady stream of appends cannot hold it off
//     (TestCommitNotHeldOffByAppends).
//   - A clean Close leaves everything durable, with a commit timer or
//     without (TestCloseLeavesEverythingDurable).
//   - WriteErr and Pressure read atomics and never wait on a write or an
//     fsync (TestPressureAndWriteErr, TestPressureAppendLatencyPerEvent).
//
// Query (a PCursor; QueryParallel is Query):
//   - A pass runs on the goroutine that calls Next and starts none
//     (TestCursorStartsNoGoroutine). It holds that goroutine, one span
//     buffer, and one open file per segment not served from a set, and
//     it closes every file it opened however it ends: drained, cut by
//     Limit, closed early or failed (TestCursorClosesEveryFile).
//   - A pass answers for one snapshot, taken by its first Next: it
//     delivers the snapshot's matches in global stamp order, each once,
//     and then (0, 0, nil) until Close, whatever the store does meanwhile
//     (TestParallelCursorIsSnapshot, TestParallelNoSpuriousMissed).
//   - Under concurrent appends, retention and freezes, delivered + missed
//     covers the snapshot's matches, missed an upper bound
//     (TestStoreParallelStress, TestParallelCursorMissedOnRetention,
//     TestParallelCursorAcrossFreeze, TestCursorMissedOnUnorderedFreeze).
//   - Every read is held to an in-memory oracle of the appended events
//     over random programs of appends from interleaving writers, seals,
//     freezes, retention, reopens and crash images (TestStoreModel,
//     FuzzStoreModel); the three ways an earlier following cursor lost
//     events are pinned as snapshot passes (TestCursorReadsTailSealedBehindIt,
//     TestCursorCutLeavesActiveSegmentOpen, TestCursorResumesInsideFreeze).
//   - The answer does not depend on the batch size or
//     what the block cache holds (TestParallelMatchesSequential,
//     TestHeaderSetsMatchCachelessStore, TestFilteredSetsMatchCachelessStore),
//     and the cursor meets the repository's tracer conformance suite
//     (TestStoreTracerConformance, TestStoreParallelTracerConformance).
//   - Equal stamps come out in segment order, then snapshot order: an
//     unordered segment is merged by run, stably
//     (TestRunMergeMatchesSort).
//   - Entries, payloads included, alias cursor-owned memory that stays
//     valid until the next Next or Close.
//   - Under Query.LengthsOnly every payload has the right length and no
//     payload byte is read, inflated or cached for the caller, and CSV
//     and Chrome bodies are byte-identical to those of a full read
//     (TestLengthOnlyMatchesFull, TestLengthOnlyInflatesNothing); a pass
//     reads every span through its one span buffer
//     (TestLengthOnlyHoldsWorkerSpans).
//   - A pass holds the chunks of the segments that overlap in stamp, not
//     one per segment (TestParallelHoldsWhatOverlaps),
//     and a selective pass holds memory in proportion to its matches
//     (TestParallelThinRowsLeaveTheirSpan, TestChunkTake).
//   - NextRendered hands over CSV text byte-identical to rendering the
//     rows (TestRenderedCSVMatchesOracle).
//   - A corrupt frame, meta section or payload chunk that a read needs
//     fails that read with tracer.ErrCorrupt on every surface, and again
//     on retry, since nothing unverified is cached
//     (TestCorruptFrameFailsEverySurface, TestColdChunkCorruption,
//     TestFilteredSetCorruptMeta); a record padded past its canonical
//     size is corrupt (TestEventRecordDecoders).
//   - Pruning never drops a match: a block or file vetoed by its metadata
//     is never read (TestColdPruningSkipsDecompression,
//     TestColdStampPruningSkipsCorruptBlocks), and the column walker
//     selects exactly the rows the row-at-a-time reading does
//     (TestColumnKernelsMatchRowOracle, FuzzColumnKernels,
//     TestQueryFilters, TestColdQueryFilters).
//
// Aggregate, AggregateSnapshot, AggSnapshot.Fold:
//   - A fold counts exactly the events a Query with the same predicate
//     delivers, across both tiers (TestAggregateAcrossTiers), and a
//     header-only aggregate inflates no payload byte
//     (TestAggregateColumnarSkips, TestColdAggregateNeverInflatesPayload).
//   - A sealed segment every bound of the query covers is folded once:
//     the next fold that asks the same of it opens no file
//     (TestAggregatePartials, TestAggregatePartialsConcurrent), and the
//     active segment is folded from a resident header set
//     (TestAggregateFoldsActiveHeaderSet).
//   - A count() caches at most 20 B per cold event
//     (TestCountAggregateCacheFootprint).
//   - A fold under an Ownership counts only the rows it is designated to
//     count and fingerprints the rest (TestFoldUnderOwnership).
//
// CompactTick, CompactCold, retention:
//   - A freeze checks every frame of its sources and fails with
//     ErrCorrupt, leaving the sources and no cold file, on one that fails
//     (TestCorruptFrameFailsEverySurface, "freeze and reopen").
//   - Cold file bytes depend only on the events: a reused writer writes
//     what a fresh one does (TestColdFileBytesPinned,
//     TestFreezeDeterministicThroughReusedWriter), and after a file's
//     first block a flush allocates one directory entry
//     (TestColdWriterFlushAllocs).
//   - A directory holding v1, v2 and v3 blocks answers every query
//     identically and keeps freezing (TestColdV1V2MixedDirectory); the
//     block decoders never panic on arbitrary bytes
//     (FuzzColdBlockV2Decode, FuzzColdBlockV3Decode).
//   - The compactor races appends, queries and retention safely
//     (TestStoreCompactorStress, TestFreezeBuildsColdTier), over either
//     backend (TestObjectBackendConformance).
//   - Retention is by bytes only (Config.MaxBytes): it deletes whole
//     sealed segments, oldest first, never the active one
//     (TestRetentionByBytes, TestColdRetention).
//   - The block cache stays within ColdCacheBytes, serves repeated cold
//     reads, and can be turned off (TestBlockCacheServesRepeatedColdQueries,
//     TestBlockCacheEvictsWithinBudget, TestBlockCacheDisabled).
//
// Stats: the btrace_store_* series read Stats, and every count lives in
// one place (TestStoreSeriesReadStats).
//
// Ratios that `make benchdiff` enforces within one run: BenchmarkColdQuery
// within 2x of BenchmarkStoreQueryWide; BenchmarkQuerySelectiveBTQL
// and BenchmarkQueryAggregate at most 0.2x of BenchmarkQueryFullScan,
// BenchmarkQueryAggregateRepeat 0.1x of BenchmarkQueryAggregate;
// BenchmarkColdSelect sparse at most 0.3x of dense and sparse-lengths
// 0.65x of sparse; BenchmarkHotTailExport, BenchmarkHotTailCSV and
// BenchmarkWindowExport cached at most 0.5x, 0.12x and 0.05x of walk.
package store
