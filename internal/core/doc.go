// Package core implements BTrace, the block-based tracer of
// "Enabling Efficient Mobile Tracing with BTrace" (ASPLOS 2025).
//
// BTrace statically partitions one contiguous global buffer into N equally
// sized data blocks. At any instant at most A blocks are active (A is also
// the number of metadata blocks; each metadata block is mapped to N/A data
// blocks through the global ratio, §3.3). Each virtual core owns at most
// one active block at a time and its threads allocate entries inside that
// block with a single fetch-and-add (fast path, §4.1); confirmation is
// out-of-order (§3.4). When a block fills, a producer advances through the
// slow path (§4.2): it fetch-and-adds the global position, closes the
// lagging block that shares the candidate's metadata, skips candidates
// still held by preempted writers, and locks/initializes the new block
// with three CAS steps. Consumers read filled blocks speculatively and
// re-validate the metadata round afterwards (§4.3). Resizing flips the
// global ratio and reclaims implicitly (§3.3, §4.4): a producer that has
// filled its block is, by that very fact, out of the reclaimed epoch.
//
// Data layout:
//
//	global:      ratioAndPos  : atomic u64 = ratio<<48 | pos   (pos monotonic)
//	per core:    local[c]     : atomic u64 = ratio<<48 | pos   (assigned position)
//	metadata[i] (i in 0..A-1):
//	             allocated    : atomic u64 = rnd<<32 | bytePos
//	             confirmed    : atomic u64 = rnd<<32 | count   (out-of-order counter)
//	data blocks: buf[blockSize*N ..]  N = A*ratio, addressed dataIdx = pos mod N
//	mapping:     pos -> metaIdx = pos mod A, rnd = pos / A, dataIdx = pos mod N
//
// The four mechanisms, as this package implements them:
//   - Fast path (§4.1, Fig. 8): read local[c]; FAA allocated by the entry
//     size; a round that does not match sends the writer to the slow
//     path; an allocation that crosses the block end fills the tail with
//     a dummy entry and advances. Writers confirm by FAA on the confirmed
//     count, out of order.
//   - Slow path (§4.2, Fig. 9): FAA the global ratioAndPos for a
//     candidate. The lagging block A positions behind shares its
//     metadata; if its confirmed count has not reached capacity, close it
//     (CAS allocated to capacity, fill a dummy) and, if a preempted
//     writer still holds unconfirmed bytes, skip the candidate (header
//     SKP) and take the next. Then CAS-lock confirmed (prevRnd,cap) →
//     (rnd,0), write the block header, CAS-reset allocated, confirm the
//     header, and CAS local[c] to publish; a failed publish means another
//     thread of the core advanced first, so dummy-fill the won block and
//     use theirs.
//   - Consumer (§4.3): walk positions from the oldest live block, copy a
//     filled block speculatively and re-check the rounds after copying,
//     dropping the copy if it was overwritten or skipped. A block that is
//     not filled is read only once allocated == confirmed, then closed.
//     A cursor refills one persistent arena per snapshot and resumes by
//     binary search past its watermark; the stamp gap there is its
//     missed count.
//   - Resizing (§4.4): CAS the ratio into ratioAndPos, then close every
//     active block by running the advancement once per metadata block.
//     A shrink waits until every metadata block's round passes the resize
//     round and until readers leave their epoch, then reclaims (poisons)
//     the range.
//
// The count field of a confirmed word is split into events and bytes, so
// an event's confirmation CAS counts the event too, and the producer that
// locks a new round harvests the retired round's count once per block:
// the record path touches no counter of its own (obs.go). Stats are exact
// at quiescence and under-count, monotonically, while writers run.
//
// # Contract
//
// Write (through a Writer or WriteProc):
//   - Nothing inside the collected range is lost except by overwriting
//     the oldest data: a single producer's retained stamps are one
//     contiguous suffix of what it wrote, and the newest entry survives
//     (TestPropertyRetainedSuffixContiguous, TestLatestEntriesAlwaysRetained).
//   - Concurrent, oversubscribed and preempted writers never produce a
//     duplicate stamp (TestPropertyNoDuplicatesUnderConcurrency,
//     TestConcurrentWritersOversubscribedPreempting).
//   - At most A rounds are locked but not fully confirmed at any moment
//     (TestPropertyActiveBlocksBounded, TestConcurrentWritersNoOversubscription).
//   - Confirmation is out of order, and an entry that does not fit its
//     block's tail dummy-fills it and advances (TestFig8OutOfOrderConfirmation,
//     TestFig8cDummyAtTail).
//   - A candidate held by a preempted writer is skipped, never waited on
//     (TestFig9SkipBlockedCandidate); with Options.BlockOnStragglers it is
//     waited on instead, the §3.4 ablation
//     (TestBlockOnStragglersWaitsInsteadOfSkipping).
//   - Two threads of one core advancing at once end on one block; the
//     loser dummy-fills the block it won (TestFig9PublishRace).
//   - Cores that produce more acquire proportionally more blocks
//     (TestBlocksFollowDemand).
//   - The record path allocates nothing and stays within 1.1x of a
//     buffer built with Options.DisableStats (BenchmarkObsOverhead).
//
// Reads (ReadAll, NewCursor, Reader):
//   - Readers never block writers (TestConcurrentReadersDoNotBlockWriters),
//     and a block overwritten while it is copied is dropped, never
//     delivered torn (TestCursorConcurrentPayloadIntegrity).
//   - A cursor delivers each stamp at most once, in stamp order, and
//     counts every stamp it skipped over in missed
//     (TestCursorReportsMissed, TestPollConcurrentStream), agreeing with a
//     snapshot (TestCursorMatchesSnapshot).
//   - A cursor's entries alias its arena until its next Next or Close,
//     and following a steady workload allocates nothing
//     (TestCursorArenaReuseSteadyState, BenchmarkReadPathCursor).
//
// Resize:
//   - A resize never lets a producer write into a reclaimed block, and
//     the buffer stays parseable and duplicate-free through any sequence
//     of resizes interleaved with writes (TestResizeShrinkReclaimsAndPoisons,
//     TestPropertyResizeNeverCorrupts, TestResizeUnderConcurrentWriters).
//   - A shrink waits for readers in the reclaimed epoch
//     (TestResizeShrinkWithConcurrentReader).
//
// Verify reads the quiescence invariants out of the buffer without
// panicking; the chaos suite asserts them under preemption storms,
// stragglers and hot-unplug (internal/faults).
package core
