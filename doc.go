// Package btrace is the public API of BTrace, the block-based mobile
// tracer of "Enabling Efficient Mobile Tracing with BTrace" (ASPLOS 2025).
//
// BTrace partitions one contiguous buffer into equally sized blocks that
// are dynamically assigned to the most demanding cores: it keeps the
// memory efficiency of a global buffer and the low recording latency of
// per-core buffers, retains roughly twice the continuous trace of a
// per-core tracer under skewed mobile workloads, never drops the newest
// events, and supports runtime buffer resizing without synchronizing
// producers. ExampleOpen shows the whole surface: Open, a Writer per
// thread, a Reader's Next loop, Resize, SetFilter and Select.
//
// Each producing thread obtains a Writer naming the (virtual or physical)
// core it runs on; the core id routes the write to the core's current
// block. On platforms with real thread pinning, use the pinned CPU id; in
// portable Go programs any stable shard id in [0, Cores) preserves the
// algorithm's benefits.
//
// The batch Next loop is the steady-state read path: it reuses a decode
// arena across calls, so following a busy buffer allocates nothing per
// poll. Snapshot and Poll remain as convenience wrappers that return
// freshly allocated, caller-owned slices.
//
// Logic stamps come from one global atomic counter, one add per write.
// Config.StampBatch lets a Writer reserve a range per add instead:
// stamps stay unique and per-writer monotonic but are no longer globally
// ordered across writers, which cross-core fragment analysis and Poll's
// missed accounting assume, so the default is 1. WriteProc, the replay
// path, always takes unbatched stamps.
//
// # Contract
//
// Open, Writer, Write, WriteNow:
//   - Open and Writer refuse a configuration or a core out of range
//     (TestOpenValidation, TestWriterValidation).
//   - Stamps are assigned in write order, one global sequence
//     (TestStampsAssignedMonotonically, TestStampBatchDefaultKeepsGlobalOrder);
//     under StampBatch they stay unique and increase per Writer
//     (TestStampBatchUniqueAndMonotonic).
//   - A payload up to MaxEntryPayload is recorded; a larger one is
//     refused (TestMaxEntryPayload); WriteNow stamps the tracer's
//     monotonic clock (TestWriteNow).
//
// Reader:
//   - Next streams what the buffer holds in stamp order into the
//     caller's batch, which is valid until the next Next, and reports the
//     stamps overwritten since the previous call (TestReaderNextBatch,
//     ExampleOpen); Events wraps the same loop as an iterator
//     (TestReaderEventsIterator).
//   - Snapshot and Poll return caller-owned slices of the same readout
//     (TestWriteSnapshotRoundTrip, TestPublicPoll), and Select narrows a
//     snapshot by a Query (TestQueryMatchAndSelect).
//
// SetFilter, Resize, Reset:
//   - A filtered-out event costs one atomic load and is counted in
//     Filtered (TestSetFilterGatesWrites, TestFilterAllows,
//     TestFilterPackRoundTrip).
//   - Resize grows and shrinks the buffer while producers run, never
//     pausing them (TestResizePublicAPI); Reset empties it
//     (TestResetPublicAPI).
//
// Metrics: a tracer's counters appear in Metrics unless
// Config.DisableStats (TestMetricsSnapshot, TestMetricsDisableStats,
// TestBlocksAcquiredPublic).
package btrace
