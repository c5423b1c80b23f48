// Package tracer defines the abstractions shared by every tracer in this
// repository: the wire format of trace entries, the Tracer interface that
// BTrace and all baseline tracers implement, the Cursor every consumer
// reads through, the Proc execution-context abstraction that lets a
// simulated scheduler inject preemption at the points where real mobile
// systems preempt trace writers, and a registry used by the benchmark
// harness.
//
// The wire format is deliberately simple and 8-byte aligned so that every
// tracer (global-buffer, per-core, per-thread and block-based) can share
// one encoder/decoder and the analysis pipeline can compare readouts
// byte-for-byte. entry.go is the one place that knows an event record's
// header: every reader of it — the tracers' readouts, the /ingest
// decode, the store's frame walk and header sets — goes through
// PeekEvent, DecodeEvent and the word-3 pack and unpack there.
//
// # Contract
//
// Cursor (the consume path of every layer: the core reader, the four
// baselines, the collector, the exporters, the store, the live tail):
//   - Next fills the caller's batch with the next events in stamp order
//     and reports how many stamps were overwritten since the previous
//     call; n == 0 with a nil error means no new events yet.
//   - Entries, payloads included, are valid until the next Next or Close
//     on the same cursor; a consumer that keeps them copies them
//     (CloneEntries packs a batch's payloads into one allocation).
//   - Every tracer's cursor agrees with its ReadAll, under the shared
//     conformance suite (tracertest.Run; TestConformance in each
//     baseline, TestStoreTracerConformance for the store).
//
// EncodeEvent, DecodeEvent, DecodeRecord, DecodeAll, DecodeEvents:
//   - An event round-trips through encode and decode
//     (TestEncodeDecodeEventRoundTrip, TestEncodeDecodeQuick).
//   - On arbitrary bytes the decoders never panic, never over-read, and
//     flag truncation (FuzzDecodeRecord, FuzzDecodeAll).
//   - DecodeEvents returns exactly the events DecodeAll does, structural
//     records skipped, payloads aliasing the input, and into a slice
//     with room allocates nothing (FuzzDecodeEvents,
//     TestDecodeEventsNoAlloc, BenchmarkDecodeEvents).
//   - DecodeEvent accepts a record padded past its canonical size, as the
//     wire allows; the store's frame walk refuses one
//     (TestEventRecordDecoders, in internal/store).
//   - LengthOnly(n) is n bytes of one shared, never-written array: right
//     for len and WireSize, unspecified in content.
package tracer
