// Package live is the live-tail subsystem: a Hub fans admitted ingest
// events out to per-subscriber cursors with bounded ring buffers, so
// streaming consumers (the SSE GET /live endpoint on btrace-serve)
// observe the trace as it happens instead of querying sealed segments
// after the fact — the online-consumer scenario WOOTdroid argues
// whole-system tracing must serve (see PAPERS.md).
//
// The hub hangs off the end of admission (ingest.NewAdmission's publish
// argument): both the single-store ingest pipeline and the cluster
// distributor admit every batch through an ingest.Admission, so one
// hook covers both pipelines, and live subscribers see exactly the
// events the gate admitted — never events that were shed, sampled out,
// throttled or quarantined.
//
// Delivery is lossy by design, and the loss is accounted, never
// silent: each subscriber owns a ring bounded in events and in payload
// bytes; when either bound is hit the oldest undelivered event is
// overwritten and the subscriber's missed count increments, reusing the
// tracer.Cursor missed semantics. Ingest never blocks on a slow
// subscriber — the cost of falling behind lands on the subscriber that
// fell behind.
//
// From the admit hook to the socket nothing is allocated per event; the
// price is an ownership rule:
//
//	bytes                         owner                may be touched by
//	the published batch           the publisher        Publish, until it returns
//	a ring slot and its array     the Sub              Publish, under the sub's lock: it copies
//	                                                   the event into the slot's own array
//	a payload handed out by Next  the Sub, lent        the caller, until its next Next: Next
//	                                                   swaps arrays with the ring, never copies
//
// A Sub only trades arrays it allocated itself, so nothing a caller
// left in its batch is adopted into a ring.
//
// # Contract
//
// Hub.Publish:
//   - It never blocks on a subscriber, and with no subscribers it is an
//     atomic load (BenchmarkLiveFanout, 0 allocs/op under benchdiff).
//   - What a subscriber keeps is copied before it returns, so the caller
//     may reuse the batch at once (TestHubCopiesPayloads), from any
//     number of goroutines (TestHubConcurrentPublish).
//
// Hub.Subscribe and Sub.Next:
//   - A subscriber sees the events of its tenant (all tenants for "")
//     that its BTQL predicate matches, payload matches included
//     (TestHubFanoutDeliversMatching, TestHubTenantScoping,
//     TestFilterMatch).
//   - Once drained, delivered + missed == matched, exactly
//     (TestHubMissedAccounting).
//   - A subscriber that accumulates Config.EvictAfterMissed missed events
//     is evicted: its buffer converts to missed and Next ends with
//     ErrEvicted (TestHubSlowSubscriberEvicted); beyond
//     Config.MaxSubscribers, Subscribe fails with ErrSubscribers
//     (TestHubSubscriberCap).
//   - A ring over its payload budget overwrites oldest as one out of
//     slots does, so a subscriber holds at most the budget plus one event
//     of payload and 4 KiB of idle capacity a slot (TestRingByteBudget).
//   - Payloads Next hands out stay valid until the next Next, through
//     wrap-around and overwrite (TestNextLendsPayloadsUntilNextCall), and
//     Close ends the subscription (TestSubCloseSemantics).
//   - Publish, drain and framing allocate nothing
//     (TestLivePathAllocs, BenchmarkLiveSSE).
//
// AppendFrame, AppendMissed, AppendEvicted, StreamReader:
//   - A frame is byte-identical to json.Marshal of Frame
//     (TestAppendFrameMatchesReference, FuzzFrameRoundTrip), and the
//     StreamReader reads back what the writers wrote and never panics on
//     arbitrary bytes (TestSSERoundTrip, FuzzStreamReader).
//   - An accepted /live parameter set compiles, subscribes and evaluates
//     without panicking (FuzzParseQuery).
package live
