// Package overload is the ingest path's adaptive overload-control
// subsystem: production tracing must degrade gracefully under load, not
// wedge the traced system (the XTrace non-invasive production framing)
// — and every event it gives up must stay attributable (the
// event-cap/truncation-counter idiom). A Gate sits inside
// ingest.Admission, between the verifier and the append, and makes one
// decision per event, in a fixed order:
//
//  1. tiered load shedding — under sustained pressure the controller
//     escalates through three tiers (drop payload bytes → drop
//     low-priority events, detail level 3 → drop everything, the tier
//     /readyz reports as not ready) and steps back down only after a
//     hysteresis cool-down, so the system never flaps across the engage
//     boundary;
//  2. head sampling — per-category keep rates fall smoothly from 1.0
//     toward Config.MinSampleRate as smoothed pressure rises, using a
//     deterministic credit accumulator;
//  3. token buckets — a hard per-category rate limit with configurable
//     burst, refilled on the events' own virtual timestamps so replayed
//     and live time behave identically. Bucket is that bucket, and the
//     one internal/ingest's tenant quotas draw from too.
//
// The controller's input is the store's write path (StorePressure): on
// a single store its EWMA append and fsync latencies and its sticky
// failure bit, read by the /ingest handler once per batch and on a
// 250 ms ticker; on a cluster the worst of those across the shards, on
// the same ticker (Distributor.EvaluateGate). Releases are deliberately slower than
// engagements: shedding too little wedges the system, shedding too long
// only costs detail.
//
// A Gate is single-goroutine by contract and keeps its counts in a
// plain Stats: ingest.Admission holds a lock around it and emits its
// btrace_overload_* series under that same lock.
//
// # Contract
//
// Evaluate:
//   - The score is the worst of the store's signals clamped to [0, 1],
//     latencies normalised against fixed budgets (1 ms per appended
//     event, 20 ms per fsync), and a failed write path scores 1
//     (TestPressureScore).
//   - A tier engages only after EngageAfter consecutive evaluations at or
//     above EngagePressure and releases only after CooldownEvals at or
//     below DisengagePressure; a score inside the band resets both
//     streaks, so an oscillation straddling it moves the tier zero times
//     (TestHysteresisNoFlap).
//
// Filter:
//   - An unpressured gate with no rate limits passes everything and
//     still counts (TestNoPressurePassesEverything).
//   - The tiers shed in order: payload bytes, then low-priority events,
//     then everything (TestShedTiersInOrder).
//   - Sampling at rate r admits exactly ⌈r·n⌉ of any n events, evenly
//     spread (TestSamplingCreditExactness); rates fall as pressure rises,
//     low-priority events twice as fast (TestSampleRateScalesWithPressure).
//   - A category bucket admits its burst, throttles the excess and
//     refills on virtual time (TestCategoryTokenBucket).
//   - After every Filter, Seen == Admitted + SampledOut +
//     ThrottledCategory + ShedCategory + ShedStream, payload-stripped
//     events counting as admitted (TestAccountingIdentityUnderChurn).
//   - Under a storm the gate costs at most 2x its unloaded cost per event
//     (BenchmarkRecordUnderOverload, a benchdiff ratio rule), and a batch
//     at the full-drop tier admits no more than a calm one
//     (TestChaosOverloadStorm, in internal/faults).
package overload
