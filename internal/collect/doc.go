// Package collect implements the daemon-collector deployment model the
// paper's production system uses: tracing runs continuously into the
// in-memory buffer, a collector daemon follows it incrementally, and when
// a suspicious symptom is detected the recent window is dumped for offline
// analysis (§2.1 "a daemon collector dumps the buffer"; §6 deploys
// watchdog daemons with 10-20 s timeouts to catch silent defects). It
// also holds the stream Verifier that the server's admission runs per
// tenant (internal/ingest).
//
// Triggers operate on the events' virtual timestamps, so the package
// works identically under replayed and live time. The collector assumes
// a healthy source and retries nothing.
//
// # Contract
//
// Collector and its triggers:
//   - Step follows the source's cursor into a rolling window bounded by
//     Config, and dumps it when a trigger fires, naming every trigger
//     that fired on that poll (TestCollectorStepAndDump,
//     TestCollectorWindowBound, TestCollectorAllReasonsReported).
//   - A watchdog fires on a category's silence only after it has seen the
//     category, and a late event cannot rewind it or fabricate a silence
//     (TestWatchdogFiresOnSilence, TestWatchdogNeverFiresWithoutBaseline,
//     TestWatchdogOutOfOrderTimestamps).
//   - A rate spike fires on a window's excess rate, and a late event
//     cannot empty the window (TestRateSpike,
//     TestRateSpikeOutOfOrderTimestamps); the loss detector fires on the
//     cursor's missed count (TestLossDetector, TestCollectorLossDump).
//   - Dump.WriteTo writes the wire format (TestDumpWriteTo), and over a
//     live BTrace buffer the collector catches a silent defect
//     (TestCollectorAgainstLiveBuffer; examples/silentdefect).
//
// Verifier.Check:
//   - Entries that break per-thread stamp order or structural soundness
//     are handed back quarantined with one violation each, never dropped
//     or panicked on, and stamps interleaved across threads pass
//     (TestVerifierUnorderedSource).
//   - It works in place: the clean entries share the batch's backing
//     array, and a batch with nothing to quarantine allocates nothing
//     (TestVerifierCheckInPlace).
package collect
