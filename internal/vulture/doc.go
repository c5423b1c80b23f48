// Package vulture continuously verifies a running btrace-serve: it
// writes known stamped traces through POST /ingest and reads every
// acked stamp back through each query surface — the /live tail, the
// one-worker and parallel /store/query reads, the BTQL filter and
// count() pipelines, and (once segments have aged into it) the cold
// columnar tier — alerting on loss, duplication or mis-ordering. The
// name follows the SRE tradition of "vulture" processes that circle a
// storage system probing for silently dropped writes (Tempo's
// tempo-vulture): an ack is a durability promise, and this package
// exists to catch the promise being broken, continuously, in CI soak
// jobs and against live deployments alike.
//
// Writers post batches of contiguous, globally allocated stamps, one
// TID per writer, each payload echoing its stamp and each TS the
// virtual time since the start, so that -cold-after aging advances with
// the run. Every fully acked range is then demanded back from each
// surface: /live (per-TID strictly increasing stamps), ?workers=0 and
// ?workers=N, the BTQL spelling of the same read (every other batch as
// `tid in (T, U)` with U a thread no writer uses, so `in` is held to
// the ack contract wherever `==` is), its count(), and the same range
// again past -cold-age, so that the read hits the frozen tier.
//
// # Contract
//
//   - A range is verified against exactly its acked stamps: a lost,
//     duplicated or out-of-order stamp is a typed violation on its
//     surface, and stamps outside the range are ignored
//     (TestVerifyRangeClean, TestVerifyRangeLossDupMisorder,
//     TestVerifyRangeIgnoresForeignStamps, TestObserveLiveOrdering).
//   - Partially acked or refused batches burn their stamps, which are
//     never demanded back; 429 and 503 are retried, not counted as loss.
//   - A clean server passes, and a server that loses or duplicates an
//     acked stamp fails Run (TestRunnerCleanServer, TestRunnerDetectsLoss,
//     TestRunnerDetectsDuplication, TestRunnerUnreachableServer).
//   - The report renders in Prometheus text (TestWritePrometheus).
//   - With -strict-live, delivered + missed == admitted on /live, which
//     holds only with sampling and shedding off.
//
// `make vulture-soak` runs it against a real single-store btrace-serve,
// then against a real 4-shard RF=2 one while a shard drains out of the
// ring; TestChaosVultureContinuous
// (internal/faults) is the in-process twin over flaky replica stores.
package vulture
