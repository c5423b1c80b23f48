// Command btrace-serve is the trace server. It runs over one durable
// segment store, or with -shards over a replicated ring of them under
// the -store root, which it requires. It takes wire records on POST
// /ingest through the shared admission path (verify, tenant quotas, the
// overload gate), answers /store/query — BTQL and the field parameters,
// one predicate — over the tiered store, streams admitted events on
// /live (SSE), runs the background compactor and freezer, and exposes
// /ring, /metrics, /readyz and /debug/pprof. The paper's tables and
// figures, replays and readout exports are the harness's own commands:
// btrace-bench, btrace-replay and btrace-inspect.
//
//	btrace-serve -addr localhost:8321 -store ./trace-store
//
// On a single store, POST /ingest runs on the request's goroutine: the
// handler decodes the body into a pooled batch (tracer.DecodeEvents,
// payloads aliasing the body), evaluates the gate on the store's
// pressure, admits the batch (ingest.Admission), writes the 202, appends
// what it admitted once and releases the batch. There is no queue and no
// drain goroutine. In cluster mode the handler calls Distributor.Ingest
// and releases the batch when it returns.
//
// # Contract
//
// POST /ingest, single store:
//   - A 202 means decoded, well-formed and admitted, not yet applied. It
//     is flushed whole, with its Content-Length, before the append; the
//     append runs before the handler returns, and a refused one is
//     counted in btrace_ingest_dropped_events_total, event-exact
//     (TestIngestAckPrecedesAppend, TestIngestDrainFailurePath).
//   - Go reads a connection's next request only after the handler
//     returns, so a connection's next batch is admitted after its
//     previous one is appended, and a batch posted after another's 202
//     is verified after it (TestIngestAckPrecedesAppend). On shutdown
//     http.Server.Shutdown waits for the handlers, so every batch
//     answered 202 is applied or counted before the store closes.
//   - Memory holds one batch per request in flight, as on a cluster; a
//     body over the cap is refused, from its Content-Length when it has
//     one (TestIngestBodyLimits, TestIngestRejectsBadPayloads).
//   - Nothing is copied between the socket and the store's frame
//     encoding, and every payload reads back byte-identical from
//     /store/query and /live while released batches are poisoned
//     (TestIngestOwnershipConcurrentTenants); a batch grown past 1 MiB is
//     not pooled (TestBatchPoolBound); the path allocates nothing
//     (BenchmarkServeIngest under benchdiff's -zero-allocs).
//   - /readyz answers 503 while the store's write path has failed or the
//     gate sheds everything (TestReadyzReportsOverloadAndStoreFailure).
//   - Tenant quotas hold on a single store as on a cluster
//     (TestIngestTenantOverrideOverHTTP), interleaved clients are not
//     quarantined (TestLiveInterleavedClients), and the ack body is the
//     JSON encoding/json writes (TestIngestAckBodiesMatchEncodingJSON).
//
// Cluster mode (-shards, -replication):
//   - A 202 means applied on a quorum of every event's owners, and what
//     was acked reads back through the merged view
//     (TestClusterIngestQueryEndToEnd, TestClusterTenantOverrideOverHTTP).
//   - POST /ring?action=add|drain|remove reshapes the ring; add and drain
//     make their copy before answering, so placement implies possession
//     (TestClusterRingTopology); without -shards the cluster endpoints
//     say so (TestClusterModeOffSurface).
//
// GET /store/query:
//   - BTQL (?q=) and the field parameters are one predicate
//     (TestStoreQueryEndpoint, TestStoreQueryBTQL), and a query with an
//     aggregate stage answers one JSON document (TestClusterBTQLAggregate,
//     TestStoreQueryAggregatePartials).
//   - The body is byte-identical at any ?workers= (TestStoreQueryWorkersParam).
//   - The format sets the read's projection: csv and chrome read payload
//     lengths only (TestStoreQueryProjection).
//   - A read that fails mid-export aborts the response instead of ending
//     it as if complete (TestStoreQueryAbortsFailedExport).
//   - A one-row CSV query allocates its batch and a few KB, no 64 KiB
//     writer (TestStoreQueryOneRowAllocs).
//
// GET /live:
//   - It takes /store/query's parameters through the same parser; an
//     aggregate stage is a 400, a subscriber over the cap a 503, and
//     X-Btrace-Tenant scopes the stream (TestLiveRequestValidation,
//     TestLiveTailBTQL, TestLiveTenantScoping).
//   - The 200 is flushed only after the subscription exists, so the
//     response arriving is the subscription barrier, and each drain of
//     the ring is one Write and one Flush (TestLiveTailEndToEnd).
//
// /metrics, /store/segments, /debug/pprof: every series the server
// emits is listed and pinned (TestMetricsSeriesInventory,
// TestMetricsEndToEnd, TestMetricsIngestSeries, TestStoreSegmentsEndpoint,
// TestPprofEndpoints); flags are checked before anything opens
// (TestCheckFlags).
//
// On SIGINT or SIGTERM in-flight requests get up to 10 s to finish, and
// new connections are refused.
package main
