// Package distributor is the multi-tenant front end of the distributed
// ingest tier: it resolves each wire batch to a tenant and a set of
// stream keys, applies per-tenant quotas and the shared overload gate
// once — before replication, so every replica sees the identical
// post-gate stream — and fans the admitted events out to the RF shard
// replicas the consistent-hash ring names for each, one delivery per
// destination shard, with hedging on replica failure and quorum-ack
// semantics: an event is acknowledged only when a majority of its
// replica set durably applied it, which is what makes killing any
// single shard lose nothing that was acknowledged.
//
// Placement is deliberately tenant-agnostic: the stream key is the TID
// alone, because durable events do not carry a tenant and drain must be
// able to re-derive every key from the store. Tenancy drives quotas and
// accounting (internal/ingest's tenant table), never placement.
//
// A batch is framed once into a store.Batch and each shard's delivery
// is one AppendBatch of its rows, run in turn on the caller's
// goroutine: per-delivery goroutines and per-shard workers were both
// measured and lost (CHANGES.md). A delivery is tried once; the hedge
// is the recovery, so a refused delivery leaves nothing behind to
// surface later.
//
// # Contract
//
// Ingest:
//   - An event is acked iff R/2+1 of its owners applied it; events short
//     of quorum are hedged to their next ring candidates for at most
//     HedgeLimit rounds, and what is still short is refused
//     (TestDistributorReplicatesToQuorum,
//     TestDistributorHedgesAroundDeadReplica,
//     TestDistributorRefusesWithoutQuorum).
//   - Every event offered is accounted once: seen == acked + throttled +
//     gate-dropped + refused (TestDistributorResultIdentity).
//   - At RF=2 killing any one shard loses no acked event
//     (TestChaosClusterShardKill, in internal/faults;
//     TestKillDuringInflightDelivery, TestFanoutPerShardUnderFaults).
//   - Tenant quotas and the gate run before replication, so an over-quota
//     tenant burns no replica bandwidth (TestDistributorTenantOverrides),
//     and the front door's verifier checks per-thread order only
//     (TestFrontDoorVerifierIsPerThread).
//   - Each event is encoded and checksummed once: every replica's
//     segment files are byte-identical to a store fed the same rows
//     (TestSharedFramesByteIdentical), and over warmed shards Ingest
//     allocates nothing (TestIngestAllocatesNothing; BenchmarkServeIngest
//     under benchdiff's -zero-allocs).
//   - Each event is routed by the ring its Ingest holds, through that
//     ring's owner memo (internal/ring), asked for the RF owners and
//     HedgeLimit hedges: every row lands on exactly the owners the ring
//     walks, across joins, drains and removals
//     (TestIngestRoutesByTheRingOfTheCall), and a batch over threads the
//     ring has seen runs no ring walk, nor does a pushed-down aggregate's
//     ownership, which asks the same memo (TestSteadyBatchWalksNothing).
//     The memo's memory is the ring's fixed table, whatever the TIDs a
//     client sends (TestRingMemoBounded).
//
// Query and MergeCursor:
//   - The merged view equals the shards' own reads, deduplicated and
//     sorted (TestDistributorQueryParallelMatchesSequential,
//     TestLocalShardQueryStampOrdered).
//   - Consecutive equal stamps collapse, across replicas and within one
//     shard (TestMergeDeduplicatesReplicas,
//     TestMergeCollapsesSameSourceDuplicates).
//   - The merge holds one 512-entry batch per source, and a batch's
//     payloads stay valid until the next Next and no longer
//     (TestMergeStreamsInBoundedMemory).
//   - A limit counts distinct stamps of the merged stream and keeps the
//     smallest (TestMergeHonorsLimit, TestMergeLimitCountsDistinctStamps).
//   - missed and a source's error reach the caller, the error after the
//     prefix the source could read, and Close closes every source
//     (TestMergePropagatesMissed, TestMergeSurfacesSourceError,
//     TestMergeCloseClosesSources).
//   - Under the length-only projection CSV and Chrome bodies equal a full
//     read's (TestLengthOnlyMatchesFull).
//
// Aggregate:
//   - Every shard's snapshot is taken at one cut, between two deliveries,
//     so a count beside a writer verifies (TestDistributorAggregateWhileAppending).
//   - The rows of thread t are counted by Owners(t)[0] only; the shards'
//     partials are added up only if each counting shard's fingerprint
//     {rows, Σ mix64(stamp)} equals the sum the other owners hold for it
//     and no shard holds a row it does not own, and otherwise the merged
//     fold answers; both answer the same after any sequence of refused
//     deliveries, kills, removals, drains, joins, freezes and restarts at
//     RF 2 and 3 (TestAggregatePushdownMatchesMerged,
//     TestAggregateFallsBackWhenFirstOwnerIsBehind,
//     TestAggregateFallsBackOnACopyNobodyOwns,
//     TestDistributorAggregateDeduplicatesReplicas,
//     TestAggregateMergedReadsLengths).
//   - A stamp every replica holds twice is counted per copy, as a single
//     store counts it (TestAggregateCountsACopyOnEveryReplica).
//
// AddShard, DrainShard, RemoveShard:
//   - A join or a drain is one move: each row goes to the owners its
//     thread gains, once each, and to no other shard
//     (TestMoveCopiesExactlyWhatMoves, TestDrainShardMovesOnlyMovedRanges).
//   - Placement implies possession when the call returns, under
//     concurrent acking writers (TestRebalanceUnderWritesKeepsEveryOwnerWhole,
//     TestAddShardRoutesNewWrites), and an add, drain, remove sequence
//     loses no acked event (TestAddDrainRemoveLosesNothing).
//   - RemoveShard drops a shard cold and leans on its replicas; a killed
//     shard refuses ingest and queries with ErrShardDown
//     (TestKilledShardRefuses), and an unknown shard name is refused
//     (TestRemoveShardErrors).
package distributor
