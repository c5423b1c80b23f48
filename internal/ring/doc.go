// Package ring implements the consistent-hash ring that places tenant
// streams onto store shards. It is the distribution tier's only source
// of placement truth: every ingest and every drain asks the ring who
// owns a stream key, and the answer is a pure function of (topology,
// key) — no coordinator state, no rebalancing journal.
//
// The ring hashes each shard onto many virtual nodes (points on a
// 64-bit circle, FNV-1a with an avalanche finalizer). A key is owned by
// the first RF distinct shards encountered walking clockwise from the
// key's hash: index 0 is the primary, indexes 1..RF-1 the replicas.
//
// A Ring is immutable; Add and Remove return derived rings. That makes
// topology changes race-free by construction: the distributor swaps one
// pointer, and every in-flight lookup keeps the topology it started
// with.
//
// # Contract
//
//   - The same member set gives the same ring whatever the join order,
//     so every ingest node computes identical placement
//     (TestRingDeterministic, TestRingValidation).
//   - With the default 1024 points per shard every shard owns within a
//     few percent of its fair share of the key space (TestRingBalance).
//   - Adding or removing a shard moves only the arcs that shard gains or
//     loses, about 1/N of the keys, and owner sets that did not include a
//     removed shard are unchanged (TestRingAddMovesBoundedKeys,
//     TestRingRemoveMovesOnlyOwnedRanges).
//   - LookupN walks on for n distinct shards (TestRingLookupNExtendsWalk).
//   - Owners, the ingest path's lookup by TID, answers what LookupN
//     answers for the TID's decimal key, bit for bit, so directories
//     written under the string form stay valid, and allocates nothing
//     (TestRingOwnersMatchLookupN, TestRingPlacementGolden,
//     TestRingOwnersDoesNotAllocate).
//
// # The owner memo
//
// A ring remembers Owners' answers, so a thread is walked once per ring
// rather than once per lookup:
//   - It caches the walk itself, the longest prefix a caller has asked
//     for: a repeat at the same or a narrower width walks nothing, a
//     wider one walks once more and is remembered at that width, and
//     every answer is the walk's (TestRingOwnersMemo). Walks counts the
//     walks a ring ran.
//   - It is a fixed table of 4096 one-word entries, filled on first use
//     and overwritten on collision. A million distinct keys allocate
//     nothing, and a displaced key is walked again (TestRingMemoBounded).
//     An entry is read and written whole, so lookups racing each other's
//     fills each get their own key's walk (TestRingOwnersMemoConcurrent).
//     A key past 32 bits, a walk wider than 4 shards or a ring of more
//     than 64 shards always walks.
//   - It dies with its ring: Add and Remove build rings that start
//     empty, so a topology change needs no invalidation
//     (TestRingOwnersMemo; TestIngestRoutesByTheRingOfTheCall in
//     internal/distributor).
package ring
