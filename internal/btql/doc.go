// Package btql implements the BTrace query language: a small composable
// filter + aggregate language over trace events, in the spirit of Tempo's
// TraceQL scaled down to BTrace's fixed event shape. It is accepted
// everywhere events are selected: /store/query and /live (?q=, single
// node and cluster), btrace-inspect -query, and Go callers.
//
// A query is a boolean filter over the event fields, optionally piped into
// one aggregate:
//
//	category == 2 && time >= 5ms && payload contains "alloc"
//	core != 0 || tid == 4096
//	stamp >= 1000 && stamp < 2000 | count()
//	category == 3 | rate(10ms)
//	time < 1s | topk(5, tid)
//	tid in (4096, 4097) && core in (0, 1)
//
// `field in (v, …)` takes at most 256 literals (an empty list matches
// nothing); payload supports `contains "..."` and `prefix "..."`.
//
// Queries parse to a typed AST (Expr) and compile to a Predicate, the one
// event filter the server has: a tree of kernels (a range test for a wide
// field, a 256-entry truth table for a byte-wide one, a sorted list for a
// wide `in`), evaluated at four fidelities that match the store's pruning
// ladder and the live tail's admit hook:
//
//   - MatchMeta: against file/block summaries (min/max ranges, presence
//     bitmaps, TID blooms) — tri-state, false means provably no match, so a
//     whole file or block can be skipped without touching its bytes.
//   - Select: against a block held by column — one pass per column a leaf
//     names, into a tri-state row selection (columns.go): `may` (rows not
//     proven to miss) ⊇ `yes` (rows proven to match), so `!` only flips
//     proofs and a payload leaf is settled later, row by row.
//   - MatchHeader: against a decoded event header (no payload) — exact for
//     payload-free predicates, conservative otherwise.
//   - Match: against a full tracer.Entry — always exact.
//
// # Contract
//
// Parse, ParseParams, Compile:
//   - The parser never panics on arbitrary input
//     (FuzzBTQLParse, TestParseErrors), and a query's String parses back
//     to the same query (TestQueryStringRoundTrip).
//   - ParseParams turns /store/query's and /live's parameters (q,
//     min_stamp/max_stamp, min_ts/max_ts, cores, categories, tids) into
//     one Query, the field parameters ANDed in front of q's filter, so a
//     parameter cannot mean one thing on one endpoint and be ignored on
//     the other (TestParseParams, TestParamsMatch).
//   - The parameters' lowering matches the field-by-field evaluator /live
//     had before it, over random parameter combinations
//     (TestParamsLoweringMatchesMatcher).
//   - Between, In and AllOf own the field form's conventions: a zero
//     bound is no bound, an empty list no restriction, nil matches
//     everything (TestConstructors).
//
// Predicate:
//   - MatchMeta never prunes a summary that holds a match
//     (TestMetaNeverPrunesMatches, TestMatchMeta, TestBoundsAndMasks).
//   - Select selects exactly the rows MatchHeader accepts
//     (TestSelectMatchesHeaderEvaluation; in the store,
//     TestColumnKernelsMatchRowOracle and FuzzColumnKernels).
//   - Match is exact, payload leaves included (TestMatchEntry).
//   - Residual answers with the filter's text less its top-level stamp
//     and time comparisons only when a segment's hulls imply all of them,
//     and "straddled" otherwise; that text is what the store keys partial
//     aggregates and filtered sets by (TestResidual).
//
// Aggregator:
//   - count(), rate(window) and topk(k, field) merge associatively, and
//     folding a column selection equals folding its rows one by one
//     (TestAggregators, TestObserveColumnsMatchesObserve).
package btql
