// Package ingest is the server-side admission policy, in one place:
// what happens to a decoded batch between the socket and a durable
// store. Both server paths run it — btrace-serve's single-store
// /ingest handler and the distributor in front of the shard ring — and
// nothing else knows it:
//
//	tenant row → verify → quota → overload gate → live publish → (quarantined re-appended) → one Sink append
//
// Admission is the filtering half; the caller appends what it admits to
// a Sink once, and counts a refused batch instead of retrying it: every
// failure a store's write path produces is sticky, so a second try could
// only meet it again. Tenancy lives here and nowhere else: each tenant
// is one row of a bounded table (tenant.go) holding its verifier, its
// quota and its attribution. The overload gate (internal/overload)
// knows no tenants. The device-side collector (internal/collect) is the
// other end of the contract: it follows a tracer and dumps windows; it
// neither gates nor stores.
//
// The verifier is per row and unordered: concurrent clients interleave,
// so only per-thread stamp order and structural soundness are
// invariants. A check of global order quarantined most of a healthy
// multiplexed stream, and quarantined events bypass the gate, the live
// tail and the counters.
//
// # Contract
//
// Admission.Admit:
//   - A batch without a tenant is the default tenant's, for the quota as
//     for the attribution (TestAdmitDefaultTenant).
//   - The table holds the override tenants' rows, the shared "~other"
//     row and at most MaxTenants more; every later tenant is booked to
//     "~other", and an override tenant keeps its quota however late it
//     arrives (TestTenantTableBounded).
//   - Two tenants whose clients reuse a thread id do not quarantine each
//     other (TestTenantsReuseThreadIDs).
//   - A quarantined entry bypasses quota, gate and live tail, and comes
//     back last, after the admitted ones, as evidence
//     (TestAdmitQuarantineBypassesQuotaAndGate).
//   - Counts hold Seen == Throttled + GateDropped + len(admitted), booked
//     to the request's tenant row and no other
//     (TestTenantAttributionExact, TestTenantAttributionCountsDrops).
//   - publish sees exactly each non-empty admitted slice, under the
//     request's own tenant (TestGateAdmittedHook).
//   - Any number of request goroutines and a gate ticker may share one
//     Admission; its lock is never held across store I/O
//     (TestAdmitConcurrentTenants).
//   - A -tenant-overrides quota is a token bucket on the events' virtual
//     time and isolates tenants (TestParseOverrides,
//     TestTenantLimiterThrottles, TestTenantLimiterIsolatesTenants).
//
// Series: the gate's and the tenant rows' counts live once, in their
// Stats, and /metrics reads them there under the Admission lock
// (TestOverloadSeriesReadGateStats, TestTenantObsSeries).
//
// End to end, over a flaky store: produced == stored + throttled +
// sampled_out + shed + refused, event-exact (TestChaosOverloadStorm, in
// internal/faults).
package ingest
