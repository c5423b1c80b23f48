package live

import "btrace/internal/btql"

// Filter selects the slice of the admitted stream a subscriber wants.
// The event fields mirror store.Query (category/core/time plus TID) and
// mean what they mean there; tenant scoping is layered on for cluster
// mode. Zero values match everything.
type Filter struct {
	// Tenant scopes the subscription to one tenant's events; ""
	// matches all tenants (the single-operator dashboard case).
	Tenant string
	// MinTS/MaxTS bound the event virtual timestamp (inclusive;
	// MaxTS 0 = unbounded).
	MinTS, MaxTS uint64
	// Cores, Categories and TIDs are membership filters; empty = all.
	Cores, Categories []uint8
	TIDs              []uint32
	// Pred is an optional compiled BTQL predicate, ANDed with the field
	// filters above. The tail has the payload, so payload matches work.
	Pred *btql.Predicate
}

// predicate lowers the filter's event half to the one predicate
// Sub.offer evaluates per event. The tenant is not an event field: a
// batch is published under one, and offer asks once per batch.
func (f *Filter) predicate() *btql.Predicate {
	return f.Pred.Narrow(
		btql.Between(btql.FTime, f.MinTS, f.MaxTS),
		btql.In(btql.FCore, f.Cores),
		btql.In(btql.FCategory, f.Categories),
		btql.In(btql.FTID, f.TIDs))
}
