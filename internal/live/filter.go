package live

import "btrace/internal/btql"

// Filter selects the slice of the admitted stream a subscriber wants:
// a tenant, and a BTQL predicate over the events (btql.ParseParams
// lowers /live's parameters to one). Zero values match everything.
type Filter struct {
	// Tenant scopes the subscription to one tenant's events; ""
	// matches all tenants (the single-operator dashboard case).
	Tenant string
	// Pred is the compiled BTQL filter; nil matches everything. The
	// tail has the payload, so payload matches work.
	Pred *btql.Predicate
	// TIDs, if not empty, is `tid in (TIDs)` ANDed in front of Pred. It
	// is a second spelling kept for the end-to-end benchmark's layer
	// harness, which subscribes with it; anything else says it in Pred.
	TIDs []uint32
}

// predicate lowers the filter's event half to the one predicate
// Sub.offer evaluates per event. The tenant is not an event field: a
// batch is published under one, and offer asks once per batch.
func (f *Filter) predicate() *btql.Predicate {
	return f.Pred.Narrow(btql.In(btql.FTID, f.TIDs))
}
