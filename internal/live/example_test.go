package live_test

import (
	"fmt"

	"btrace/internal/btql"
	"btrace/internal/live"
	"btrace/internal/tracer"
)

// A subscription is a tracer.Cursor over the admitted stream, filtered
// by a tenant and a BTQL predicate; the tail has the payload, so payload
// matches work live.
func ExampleHub_Subscribe() {
	hub := live.NewHub(live.Config{})
	q, err := btql.Parse(`tid == 7 && payload contains "err"`)
	if err != nil {
		panic(err)
	}
	sub, err := hub.Subscribe(live.Filter{Tenant: "app", Pred: q.Predicate()})
	if err != nil {
		panic(err)
	}
	defer sub.Close()

	hub.Publish("app", []tracer.Entry{
		{Stamp: 1, TID: 7, Payload: []byte("ok")},
		{Stamp: 2, TID: 7, Payload: []byte("err: disk full")},
		{Stamp: 3, TID: 8, Payload: []byte("err: other thread")},
	})
	hub.Publish("other-tenant", []tracer.Entry{{Stamp: 4, TID: 7, Payload: []byte("err")}})

	batch := make([]tracer.Entry, 16)
	n, missed, _ := sub.Next(batch) // payloads are lent until the next Next
	for _, e := range batch[:n] {
		fmt.Printf("stamp %d %q\n", e.Stamp, e.Payload)
	}
	st := sub.Stats()
	fmt.Printf("delivered %d + missed %d == matched %d\n", st.Delivered, missed, st.Matched)
	// Output:
	// stamp 2 "err: disk full"
	// delivered 1 + missed 0 == matched 1
}
