package store_test

import (
	"fmt"
	"os"

	"btrace/internal/btql"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// A BTQL predicate selects what a query reads; Query answers with one
// pass over a snapshot of the store, in stamp order, through the
// tracer.Cursor contract.
func ExampleStore_Query() {
	dir, err := os.MkdirTemp("", "store-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Config{MaxBytes: 256 << 20})
	if err != nil {
		panic(err)
	}
	defer st.Close()

	var readout []tracer.Entry
	for s := uint64(1); s <= 8; s++ {
		readout = append(readout, tracer.Entry{Stamp: s, TS: s * 10, Core: uint8(s % 4), TID: 7, Category: 1, Payload: []byte("event")})
	}
	if err := st.AppendEntries(readout); err != nil { // or feed any tracer.Cursor
		panic(err)
	}

	q, err := btql.Parse("stamp >= 3 && core in (0, 1)") // or btql.Between, In, AllOf
	if err != nil {
		panic(err)
	}
	cur := st.Query(store.Query{Pred: q.Predicate()})
	defer cur.Close()
	batch := make([]tracer.Entry, 64)
	for {
		n, missed, err := cur.Next(batch) // the same tracer.Cursor contract
		if err != nil || n == 0 {
			break
		}
		for _, e := range batch[:n] {
			fmt.Printf("stamp %d core %d %q (missed %d)\n", e.Stamp, e.Core, e.Payload, missed)
		}
	}
	// Output:
	// stamp 4 core 0 "event" (missed 0)
	// stamp 5 core 1 "event" (missed 0)
	// stamp 8 core 0 "event" (missed 0)
}
