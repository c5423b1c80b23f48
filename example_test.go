package btrace_test

import (
	"fmt"

	"btrace"
)

// A producing thread records through its Writer; a Reader streams what
// the buffer holds in batches it owns until the next Next. SetFilter
// gates recording at run time, and Select narrows a read.
func ExampleOpen() {
	tr, err := btrace.Open(btrace.Config{
		Cores:          4,       // cores (or stable shard ids) that produce
		BufferBytes:    1 << 20, // live capacity
		MaxBufferBytes: 4 << 20, // address-space reservation for Resize
	})
	if err != nil {
		panic(err)
	}
	w, _ := tr.Writer(1, 42) // one per producing thread: core 1, thread 42
	for i := uint64(1); i <= 3; i++ {
		_ = w.Write(btrace.Event{TS: i * 100, Category: uint8(i), Level: uint8(i), Payload: []byte("frame")})
	}

	r := tr.NewReader() // never blocks producers
	defer r.Close()
	batch := make([]btrace.Event, 512)
	for {
		n, missed, err := r.Next(batch)
		if err != nil || n == 0 {
			break
		}
		for _, e := range batch[:n] { // valid until the next Next: copy to retain
			fmt.Printf("stamp %d ts %d core %d tid %d category %d %q (missed %d)\n",
				e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Payload, missed)
		}
	}

	_ = tr.Resize(4 << 20) // grow for a critical phase...
	_ = tr.Resize(1 << 20) // ...and shrink back; producers never pause

	tr.SetFilter(btrace.Filter{MaxLevel: 1}) // atrace-style runtime gating
	_ = w.Write(btrace.Event{TS: 400, Category: 2, Level: 2, Payload: []byte("dropped")})
	fmt.Println("filtered:", tr.Filtered())

	cats, _ := btrace.CategoryMask(2, 3)
	for _, e := range r.Select(btrace.Query{MinTS: 150, Categories: cats}) {
		fmt.Printf("selected stamp %d ts %d\n", e.Stamp, e.TS)
	}
	// Output:
	// stamp 1 ts 100 core 1 tid 42 category 1 "frame" (missed 0)
	// stamp 2 ts 200 core 1 tid 42 category 2 "frame" (missed 0)
	// stamp 3 ts 300 core 1 tid 42 category 3 "frame" (missed 0)
	// filtered: 1
	// selected stamp 2 ts 200
	// selected stamp 3 ts 300
}
