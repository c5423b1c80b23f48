package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/tracer"
)

func TestCursorMatchesSnapshot(t *testing.T) {
	b := mustNew(t, smallOpt())
	p := &tracer.FixedProc{CoreID: 0}
	// Overrun the buffer so the cursor must handle wrapped positions too.
	writeN(t, b, p, 1, 500, 8)

	r := b.NewReader()
	defer r.Close()
	want, _ := r.Snapshot()

	cur := b.NewCursor()
	defer cur.Close()
	got, err := tracer.Drain(cur, 33)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor %d events, snapshot %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Stamp != want[i].Stamp || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("event %d: cursor %+v != snapshot %+v", i, got[i], want[i])
		}
	}
}

func TestCursorReportsMissed(t *testing.T) {
	b := mustNew(t, smallOpt()) // 8 KiB capacity
	p := &tracer.FixedProc{CoreID: 0}
	cur := b.NewCursor()
	defer cur.Close()
	batch := make([]tracer.Entry, 64)

	writeN(t, b, p, 1, 5, 8)
	if n, missed, _ := cur.Next(batch); n != 5 || missed != 0 {
		t.Fatalf("seed read: n=%d missed=%d", n, missed)
	}
	// Overrun the whole buffer several times between reads.
	writeN(t, b, p, 6, 2000, 8)
	var first uint64
	var missed, delivered uint64
	for {
		n, m, err := cur.Next(batch)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if n == 0 {
			break
		}
		if first == 0 {
			first = batch[0].Stamp
		}
		missed += m
		delivered += uint64(n)
	}
	if missed == 0 {
		t.Fatal("expected missed events after overrun")
	}
	// Continuity: missed + delivered accounts for every written stamp.
	if first != 5+missed+1 {
		t.Fatalf("first delivered %d, missed %d", first, missed)
	}
	if got := 5 + missed + delivered; got != 2005 {
		t.Fatalf("accounted for %d stamps, want 2005", got)
	}
}

// TestCursorArenaReuseSteadyState verifies the load-bearing property of
// the refactor: once warmed up, a cursor following a steady workload does
// not allocate per read.
func TestCursorArenaReuseSteadyState(t *testing.T) {
	b := mustNew(t, smallOpt())
	p := &tracer.FixedProc{CoreID: 0}
	cur := b.NewCursor()
	defer cur.Close()
	batch := make([]tracer.Entry, 256)

	drain := func() {
		for {
			n, _, err := cur.Next(batch)
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if n == 0 {
				return
			}
		}
	}
	// Warm up: fill past capacity twice so the arena reaches its
	// steady-state size.
	writeN(t, b, p, 1, 1000, 8)
	drain()
	writeN(t, b, p, 1001, 1000, 8)
	drain()

	next := uint64(2001)
	allocs := testing.AllocsPerRun(20, func() {
		writeN(t, b, p, next, 100, 8)
		next += 100
		drain()
	})
	// writeN itself allocates the payload slices; the read side must add
	// nothing. Allow the write-side allocations (one per event) plus a
	// small slack, but fail if the read path regresses to O(events).
	if allocs > 110 {
		t.Fatalf("steady-state cursor read allocates %.0f allocs per cycle", allocs)
	}
}

// TestCursorConcurrentPayloadIntegrity races a cursor against live
// writers whose payloads are derived from their stamps: any arena
// mix-up, stale fix-up, or torn speculative copy surfaces as a payload
// that contradicts its own header. Run with -race this also checks the
// copy-then-revalidate discipline survives arena reuse.
func TestCursorConcurrentPayloadIntegrity(t *testing.T) {
	b := mustNew(t, Options{Cores: 4, BlockSize: 256, ActiveBlocks: 16, Ratio: 8})
	var stamp atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &tracer.FixedProc{CoreID: g, TID: g}
			payload := make([]byte, 16)
			for i := 0; i < 5000; i++ {
				s := stamp.Add(1)
				for j := range payload {
					payload[j] = byte(s) ^ byte(j)
				}
				if err := b.Write(p, &tracer.Entry{Stamp: s, Payload: payload}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()

	cur := b.NewCursor()
	defer cur.Close()
	batch := make([]tracer.Entry, 128)
	var last, delivered, missed uint64
	read := func() {
		n, m, err := cur.Next(batch)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		missed += m
		for i := 0; i < n; i++ {
			e := &batch[i]
			if e.Stamp <= last {
				t.Fatalf("stamp %d after %d", e.Stamp, last)
			}
			last = e.Stamp
			if len(e.Payload) != 16 {
				t.Fatalf("stamp %d: payload %d bytes", e.Stamp, len(e.Payload))
			}
			for j, c := range e.Payload {
				if c != byte(e.Stamp)^byte(j) {
					t.Fatalf("stamp %d: payload byte %d corrupted (%#x)", e.Stamp, j, c)
				}
			}
			delivered++
		}
	}
	for {
		select {
		case <-done:
			for prev := delivered - 1; delivered != prev; {
				prev = delivered
				read()
			}
			total := stamp.Load()
			if delivered+missed > total {
				t.Fatalf("delivered %d + missed %d > written %d", delivered, missed, total)
			}
			if delivered == 0 {
				t.Fatal("nothing delivered")
			}
			return
		default:
			read()
		}
	}
}

// BenchmarkReadPathCursor measures steady-state incremental consumption
// through the arena-backed cursor: every iteration writes a fresh burst
// and drains it. benchdiff holds it to 0 allocs/op.
func BenchmarkReadPathCursor(b *testing.B) {
	buf, err := New(Options{Cores: 4, BlockSize: 4096, ActiveBlocks: 64, Ratio: 8})
	if err != nil {
		b.Fatal(err)
	}
	p := &tracer.FixedProc{CoreID: 0}
	payload := make([]byte, 64)
	var stamp uint64
	writeBurst := func(n int) {
		for i := 0; i < n; i++ {
			stamp++
			if err := buf.Write(p, &tracer.Entry{Stamp: stamp, Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	cur := buf.NewCursor()
	b.Cleanup(func() { cur.Close() })
	batch := make([]tracer.Entry, 512)
	read := func() int {
		n := 0
		for {
			k, _, err := cur.Next(batch)
			if err != nil {
				b.Fatal(err)
			}
			if k == 0 {
				return n
			}
			for i := 0; i < k; i++ {
				n += len(batch[i].Payload)
			}
		}
	}
	// Warm up the cursor's arena before measuring.
	writeBurst(2000)
	read()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		writeBurst(500)
		b.StartTimer()
		if read() == 0 {
			b.Fatal("empty read")
		}
	}
}
