package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/tracer"
)

// poll reads c up to where the buffer is now — batches until one comes
// back short — the way a polling daemon follows a trace, and returns
// owned copies plus the events lost to overwrite on the way.
func poll(t *testing.T, c *Cursor) (es []tracer.Entry, missed uint64) {
	t.Helper()
	batch := make([]tracer.Entry, 64)
	for {
		n, m, err := c.Next(batch)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		es, missed = tracer.CloneEntries(es, batch[:n]), missed+m
		if n < len(batch) {
			return es, missed
		}
	}
}

func TestPollIncremental(t *testing.T) {
	b := mustNew(t, smallOpt())
	p := &tracer.FixedProc{CoreID: 0}
	cur := b.NewCursor()
	defer cur.Close()

	if es, missed := poll(t, cur); len(es) != 0 || missed != 0 {
		t.Fatalf("empty poll: %d events, %d missed", len(es), missed)
	}

	writeN(t, b, p, 1, 10, 8)
	es, missed := poll(t, cur)
	if missed != 0 {
		t.Fatalf("missed %d", missed)
	}
	if len(es) != 10 || es[0].Stamp != 1 || es[9].Stamp != 10 {
		t.Fatalf("first poll: %d events [%v..]", len(es), es)
	}

	// Nothing new: empty poll.
	if es, _ := poll(t, cur); len(es) != 0 {
		t.Fatalf("idle poll returned %d events", len(es))
	}

	writeN(t, b, p, 11, 5, 8)
	es, missed = poll(t, cur)
	if missed != 0 || len(es) != 5 || es[0].Stamp != 11 {
		t.Fatalf("second poll: %d events missed=%d", len(es), missed)
	}
}

// TestPollConcurrentStream: a cursor following live writers sees every
// stamp at most once (delivered or counted missed), in order.
func TestPollConcurrentStream(t *testing.T) {
	b := mustNew(t, Options{Cores: 4, BlockSize: 256, ActiveBlocks: 16, Ratio: 8})
	var stamp atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &tracer.FixedProc{CoreID: g, TID: g}
			for i := 0; i < 5000; i++ {
				if err := b.Write(p, &tracer.Entry{Stamp: stamp.Add(1), Payload: make([]byte, 8)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()

	cur := b.NewCursor()
	defer cur.Close()
	var last uint64
	var delivered, missed uint64
	follow := func() {
		es, m := poll(t, cur)
		missed += m
		for _, e := range es {
			if e.Stamp <= last {
				t.Fatalf("stamp %d after %d", e.Stamp, last)
			}
			last = e.Stamp
			delivered++
		}
	}
	for {
		select {
		case <-done:
			follow()
			total := stamp.Load()
			if delivered+missed > total {
				t.Fatalf("delivered %d + missed %d > written %d", delivered, missed, total)
			}
			if delivered == 0 {
				t.Fatal("nothing delivered")
			}
			return
		default:
			follow()
		}
	}
}
