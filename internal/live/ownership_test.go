package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"btrace/internal/tracer"
)

// stampPayload is the payload every ownership test gives the event with
// this stamp, so a consumer can check a payload from the entry alone.
func stampPayload(dst []byte, stamp uint64) []byte {
	n := 8 + int(stamp%120)
	for len(dst) < n {
		dst = binary.LittleEndian.AppendUint64(dst, stamp)
	}
	return dst[:n]
}

func checkStampPayloads(t *testing.T, when string, es []tracer.Entry) {
	t.Helper()
	var want []byte
	for i := range es {
		want = stampPayload(want[:0], es[i].Stamp)
		if !bytes.Equal(es[i].Payload, want) {
			t.Errorf("%s: stamp %d carries payload %x, want %x", when, es[i].Stamp, es[i].Payload, want)
			return
		}
	}
}

// poisonPublisher publishes stamps [lo, lo+n) in batches of 16 from one
// reused batch, scribbling over every entry and payload byte as soon as
// Publish returns — what cmd/btrace-serve's pooled ingest batch does to
// the memory Publish was handed.
func poisonPublisher(h *Hub, lo uint64, n int) {
	batch := make([]tracer.Entry, 16)
	bufs := make([][]byte, len(batch))
	for done := 0; done < n; done += len(batch) {
		for i := range batch {
			stamp := lo + uint64(done+i)
			bufs[i] = stampPayload(bufs[i][:0], stamp)
			batch[i] = tracer.Entry{Stamp: stamp, TS: stamp, TID: 1, Payload: bufs[i]}
		}
		h.Publish("", batch)
		for i := range batch {
			for j := range bufs[i] {
				bufs[i][j] = 0xDB
			}
			batch[i] = tracer.Entry{Stamp: ^uint64(0)}
		}
	}
}

// TestNextLendsPayloadsUntilNextCall pins the ring's ownership rule:
// what Next hands out stays intact until the following Next, however
// much is published in between — through wrap-around, through
// overwrite-oldest landing on the very slots just read — and the
// publisher may reuse its batch the moment Publish returns.
func TestNextLendsPayloadsUntilNextCall(t *testing.T) {
	h := NewHub(Config{BufferEvents: 64, EvictAfterMissed: 1 << 40})
	sub, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Sequential, so every overwrite is certain: each round publishes
	// three rings' worth over the entries the consumer still holds.
	batch := make([]tracer.Entry, 24)
	var held []tracer.Entry
	next := uint64(1)
	for round := 0; round < 20; round++ {
		poisonPublisher(h, next, 3*64)
		next += 3 * 64
		checkStampPayloads(t, "held across a publish", held)
		n, _, err := sub.Next(batch[:1+round%len(batch)])
		if err != nil {
			t.Fatal(err)
		}
		held = batch[:n]
		checkStampPayloads(t, "fresh from Next", held)
	}
	if st := sub.Stats(); st.Missed == 0 {
		t.Fatalf("nothing was overwritten: %+v", st)
	}

	// Concurrent, for the race detector: the same checks while the
	// publisher runs on its own goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poisonPublisher(h, next, 200*16)
	}()
	published := make(chan struct{})
	go func() { wg.Wait(); close(published) }()
	for final := false; ; {
		checkStampPayloads(t, "held while publishing", held)
		n, m, err := sub.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		held = batch[:n]
		checkStampPayloads(t, "fresh while publishing", held)
		if n == 0 && m == 0 {
			if final {
				break
			}
			select {
			case <-sub.Notify():
			case <-published:
				final = true // one last exhaustive drain
			}
		}
	}
	if st := sub.Stats(); st.Delivered+st.Missed != st.Matched || st.Buffered != 0 {
		t.Fatalf("identity broken: %+v", st)
	}
}

// TestRingByteBudget: a ring is bounded in payload bytes as well as in
// events, so a subscriber that stops reading pins a few MiB whatever
// the payload size, and a slot does not keep a large array once its
// event is gone. Loss to the byte bound is missed like any other.
func TestRingByteBudget(t *testing.T) {
	cases := []struct {
		name         string
		bufferEvents int
		payload      int
		publish      int
		wantBuffered int // events the ring holds once everything is published
	}{
		{"default ring, max payloads", 0, tracer.MaxPayload, 200, 4096 << 10 / tracer.MaxPayload},
		{"default ring, 1 KiB payloads fill every slot", 0, 1 << 10, 5000, 4096},
		{"small payloads are bounded by slots", 16, 8, 100, 16},
		{"one payload over the whole budget is still kept", 4, 8 << 10, 3, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHub(Config{BufferEvents: c.bufferEvents, EvictAfterMissed: 1 << 40})
			sub, err := h.Subscribe(Filter{})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			payload := bytes.Repeat([]byte{0x5A}, c.payload)
			for i := 0; i < c.publish; i++ {
				h.Publish("", []tracer.Entry{{Stamp: uint64(i + 1), Payload: payload}})
				if sub.bytes > sub.budget && sub.cnt > 1 {
					t.Fatalf("after %d publishes %d events buffer %d payload bytes, budget %d", i+1, sub.cnt, sub.bytes, sub.budget)
				}
				// What the slots really hold: arrays above the retention
				// cap belong to buffered events only, so they sum to the
				// budget plus one event (and the allocator's rounding).
				if large := largeArrayBytes(sub); large > (sub.budget+c.payload)*9/8 {
					t.Fatalf("after %d publishes the slots hold %d bytes of large arrays, budget %d", i+1, large, sub.budget)
				}
			}
			if got := sub.Stats().Buffered; got != c.wantBuffered {
				t.Fatalf("ring holds %d events, want %d", got, c.wantBuffered)
			}
			got, missed := drain(t, sub)
			st := sub.Stats()
			if len(got) != c.wantBuffered || st.Delivered+st.Missed != st.Matched ||
				st.Matched != uint64(c.publish) || missed != st.Missed {
				t.Fatalf("delivered %d, reported missed %d, stats %+v", len(got), missed, st)
			}
			for i, e := range got {
				if want := uint64(c.publish - c.wantBuffered + i + 1); e.Stamp != want || !bytes.Equal(e.Payload, payload) {
					t.Fatalf("survivor %d: stamp %d with %d payload bytes, want stamp %d with %d", i, e.Stamp, len(e.Payload), want, len(payload))
				}
			}
			// Drained: every array above the retention cap is gone from
			// the ring, and from what Next lent once the loan is over.
			sub.Next(make([]tracer.Entry, 7))
			for i := range sub.ring {
				if cap(sub.ring[i].Payload) > maxRetainedPayload {
					t.Fatalf("drained slot %d keeps a %d-byte array", i, cap(sub.ring[i].Payload))
				}
			}
		})
	}
}

// largeArrayBytes sums the capacity of the slots' payload arrays above
// the retention cap, buffered or idle.
func largeArrayBytes(s *Sub) int {
	total := 0
	for i := range s.ring {
		if c := cap(s.ring[i].Payload); c > maxRetainedPayload {
			total += c
		}
	}
	return total
}

// TestLivePathAllocs: publish, drain and framing allocate nothing per
// event or per call once the ring's slots have their arrays — at any
// fan-out, whether the subscribers keep up (slots and the caller's
// batch swap arrays) or not (overwrite-oldest reuses the slot's).
func TestLivePathAllocs(t *testing.T) {
	const ringEvents, batchEvents = 1024, 256
	es := make([]tracer.Entry, batchEvents)
	payload := bytes.Repeat([]byte{0x5A}, 96) // one size: a slot regrows its array for a larger payload than it has held
	for i := range es {
		stamp := uint64(i + 1)
		es[i] = tracer.Entry{Stamp: stamp, TS: stamp, TID: uint32(i % 16), Category: 1, Payload: payload}
	}
	for _, subs := range []int{1, 16} {
		for _, drained := range []bool{true, false} {
			t.Run(fmt.Sprintf("subs=%d/drained=%v", subs, drained), func(t *testing.T) {
				h := NewHub(Config{BufferEvents: ringEvents, EvictAfterMissed: 1 << 40})
				all := make([]*Sub, subs)
				for i := range all {
					sub, err := h.Subscribe(Filter{TIDs: []uint32{0, 2, 4, 6, 8, 10, 12, 14, 15}})
					if err != nil {
						t.Fatal(err)
					}
					defer sub.Close()
					all[i] = sub
				}
				batch := make([]tracer.Entry, batchEvents)
				round := func() {
					h.Publish("", es)
					if !drained {
						return
					}
					for _, sub := range all {
						if _, _, err := sub.Next(batch); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Every slot gets its array on first use, and a slot read
				// before the caller's batch had arrays to trade got none
				// back: three laps of the ring settle both.
				for i := 0; i < 3*ringEvents/batchEvents; i++ {
					round()
				}
				if got := testing.AllocsPerRun(50, round); got != 0 {
					t.Fatalf("%.1f allocs per publish+drain round, want 0", got)
				}
			})
		}
	}

	t.Run("AppendFrame", func(t *testing.T) {
		buf := make([]byte, 0, 64<<10)
		if got := testing.AllocsPerRun(50, func() {
			buf = buf[:0]
			for i := range es {
				buf = AppendFrame(buf, &es[i])
			}
			buf = AppendMissed(buf, 7)
		}); got != 0 {
			t.Fatalf("%.1f allocs per %d frames, want 0", got, len(es))
		}
	})
}

// TestAppendFrameMatchesReference runs the fuzz target's differential
// check over a fixed random sample on every `go test`, and holds the
// two count frames to their fmt form.
func TestAppendFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		e := tracer.Entry{
			Stamp: rng.Uint64() >> uint(rng.Intn(64)), TS: rng.Uint64() >> uint(rng.Intn(64)),
			Core: uint8(rng.Intn(256)), TID: rng.Uint32() >> uint(rng.Intn(32)),
			Category: uint8(rng.Intn(256)), Level: uint8(rng.Intn(256)),
		}
		if n := rng.Intn(4); n > 0 {
			e.Payload = make([]byte, rng.Intn(1<<(4*n)))
			rng.Read(e.Payload)
		}
		if got, want := AppendFrame(nil, &e), referenceFrame(&e); !bytes.Equal(got, want) {
			t.Fatalf("entry %+v:\n got %q\nwant %q", e, got, want)
		}
	}
	for _, n := range []uint64{0, 1, 17, ^uint64(0)} {
		if got, want := string(AppendMissed(nil, n)), fmt.Sprintf("event: %s\ndata: %d\n\n", EventMissed, n); got != want {
			t.Fatalf("AppendMissed(%d) = %q, want %q", n, got, want)
		}
		if got, want := string(AppendEvicted(nil, n)), fmt.Sprintf("event: %s\ndata: %d\n\n", EventEvicted, n); got != want {
			t.Fatalf("AppendEvicted(%d) = %q, want %q", n, got, want)
		}
	}
}
