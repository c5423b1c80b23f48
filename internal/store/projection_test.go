package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/tracer"
)

// projEntry is mkEntry with a seeded payload length — none, a few
// bytes, a few hundred — so that lengths are worth comparing.
func projEntry(stamp uint64, rng *rand.Rand) tracer.Entry {
	e := mkEntry(stamp)
	switch rng.Intn(4) {
	case 0:
		e.Payload = nil
	case 1:
		e.Payload = append(e.Payload, bytes.Repeat([]byte{'.'}, rng.Intn(400))...)
	}
	return e
}

// projAppend appends stamps [from, to] as one batch.
func projAppend(t *testing.T, st *Store, rng *rand.Rand, from, to uint64) {
	t.Helper()
	var es []tracer.Entry
	for s := from; s <= to; s++ {
		es = append(es, projEntry(s, rng))
	}
	if err := st.AppendEntries(es); err != nil {
		t.Fatalf("AppendEntries: %v", err)
	}
}

// exportBodies drains one cursor per format into the CSV and Chrome
// bodies /store/query would send.
func exportBodies(t *testing.T, what string, open func() tracer.Cursor) (csv, chrome []byte) {
	t.Helper()
	var bufs [2]bytes.Buffer
	for i, drain := range []func(*bytes.Buffer, tracer.Cursor) error{
		func(w *bytes.Buffer, c tracer.Cursor) error {
			_, _, err := export.CSVCursor(w, c, make([]tracer.Entry, 100))
			return err
		},
		func(w *bytes.Buffer, c tracer.Cursor) error {
			_, _, err := export.ChromeTraceCursor(w, c, make([]tracer.Entry, 100))
			return err
		},
	} {
		cur := open()
		err := drain(&bufs[i], cur)
		cur.Close()
		if err != nil {
			t.Fatalf("%s: export %d: %v", what, i, err)
		}
	}
	return bufs[0].Bytes(), bufs[1].Bytes()
}

// zeroBacked reports whether p is a tracer.LengthOnly payload.
func zeroBacked(p []byte) bool {
	return len(p) == 0 || &p[0] == &tracer.LengthOnly(1)[0]
}

// TestLengthOnlyMatchesFull is the projection's differential test: over
// every kind of segment a store reads — hot ordered, hot interleaved by
// two writers (unordered, longer than a span), the active tail, cold
// v1, v2 and v3 — the CSV and Chrome bodies exported from a
// Query.LengthsOnly cursor are byte for byte those exported from a
// full-payload cursor, at one scan worker and more, with and without a
// payload predicate (which still gets the bytes it tests; the sink
// still gets none), and no entry the projected cursor delivers carries
// a payload byte of the store's.
func TestLengthOnlyMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fixtures := map[string]func(t *testing.T) *Store{
		"hot": func(t *testing.T) *Store {
			st, err := Open(t.TempDir(), Config{SegmentBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			// Ordered, several spans long.
			for s := uint64(1); s <= 6000; s += 500 {
				projAppend(t, st, rng, s, s+499)
			}
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			// Two writers' batches landing out of turn, several spans' worth.
			for s := uint64(6001); s <= 12000; s += 1000 {
				projAppend(t, st, rng, s+500, s+999)
				projAppend(t, st, rng, s, s+499)
			}
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			// The active tail, out of turn as well.
			projAppend(t, st, rng, 12301, 12600)
			projAppend(t, st, rng, 12001, 12300)
			segs := st.Segments()
			if len(segs) != 3 || !segs[0].Ordered || segs[1].Ordered || segs[1].Bytes < 2*scanSpanBytes || segs[2].Sealed {
				t.Fatalf("fixture: %+v", segs)
			}
			return st
		},
		"cold": func(t *testing.T) *Store {
			// The mixed directory of TestColdV1V2MixedDirectory, v3 frozen
			// on top, a hot tail behind.
			st := openV1V2Directory(t)
			for s := uint64(1201); s <= 2400; s += 100 {
				projAppend(t, st, rng, s, s+99)
				if err := st.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.CompactCold(); err != nil {
				t.Fatal(err)
			}
			versions := map[int]int{}
			for _, b := range st.ColdBlocks() {
				versions[b.Version]++
			}
			if versions[1] == 0 || versions[2] == 0 || versions[3] == 0 {
				t.Fatalf("fixture does not hold every cold format: %v", versions)
			}
			return st
		},
	}
	queries := []struct {
		name string
		q    Query
	}{
		{"all", Query{}},
		{"limit", Query{Limit: 777}},
		{"header", Query{Pred: where(btql.Between(btql.FStamp, 90, 0), predOf(t, `category == 2 && core != 3`).Expr())}},
		{"payload", Query{Pred: predOf(t, `payload contains "payload-7"`)}},
		{"payload-or", Query{Pred: predOf(t, `tid == 3 || payload contains "payload-11"`)}},
	}
	for name, build := range fixtures {
		t.Run(name, func(t *testing.T) {
			st := build(t)
			defer st.Close()
			for _, tc := range queries {
				for _, workers := range []int{1, 4} {
					what := fmt.Sprintf("%s workers=%d", tc.name, workers)
					open := func(lengths bool) func() tracer.Cursor {
						q := tc.q
						q.LengthsOnly = lengths
						return func() tracer.Cursor { return st.QueryParallel(q, workers) }
					}
					wantCSV, wantChrome := exportBodies(t, what, open(false))
					gotCSV, gotChrome := exportBodies(t, what+" lengths", open(true))
					if bytes.Count(wantCSV, []byte("\n")) < 50 {
						t.Fatalf("%s: the full read matched %d rows", what, bytes.Count(wantCSV, []byte("\n"))-1)
					}
					if !bytes.Equal(gotCSV, wantCSV) {
						t.Errorf("%s: CSV under the projection differs (%d vs %d bytes)", what, len(gotCSV), len(wantCSV))
					}
					if !bytes.Equal(gotChrome, wantChrome) {
						t.Errorf("%s: Chrome under the projection differs (%d vs %d bytes)", what, len(gotChrome), len(wantChrome))
					}
					cur := open(true)()
					batch := make([]tracer.Entry, 256)
					for {
						n, _, err := cur.Next(batch)
						if err != nil {
							t.Fatalf("%s: Next: %v", what, err)
						}
						if n == 0 {
							break
						}
						for i := range batch[:n] {
							if !zeroBacked(batch[i].Payload) {
								t.Fatalf("%s: stamp %d carries payload bytes %q", what, batch[i].Stamp, batch[i].Payload)
							}
						}
					}
					cur.Close()
				}
			}
		})
	}
}

// TestLengthOnlyInflatesNothing: across a length-only read of a cold
// window no payload chunk is inflated or cached, across the same
// window read for its bytes they are, and a payload predicate under the
// projection inflates no more than the chunks it has to test.
func TestLengthOnlyInflatesNothing(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 2000, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	payloadBytes := func() int64 { return st.bcache.classCounters().resident[classPayload] }
	drain := func(q Query, workers int) int {
		pc := st.QueryParallel(q, workers)
		defer pc.Close()
		es, _ := drainParallel(t, pc, 128)
		return len(es)
	}
	window := Query{Pred: where(btql.Between(btql.FStamp, 300, 1500))}
	for _, workers := range []int{1, 4} {
		lengths := window
		lengths.LengthsOnly = true
		before, reads := st.obs.inflatedBytes.Load(), st.obs.reads[readLengths].Load()
		if n := drain(lengths, workers); n != 1201 {
			t.Fatalf("workers=%d: length-only window read %d rows", workers, n)
		}
		if got := st.obs.inflatedBytes.Load() - before; got != 0 || payloadBytes() != 0 {
			t.Fatalf("workers=%d: a length-only read inflated %d payload bytes and left %d cached", workers, got, payloadBytes())
		}
		if got := st.obs.reads[readLengths].Load() - reads; got != 1 {
			t.Fatalf("workers=%d: reads_total{payload=lengths} moved by %d", workers, got)
		}
	}
	// The predicate's chunks, and only because the predicate reads them.
	needle := Query{Pred: predOf(t, `stamp < 200 && payload contains "payload-7"`), LengthsOnly: true}
	before := st.obs.inflatedBytes.Load()
	if n := drain(needle, 1); n == 0 {
		t.Fatal("payload predicate matched nothing")
	}
	if st.obs.inflatedBytes.Load() == before {
		t.Fatal("a payload predicate inflated nothing")
	}
	before, reads := st.obs.inflatedBytes.Load(), st.obs.reads[readBytes].Load()
	if n := drain(window, 1); n != 1201 {
		t.Fatalf("full window read %d rows", n)
	}
	if st.obs.inflatedBytes.Load() == before || payloadBytes() == 0 {
		t.Fatal("a full-payload read of a cold window inflated and cached no payload chunk")
	}
	if got := st.obs.reads[readBytes].Load() - reads; got != 1 {
		t.Fatalf("reads_total{payload=bytes} moved by %d", got)
	}
}

// TestLengthOnlyHoldsWorkerSpans is TestParallelHoldsWhatOverlaps for a
// length-only pass over unordered segments several spans long: every
// span is read through a scan permit's buffer, so the pass makes at
// most `workers` of them, none longer than a span, and no chunk it
// sends to the merge owns one — where a pass that keeps payloads holds
// every unordered segment in its merge whole. The store has no block
// cache: with one, the first length-only pass would build the sealed
// segments' header sets and the next read them, through no span at all.
func TestLengthOnlyHoldsWorkerSpans(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 1 << 20, ColdCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const segs, per = 6, 12000
	for k := uint64(0); k < segs; k++ {
		base := k * per
		for s := base + 1; s <= base+per; s += 2000 {
			// Two writers landing out of turn.
			appendRange(t, st, s+1000, s+1999)
			appendRange(t, st, s, s+999)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range st.Segments() {
		if s.Ordered || s.Bytes < 2*scanSpanBytes {
			t.Fatalf("fixture: segment %+v is ordered or shorter than two spans", s)
		}
	}
	// held sums the span buffers of everything a finished pass made.
	held := func(pc *PCursor) (total, largest int) {
		cks := append(append([]*pchunk(nil), pc.pool.free...), pc.retired...)
		for range cap(pc.sem) {
			buf := <-pc.sem
			if buf != nil {
				cks = append(cks, buf)
			}
			pc.sem <- buf
		}
		for _, ck := range cks {
			total, largest = total+cap(ck.data), max(largest, cap(ck.data))
		}
		return total, largest
	}
	for _, workers := range []int{1, 4} {
		// Chunks other tests, or the pass before, left in the global pool
		// come with buffers of their own; start from none. Get cannot
		// reach another P's private slot, so draining by Get leaves some
		// behind: two collections empty a sync.Pool, victim cache
		// included.
		runtime.GC()
		runtime.GC()
		pc := st.QueryParallel(Query{LengthsOnly: true}, workers)
		got, missed := drainParallel(t, pc, 512)
		if missed != 0 || len(got) != segs*per {
			t.Fatalf("workers=%d: %d entries, missed %d", workers, len(got), missed)
		}
		for i := range got {
			if want := mkEntry(uint64(i + 1)); got[i].Stamp != want.Stamp || len(got[i].Payload) != len(want.Payload) {
				t.Fatalf("workers=%d: entry %d is stamp %d with %d payload bytes", workers, i, got[i].Stamp, len(got[i].Payload))
			}
		}
		if total, _ := held(pc); total == 0 || total > workers*scanSpanBytes {
			t.Errorf("workers=%d: the length-only pass holds %d bytes of span buffers, want at most %d", workers, total, workers*scanSpanBytes)
		}
		pc.Close()
	}
	// The fixture is one where keeping payloads costs a segment apiece.
	pc := st.QueryParallel(Query{}, 1)
	defer pc.Close()
	if got, _ := drainParallel(t, pc, 512); len(got) != segs*per {
		t.Fatalf("full pass: %d entries", len(got))
	}
	if _, largest := held(pc); largest < 2*scanSpanBytes {
		t.Errorf("the full-payload pass's largest span buffer is %d bytes: the fixture's segments are not read whole", largest)
	}
}
