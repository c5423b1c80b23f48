package store

import (
	"fmt"
	"sync"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// Header sets (scan.go, blockcache.go): what a repeated length-only read
// of a sealed row segment is served from, when one is admitted, and that
// what it serves is what the frame walker reads.

// colliding is two writers appending batches whose stamps collide:
// writer 0 reserves the next n stamps, writer 1 the n stamps lag below
// them, which writer 0 has already used. Rows of equal stamp differ in
// TID, time and payload length, and a payload's length goes by its place
// in the batch, so the same batches shifted by a constant make files of
// the same sizes.
type colliding struct {
	next, shift uint64
}

func (c *colliding) pair(t *testing.T, stores []*Store, n int) {
	t.Helper()
	const lag = 40
	for w := uint64(0); w < 2; w++ {
		es := make([]tracer.Entry, n)
		for i := range es {
			s := c.shift + c.next + uint64(i) + 1 - w*min(lag, c.next)
			es[i] = tracer.Entry{
				Stamp: s, TS: s*1000 + w*7, Core: uint8(s % 4), TID: 100 + uint32(w),
				Category: uint8((s + w) % 5), Level: uint8(1 + w),
				Payload: make([]byte, (i*7+int(w)*3)%40),
			}
			for j := range es[i].Payload {
				es[i].Payload[j] = byte('0' + (s+uint64(j))%10)
			}
		}
		for _, st := range stores {
			if err := st.AppendEntries(es); err != nil {
				t.Fatalf("AppendEntries: %v", err)
			}
		}
	}
	c.next += uint64(n)
}

// drainAll drains a QueryParallel pass at the given worker count and
// batch size, entries cloned; a length-only pass must hand out no
// payload byte of the store's.
func drainAll(t *testing.T, st *Store, q Query, workers, batch int) ([]tracer.Entry, uint64) {
	t.Helper()
	cur := st.QueryParallel(q, workers)
	defer cur.Close()
	buf := make([]tracer.Entry, batch)
	var out []tracer.Entry
	var missed uint64
	for {
		n, m, err := cur.Next(buf)
		missed += m
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if n == 0 {
			return out, missed
		}
		for i := range buf[:n] {
			if q.LengthsOnly && !zeroBacked(buf[i].Payload) {
				t.Fatalf("stamp %d of a length-only read carries payload bytes %q", buf[i].Stamp, buf[i].Payload)
			}
		}
		out = tracer.CloneEntries(out, buf[:n])
	}
}

// TestHeaderSetsMatchCachelessStore: a store with a block cache and one
// without it, fed the same two colliding writers and put through the
// same seals, freeze, retention and Reset, answer every
// length-only read the same — row for row, rows of equal stamp in the
// same order, missed included — when the cached store's answer comes
// from building its segments' header sets and from reading them, at one
// scan worker or several and whatever the batch.
func TestHeaderSetsMatchCachelessStore(t *testing.T) {
	cfg := Config{SegmentBytes: 16 << 10, ColdAfterNs: 600_000}
	st, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.ColdCacheBytes = -1
	bare, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	both := []*Store{st, bare}
	each := func(what string, op func(s *Store) error) {
		t.Helper()
		for _, s := range both {
			if err := op(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if a, b := fmt.Sprint(st.Segments()), fmt.Sprint(bare.Segments()); a != b {
			t.Fatalf("after %s the two stores differ:\n%s\n%s", what, a, b)
		}
	}
	check := func(when string, shift uint64) {
		t.Helper()
		for _, q := range []Query{
			{},
			{MinStamp: shift + 300},
			{Pred: predOf(t, `tid == 101`)},
			{Pred: predOf(t, fmt.Sprintf(`category == 2 && stamp >= %d`, shift+100)), MaxStamp: shift + 900},
			{Limit: 150},
			{Pred: predOf(t, `payload contains "7"`)},
		} {
			q.LengthsOnly = true
			want, wantMissed := drainAll(t, bare, q, 1, 64)
			if len(want) == 0 {
				t.Fatalf("%s: %+v matches nothing", when, q)
			}
			for ask, shape := range [][2]int{{1, 7}, {4, 64}, {2, 333}} {
				got, missed := drainAll(t, st, q, shape[0], shape[1])
				if len(got) != len(want) || missed != wantMissed {
					t.Fatalf("%s, ask %d of %+v: %d rows, missed %d; the cache-less store: %d, %d", when, ask, q, len(got), missed, len(want), wantMissed)
				}
				for i := range got {
					g, w := &got[i], &want[i]
					if len(g.Payload) != len(w.Payload) || g.Stamp != w.Stamp || g.TS != w.TS ||
						g.Core != w.Core || g.TID != w.TID || g.Category != w.Category || g.Level != w.Level {
						t.Fatalf("%s, ask %d of %+v: row %d is %+v, the cache-less store's %+v", when, ask, q, i, *g, *w)
					}
				}
			}
		}
	}
	life := func(shift uint64) {
		c := &colliding{shift: shift}
		for k := 0; k < 12; k++ {
			c.pair(t, both, 64)
		}
		each("seal", (*Store).Seal)
		check("unordered sealed segments", shift)
		for k := 0; k < 4; k++ {
			c.pair(t, both, 24)
			each("seal", (*Store).Seal)
		}
		check("small sealed segments", shift)
		for k := 0; k < 6; k++ {
			c.pair(t, both, 64)
		}
		each("seal", (*Store).Seal)
		each("freeze", func(s *Store) error {
			if n, err := s.CompactCold(); err != nil || n == 0 {
				return fmt.Errorf("froze %d, %v", n, err)
			}
			return nil
		})
		c.pair(t, both, 64) // the active segment
		check("frozen", shift)
		each("retention", func(s *Store) error {
			segs := s.Segments()
			var total int64
			for _, sg := range segs {
				total += sg.Bytes
			}
			s.mu.Lock()
			s.cfg.MaxBytes = total - segs[0].Bytes
			s.enforceRetentionLocked()
			s.cfg.MaxBytes = 0
			s.mu.Unlock()
			return nil
		})
		check("retention", shift)
	}
	life(0)
	first := st.bcache.classCounters()
	if first.hits[classHeaders] == 0 || first.misses[classHeaders] == 0 {
		t.Fatalf("no read was served from a header set: %+v", first)
	}
	// The second life repeats the first's names and extents.
	each("reset", (*Store).Reset)
	if c := st.bcache.classCounters(); c.resident[classHeaders] != 0 {
		t.Fatalf("Reset left %d bytes of header sets", c.resident[classHeaders])
	}
	life(1 << 20)
	if c := st.bcache.classCounters(); c.hits[classHeaders] == first.hits[classHeaders] {
		t.Fatal("the second life was served from no header set")
	}
}

// readCounter counts the bytes read from each file.
type readCounter struct {
	backend.Backend
	mu    sync.Mutex
	opens map[string]int
	bytes map[string]int
}

func (b *readCounter) OpenRead(name string) (backend.ReadFile, error) {
	f, err := b.Backend.OpenRead(name)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.opens[name]++
	b.mu.Unlock()
	return &countedFile{ReadFile: f, b: b, name: name}, nil
}

// take returns the opens and bytes counted since the last take.
func (b *readCounter) take() (opens, bytes map[string]int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	opens, bytes = b.opens, b.bytes
	b.opens, b.bytes = map[string]int{}, map[string]int{}
	return opens, bytes
}

type countedFile struct {
	backend.ReadFile
	b    *readCounter
	name string
}

func (f *countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.ReadFile.ReadAt(p, off)
	f.b.mu.Lock()
	f.b.bytes[f.name] += n
	f.b.mu.Unlock()
	return n, err
}

// TestHeaderSetAdmission: a length-only cursor that would walk a sealed
// row segment whole builds its header set instead, and the next such
// pass opens each sealed file and reads none of it. Nothing else builds
// one: a point query that seeks into an ordered segment or stops before
// its end, an aggregate, a read that keeps payloads, a length-only read
// under a payload predicate, and the active segment; and a set the
// budget could not hold is never built.
func TestHeaderSetAdmission(t *testing.T) {
	open := func(cacheBytes int64) (*Store, *readCounter) {
		lb, err := local.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		be := &readCounter{Backend: lb, opens: map[string]int{}, bytes: map[string]int{}}
		st, err := Open("", Config{Backend: be, SegmentBytes: 16 << 10, ColdCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		// Ordered segments, then ones two colliding writers interleaved in,
		// then the active tail.
		appendRange(t, st, 1, 600)
		c := &colliding{shift: 1000}
		for k := 0; k < 8; k++ {
			c.pair(t, []*Store{st}, 64)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		appendRange(t, st, 5000, 5010)
		return st, be
	}
	st, be := open(0)
	var sealed []string
	unordered := false
	for _, s := range st.Segments() {
		if s.Sealed {
			sealed = append(sealed, s.File)
			unordered = unordered || !s.Ordered
		}
	}
	if len(sealed) < 4 || !unordered {
		t.Fatalf("fixture: %+v", st.Segments())
	}
	want, _ := drainAll(t, st, Query{}, 1, 64)
	ask := func(q Query) { drainAll(t, st, q, 2, 64) }
	export := func() {
		t.Helper()
		if got, missed := drainAll(t, st, Query{LengthsOnly: true}, 2, 64); len(got) != len(want) || missed != 0 {
			t.Fatalf("export: %d rows, missed %d; want %d", len(got), missed, len(want))
		}
	}
	state := func() cacheCounters { return st.bcache.classCounters() }

	// What builds no set.
	segs := st.Segments()
	mid := segs[1].BaseStamp + 100 // past the first sparse-index stride
	for _, q := range []Query{
		{MinStamp: mid, MaxStamp: mid, LengthsOnly: true},
		{MinStamp: segs[1].BaseStamp, MaxStamp: segs[1].BaseStamp + 1, LengthsOnly: true},
		{Pred: predOf(t, `payload contains "payload"`), LengthsOnly: true},
		{},
	} {
		for range 2 {
			ask(q)
		}
	}
	for range 2 {
		if _, _, err := st.Aggregate(Query{}, []btql.AggSpec{{Kind: btql.AggCount}}); err != nil {
			t.Fatal(err)
		}
	}
	if c := state(); c.misses[classHeaders]+c.hits[classHeaders] != 0 || c.resident[classHeaders] != 0 {
		t.Fatalf("reads that walk no sealed segment whole for its headers: %+v", c)
	}

	// The first export builds and admits every set.
	export()
	if c := state(); c.misses[classHeaders] != uint64(len(sealed)) || c.hits[classHeaders] != 0 || c.resident[classHeaders] == 0 {
		t.Fatalf("first export: %+v (want %d misses)", c, len(sealed))
	}
	// The second opens every sealed file and reads none of it.
	be.take()
	export()
	opens, bytes := be.take()
	for _, name := range sealed {
		if opens[name] != 1 || bytes[name] != 0 {
			t.Errorf("second export: %s opened %d times, %d bytes read", name, opens[name], bytes[name])
		}
	}
	if c := state(); c.hits[classHeaders] != uint64(len(sealed)) || c.misses[classHeaders] != uint64(len(sealed)) {
		t.Fatalf("second export: %+v (want %d hits)", c, len(sealed))
	}

	// Reset forgets the sets: the next life's files take these names.
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if c := state(); c.resident[classHeaders] != 0 {
		t.Fatalf("Reset left %+v", c)
	}

	// A budget that holds no set: nothing is built.
	st, _ = open(hdrSetSize(0))
	for range 2 {
		export()
	}
	if c := state(); c.misses[classHeaders]+c.hits[classHeaders] != 0 {
		t.Fatalf("starved cache: %+v", c)
	}
}
