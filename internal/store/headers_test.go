package store

import (
	"errors"
	"fmt"
	"io/fs"
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
// TID, time and payload length; shift offsets every stamp.
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
	return drainRest(t, cur, q, batch, nil, 0)
}

// drainRest drains what is left of cur's pass onto out and missed.
func drainRest(t *testing.T, cur *PCursor, q Query, batch int, out []tracer.Entry, missed uint64) ([]tracer.Entry, uint64) {
	t.Helper()
	buf := make([]tracer.Entry, batch)
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

// vanishing is a backend on which one file can be made to have gone,
// as retention leaves a file it deleted between a pass's snapshot and
// the stream's open.
type vanishing struct {
	backend.Backend
	gone string
}

func (b *vanishing) OpenRead(name string) (backend.ReadFile, error) {
	if name == b.gone {
		return nil, fmt.Errorf("open %s: %w", name, fs.ErrNotExist)
	}
	return b.Backend.OpenRead(name)
}

// TestHeaderSetsMatchCachelessStore: a store with a block cache and one
// without it, fed the same two colliding writers and put through the
// same seals, freeze and retention, answer every
// length-only read the same — row for row, rows of equal stamp in the
// same order, missed included — when the cached store's answer comes
// from building its segments' header sets and from reading them in
// place, at one scan worker or several and whatever the batch: under
// filters the sets' hulls imply (no row tested) beside TID and category
// filters and a time bound that cuts through a set (every row tested),
// under a limit that ends the pass inside a set, when the sets are
// evicted halfway through a pass, and when a segment's file has gone
// between the snapshot and the open — missed without a set of it, read
// from its set with one.
func TestHeaderSetsMatchCachelessStore(t *testing.T) {
	open := func(cacheBytes int64) (*Store, *vanishing) {
		lb, err := local.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		be := &vanishing{Backend: lb}
		st, err := OpenBackend(be, Config{SegmentBytes: 16 << 10, ColdAfterNs: 600_000, ColdCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st, be
	}
	st, stBE := open(0)
	bare, bareBE := open(-1)
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
	check := func(when string) {
		t.Helper()
		for _, q := range []Query{
			{},
			{Pred: where(btql.Between(btql.FStamp, 300, 0))},
			{Pred: predOf(t, `tid == 101`)},
			{Pred: where(btql.Between(btql.FStamp, 0, 900), predOf(t, `category == 2 && stamp >= 100`).Expr())},
			{Pred: predOf(t, `tid == 100 && category == 3`)},
			{Pred: where(btql.Between(btql.FStamp, 200, 0), btql.Between(btql.FTime, 0, 700_003))},
			{Limit: 150},
			{Pred: where(btql.Between(btql.FStamp, 300, 0)), Limit: 77},
			{Pred: predOf(t, `payload contains "7"`)},
		} {
			q.LengthsOnly = true
			want, wantMissed := drainAll(t, bare, q, 1, 64)
			if len(want) == 0 {
				t.Fatalf("%s: %+v matches nothing", when, q)
			}
			// The last ask evicts every header set after its first batch.
			for ask, shape := range [][2]int{{1, 7}, {4, 64}, {2, 333}, {1, 5}} {
				var got []tracer.Entry
				var missed uint64
				if ask < 3 {
					got, missed = drainAll(t, st, q, shape[0], shape[1])
				} else {
					cur := st.QueryParallel(q, shape[0])
					buf := make([]tracer.Entry, shape[1])
					n, m, err := cur.Next(buf)
					if err != nil {
						t.Fatalf("Next: %v", err)
					}
					st.bcache.reset(classHeaders)
					got, missed = drainRest(t, cur, q, shape[1], tracer.CloneEntries(nil, buf[:n]), m)
					cur.Close()
				}
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
	c := &colliding{}
	for k := 0; k < 12; k++ {
		c.pair(t, both, 64)
	}
	each("seal", (*Store).Seal)
	check("unordered sealed segments")
	for k := 0; k < 4; k++ {
		c.pair(t, both, 24)
		each("seal", (*Store).Seal)
	}
	check("small sealed segments")
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
	check("frozen")
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
	check("retention")
	// A sealed hot segment whose file has gone when the streams open it:
	// with no set of it resident, both stores count its events missed.
	var gone SegmentInfo
	for _, sg := range st.Segments() {
		if sg.Sealed && sg.Tier == "hot" {
			gone = sg
			break
		}
	}
	all, _ := drainAll(t, st, Query{LengthsOnly: true}, 2, 64)
	st.bcache.reset(classHeaders)
	stBE.gone, bareBE.gone = gone.File, gone.File
	check("a file gone")
	if _, missed := drainAll(t, st, Query{LengthsOnly: true}, 2, 64); gone.Events == 0 || missed != gone.Events {
		t.Fatalf("with %s gone: missed %d, want its %d events", gone.File, missed, gone.Events)
	}
	// A resident set stands for the rows: a stream that finds it opens no
	// file, and the pass misses nothing.
	stBE.gone = ""
	drainAll(t, st, Query{LengthsOnly: true}, 2, 64)
	stBE.gone = gone.File
	if got, missed := drainAll(t, st, Query{LengthsOnly: true}, 2, 64); len(got) != len(all) || missed != 0 {
		t.Fatalf("with %s gone and its set resident: %d rows, missed %d; want %d, 0", gone.File, len(got), missed, len(all))
	}
	if c := st.bcache.classCounters(); c.hits[classHeaders] == 0 || c.misses[classHeaders] == 0 {
		t.Fatalf("no read was served from a header set: %+v", c)
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

// TestHeaderSetAdmission: a length-only cursor that reads a sealed row
// segment to its end builds its header set instead — from the first
// frame even where a min_stamp seeks into an ordered segment, the
// boundary segment of a window that reaches the newest rows — and one
// whose window holds every stamp of the active segment builds that
// segment's set at the snapshot's extent. The next such pass opens no
// file at all. Nothing else builds one: a point query that seeks into
// a segment or stops before its end, a seek under a limit below the
// frames past it, an aggregate, a read that keeps payloads and a
// length-only read under a payload predicate; and a set the budget
// could not hold is never built.
func TestHeaderSetAdmission(t *testing.T) {
	open := func(cacheBytes int64) (*Store, *readCounter) {
		lb, err := local.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		be := &readCounter{Backend: lb, opens: map[string]int{}, bytes: map[string]int{}}
		st, err := OpenBackend(be, Config{SegmentBytes: 16 << 10, ColdCacheBytes: cacheBytes})
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
	active := func() bool {
		_, _, _, ok := activeSet(st)
		return ok
	}

	// What builds no set.
	segs := st.Segments()
	mid := segs[1].BaseStamp + 100 // past the first sparse-index stride
	for _, q := range []Query{
		{Pred: where(btql.Between(btql.FStamp, mid, mid)), LengthsOnly: true},
		{Pred: where(btql.Between(btql.FStamp, segs[1].BaseStamp, segs[1].BaseStamp+1)), LengthsOnly: true},
		{Pred: predOf(t, `payload contains "payload"`), LengthsOnly: true},
		{Pred: where(btql.Between(btql.FStamp, mid, segs[1].MaxStamp)), Limit: 1, LengthsOnly: true},
		{Pred: where(btql.Between(btql.FStamp, 5005, 0)), LengthsOnly: true}, // seeks into the active segment
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
		t.Fatalf("reads that walk no segment whole for its headers: %+v", c)
	}

	// A window from mid on builds the set of every segment it reads, the
	// boundary segment's from its first frame, the active one included.
	boundary := 1
	for _, s := range segs {
		if s.Sealed && s.MaxStamp >= mid {
			boundary++
		}
	}
	ask(Query{Pred: where(btql.Between(btql.FStamp, mid, 0)), LengthsOnly: true})
	if c := state(); c.misses[classHeaders] != uint64(boundary) || c.hits[classHeaders] != 0 || !active() {
		t.Fatalf("the window from %d: %+v (want %d misses), active segment's set %v", mid, c, boundary, active())
	}

	// The first export builds what is left, the second opens no file.
	export()
	if c := state(); c.misses[classHeaders] != uint64(len(sealed)+1) || c.hits[classHeaders] != uint64(boundary) || c.resident[classHeaders] == 0 {
		t.Fatalf("first export: %+v (want %d misses, %d hits)", c, len(sealed)+1, boundary)
	}
	be.take()
	export()
	if opens, bytes := be.take(); len(opens)+len(bytes) != 0 {
		t.Errorf("second export: files opened %v, bytes read %v", opens, bytes)
	}
	if c := state(); c.hits[classHeaders] != uint64(boundary+len(sealed)+1) || c.misses[classHeaders] != uint64(len(sealed)+1) {
		t.Fatalf("second export: %+v (want %d hits)", c, boundary+len(sealed)+1)
	}

	// A budget that holds no set: nothing is built.
	st, _ = open(hdrSetSize(0))
	for range 2 {
		export()
	}
	if c := state(); c.misses[classHeaders]+c.hits[classHeaders] != 0 || active() {
		t.Fatalf("starved cache: %+v, active segment's set %v", c, active())
	}
}

// activeSet is the active segment's header set at its extent, if the
// block cache holds one, looked up without counting a hit or a miss.
func activeSet(st *Store) (name string, size int64, rows []hdrRow, ok bool) {
	st.mu.Lock()
	s := st.activeSeg()
	name, size = s.name, s.size
	st.mu.Unlock()
	st.bcache.mu.Lock()
	defer st.bcache.mu.Unlock()
	if el, hit := st.bcache.m[blockKey{name: name, off: size, sec: secHeaders}]; hit {
		return name, size, el.Value.(*cacheEnt).hdrs, true
	}
	return name, size, nil, false
}

// TestFilteredSetsMatchCachelessStore: a cold segment's filtered sets
// (scan.go) change no answer. A store with a block cache and its
// cache-less twin, fed the same ordered rows and two colliding writers'
// and put through the same seal, freeze, retention and reopen, answer every
// length-only read the same — row for row, rows of equal stamp in the
// same order — the first ask of the cached store building its sets and
// the second reading them, opening no cold file: under TID and category
// filters, `in` lists of TIDs and of stamps (an `in` list is part of the
// set's filter), windows whose stamp bounds cut a cold file and time
// bounds that straddle one, at one scan worker and several. A set stands
// for its rows: with it resident, a file gone between the snapshot and
// the open is read from it and missed 0. No set is admitted that is
// larger than its file's inflated meta sections. A corrupt meta section fails
// every build that meets it, and caches nothing; a read whose window
// skips the corrupt block still answers as the twin does.
func TestFilteredSetsMatchCachelessStore(t *testing.T) {
	type twin struct {
		st *Store
		be *vanishing
		rc *readCounter
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	open := func(i int, cacheBytes int64) twin {
		lb, err := local.New(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		rc := &readCounter{Backend: lb, opens: map[string]int{}, bytes: map[string]int{}}
		be := &vanishing{Backend: rc}
		st, err := OpenBackend(be, Config{SegmentBytes: 16 << 10, ColdAfterNs: 300_000, ColdBlockBytes: 4 << 10, ColdFileBytes: 32 << 10, ColdCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return twin{st, be, rc}
	}
	c, b := open(0, 0), open(1, -1)
	both := func() []*Store { return []*Store{c.st, b.st} }
	each := func(what string, op func(s *Store) error) {
		t.Helper()
		for _, s := range both() {
			if err := op(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if x, y := fmt.Sprint(c.st.Segments()), fmt.Sprint(b.st.Segments()); x != y {
			t.Fatalf("after %s the two stores differ:\n%s\n%s", what, x, y)
		}
	}
	same := func(what string, got, want []tracer.Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range got {
			g, w := &got[i], &want[i]
			if len(g.Payload) != len(w.Payload) || g.Stamp != w.Stamp || g.TS != w.TS ||
				g.Core != w.Core || g.TID != w.TID || g.Category != w.Category || g.Level != w.Level {
				t.Fatalf("%s: row %d is %+v, want %+v", what, i, *g, *w)
			}
		}
	}
	coldFiles := func() (names []string) {
		for _, sg := range c.st.Segments() {
			if sg.Tier == "cold" {
				names = append(names, sg.File)
			}
		}
		return names
	}
	// admitted reports whether cold file name has q's filtered set
	// resident, and not the entry of one too large to admit.
	admitted := func(name string, q Query) bool {
		bc, rest := c.st.bcache, compile(q).pred.Rest()
		bc.mu.Lock()
		defer bc.mu.Unlock()
		for k, el := range bc.m {
			if k.name == name && k.sec == secHeaders && k.agg == rest {
				return !el.Value.(*cacheEnt).walk
			}
		}
		return false
	}
	queries := []Query{
		{Pred: predOf(t, `tid == 3`)},
		{Pred: predOf(t, `tid == 101`)},
		{Pred: predOf(t, `category == 2`)},
		{Pred: predOf(t, `tid in (1, 4, 100)`)},
		{Pred: predOf(t, `stamp in (5, 77, 1234, 2100, 2301, 2600)`)},
		{Pred: where(btql.Between(btql.FStamp, 333, 1111), predOf(t, `tid == 4 && category == 3`).Expr())},
		{Pred: predOf(t, `stamp >= 700 && stamp <= 2200 && category == 1`)},
		{Pred: predOf(t, `tid == 100 && time >= 2150003`)},
		{Pred: where(btql.Between(btql.FTime, 400_500, 2_300_000), predOf(t, `category == 4`).Expr()), Limit: 90},
	}
	check := func(when string) {
		t.Helper()
		hits := c.st.bcache.classCounters().hits[classHeaders]
		for _, q := range queries {
			q.LengthsOnly = true
			want, wantMissed := drainAll(t, b.st, q, 1, 64)
			if len(want) == 0 || wantMissed != 0 {
				t.Fatalf("%s: %+v matches %d rows, missed %d", when, q, len(want), wantMissed)
			}
			for ask, shape := range [][2]int{{1, 7}, {4, 64}} {
				var resident []string
				for _, name := range coldFiles() {
					if admitted(name, q) {
						resident = append(resident, name)
					}
				}
				c.rc.take()
				got, missed := drainAll(t, c.st, q, shape[0], shape[1])
				same(fmt.Sprintf("%s, ask %d of %+v", when, ask, q), got, want)
				if missed != 0 {
					t.Fatalf("%s, ask %d of %+v: missed %d", when, ask, q, missed)
				}
				opens, _ := c.rc.take()
				for _, name := range resident {
					if opens[name] != 0 {
						t.Fatalf("%s, ask %d of %+v: %s, its set resident, opened %d times", when, ask, q, name, opens[name])
					}
				}
			}
		}
		if c.st.bcache.classCounters().hits[classHeaders] == hits {
			t.Fatalf("%s: no read was served from a set", when)
		}
	}

	appendRange(t, c.st, 1, 1500)
	appendRange(t, b.st, 1, 1500)
	col := &colliding{shift: 2000}
	for k := 0; k < 10; k++ {
		col.pair(t, both(), 64)
	}
	each("seal", (*Store).Seal)
	check("sealed")
	each("freeze", func(s *Store) error {
		if n, err := s.CompactCold(); err != nil || n == 0 {
			return fmt.Errorf("froze %d, %v", n, err)
		}
		return nil
	})
	col.pair(t, both(), 64) // the active segment
	unordered := false
	for _, sg := range c.st.Segments() {
		unordered = unordered || sg.Tier == "cold" && !sg.Ordered
	}
	if len(coldFiles()) < 4 || !unordered {
		t.Fatalf("fixture: %+v", c.st.Segments())
	}
	check("frozen")
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
	check("retention")
	for i, tw := range []*twin{&c, &b} {
		if err := tw.st.Close(); err != nil {
			t.Fatal(err)
		}
		*tw = open(i, []int64{0, -1}[i])
	}
	check("reopened")

	// Admission: no filtered set resident is larger than its file's
	// inflated meta sections, and a filter that keeps more of a file than
	// that — `tid == 101` of the colliding writers' — left the entry that
	// sends later passes to walk.
	meta := map[string]int64{}
	c.st.mu.Lock()
	for _, sg := range c.st.segs {
		for i := range sg.blocks {
			if v2 := sg.blocks[i].v2; v2 != nil {
				meta[sg.name] += v2.metaRawLen
			}
		}
	}
	c.st.mu.Unlock()
	walks := 0
	c.st.bcache.mu.Lock()
	for k, el := range c.st.bcache.m {
		if ent := el.Value.(*cacheEnt); k.sec == secHeaders && k.agg != "" {
			if ent.walk {
				walks++
			} else if ent.size > meta[k.name] {
				t.Errorf("%s under %q: a %d-byte set admitted over %d bytes of meta sections", k.name, k.agg, ent.size, meta[k.name])
			}
		}
	}
	c.st.bcache.mu.Unlock()
	if walks == 0 {
		t.Error("no filtered set was too large to admit")
	}

	// The twin without a cache has no set to serve it: every ask opens
	// the cold files it reads.
	b.rc.take()
	drainAll(t, b.st, Query{Pred: predOf(t, `tid == 3`), LengthsOnly: true}, 2, 64)
	if opens, _ := b.rc.take(); opens[coldFiles()[0]] == 0 {
		t.Fatalf("the cache-less store read %s without opening it", coldFiles()[0])
	}

	// With its set resident, a cold file gone under the snapshot is read
	// from the set: its rows, missed 0.
	q := Query{Pred: predOf(t, `tid == 3`), LengthsOnly: true}
	want, _ := drainAll(t, c.st, q, 2, 64)
	c.be.gone = coldFiles()[0]
	got, missed := drainAll(t, c.st, q, 2, 64)
	same("a file gone, its set resident", got, want)
	if missed != 0 {
		t.Fatalf("a file gone, its set resident: missed %d", missed)
	}
	c.be.gone = ""
}

// TestFilteredSetCorruptMeta: the build of a filtered set walks every
// block of its cold segment, so a corrupt meta section fails it whatever
// the pass reads; it caches nothing, and the next pass builds again. A
// pass whose window the corrupt block lies outside answers as it did
// before the corruption, from the walk of its window; one whose window
// covers it fails with ErrCorrupt.
func TestFilteredSetCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	sealEvery(t, st, 1, 1200, 300)
	if err := st.CompactTick(); err != nil {
		t.Fatal(err)
	}
	secs := coldSectionsV2(t, st)
	var bad coldSection
	for _, s := range secs {
		if s.baseStamp > 100 && s.path == secs[0].path {
			bad = s // a block of the first cold file past its first
			break
		}
	}
	if bad.path == "" {
		t.Fatalf("fixture: %+v", secs)
	}
	inside := Query{Pred: where(btql.Between(btql.FStamp, bad.baseStamp, bad.baseStamp+10), predOf(t, `tid == 3`).Expr()), LengthsOnly: true}
	outside := Query{Pred: where(btql.Between(btql.FStamp, 0, bad.baseStamp-1), predOf(t, `tid == 3`).Expr()), LengthsOnly: true}
	want := drainStore(t, st, outside)
	if len(want) == 0 {
		t.Fatal("the window before the corrupt block matches nothing")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, bad.path, bad.metaOff+bad.metaLen/2)
	if st, err = Open(dir, tierCfg()); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for walk := 1; walk <= 2; walk++ {
		got, missed := drainAll(t, st, outside, 2, 64)
		if len(got) != len(want) || missed != 0 {
			t.Fatalf("walk %d, outside the corrupt block: %d rows, missed %d; want %d", walk, len(got), missed, len(want))
		}
		cur := st.QueryParallel(inside, 2)
		_, err := tracer.Drain(cur, 64)
		cur.Close()
		if !errors.Is(err, tracer.ErrCorrupt) {
			t.Fatalf("walk %d, over the corrupt block: err = %v, want ErrCorrupt", walk, err)
		}
		if c := st.bcache.classCounters(); c.resident[classHeaders] != 0 || c.hits[classHeaders] != 0 || c.misses[classHeaders] != uint64(2*walk) {
			t.Fatalf("walk %d: header-set counters %+v", walk, c)
		}
	}
}
