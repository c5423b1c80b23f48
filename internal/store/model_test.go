package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// The model-based store test: a random sequence of everything a store
// can be asked to do — appends from interleaving writers, seals,
// freezes, retention, reopens, crashes, and reads on both surfaces with
// random queries — run against the real store and an in-memory oracle
// side by side. The oracle is the list of events in append order and
// the one read contract:
//
//   - A cursor (Query, QueryParallel at any worker count) and Aggregate
//     are snapshots in stamp order. A pass run at rest delivers exactly
//     the live matches by ascending stamp (the first Limit of them) and
//     folds exactly them. A cursor whose snapshot was taken before other
//     operations delivers ascending stamps out of that snapshot's
//     matches, and delivered + missed covers them all. An aggregate
//     answers the same asked again (the second answer comes out of the
//     block cache's partials), the same folded without them, and the
//     oracle's answer of the moment when it is re-asked after whatever
//     the program did next.
//
// A cursor may be asked for payload lengths alone (Query.LengthsOnly):
// the same contract, the payloads held to the oracle's lengths and to
// carrying no byte of the store's. Such a read is asked again until a
// sealed row segment's header set serves it — the first pass builds
// the segments' sets, the second reads them in place — so every answer
// a header set gives is held to the oracle too, across seals, freezes
// and retention, and to the answer, missed included, of a store without
// a block cache opened over a copy of the backend at that instant. Such
// a read is exported as CSV as well, twice, and held byte for byte to
// export.CSV of the oracle's rows: the second export is served the text
// the first rendered of the sets it read in place.
//
// A sequence is a byte string (a program): every choice the interpreter
// makes is drawn from it, so the seeded test and FuzzStoreModel run the
// same thing, a failure prints its program as a corpus entry, and the
// fuzzer's minimiser shortens it.

// modelProg is the byte string a run draws its choices from.
type modelProg struct {
	b   []byte
	pos int
}

func (p *modelProg) more() bool { return p.pos < len(p.b) }

// intn draws a choice in [0, n). An exhausted program answers 0.
func (p *modelProg) intn(n int) int {
	if !p.more() {
		return 0
	}
	b := int(p.b[p.pos])
	p.pos++
	return b % n
}

// rng draws the seed of a generator for choices too many to spell out
// byte by byte (a random query).
func (p *modelProg) rng() *rand.Rand {
	return rand.New(rand.NewSource(int64(p.intn(256))<<8 | int64(p.intn(256))))
}

// modelEntry is event stamp's content, a pure function of the stamp so
// a failure's op list is enough to rebuild it. The value sets are
// kernelFixture's: categories on both sides of the 63 the header bitmap
// saturates at, TIDs up to 2^24-1, and payloads randExpr's needles hit.
func modelEntry(stamp uint64, bare bool) tracer.Entry {
	_, h := bloomHash(uint32(stamp))
	pick := func(n int) int { h = h*6364136223846793005 + 1442695040888963407; return int(h>>33) % n }
	e := tracer.Entry{
		Stamp: stamp, TS: stamp*1000 + uint64(pick(5000)),
		Core:     []uint8{0, 1, 7, 63, 64, 255}[pick(6)],
		TID:      []uint32{5, 6, 1 << 16, 70_000, 0xFFFFFF}[pick(5)],
		Category: []uint8{0, 2, 11, 17, 64, 70, 200}[pick(7)],
		Level:    uint8(pick(4)),
	}
	if w := []string{"", "alloc", "oom kill", "alloc oom", "x"}[pick(5)]; w != "" && !bare {
		e.Payload = []byte(fmt.Sprintf("%s #%d", w, pick(100)))
	}
	return e
}

// follower is a cursor held open across other operations.
type follower struct {
	name string
	q    Query
	par  *PCursor
	// What the cursor may deliver: the matches of all[from:upto], its
	// snapshot.
	from, upto int
	last       int // stamp of the last delivery
	seen       map[uint64]bool
	missed     uint64
}

type storeModel struct {
	t    testing.TB
	p    *modelProg
	ops  []string
	cfg  Config
	be   *snapBackend
	st   *Store
	all  []tracer.Entry // every event appended, in append order
	pos  map[uint64]int // stamp → index in all
	gone int            // all[:gone] has been retired
	next uint64         // next unreserved stamp
	// pending is each writer's reserved, unappended batch.
	pending   [3][]tracer.Entry
	followers []*follower
	// asked is the last aggregates the program drew, re-asked after every
	// operation that moves segments about.
	asked []askedAgg
	// headerReads counts the reads header sets served.
	headerReads uint64
}

type askedAgg struct {
	q     Query
	specs []btql.AggSpec
	name  string
}

func (m *storeModel) logf(format string, args ...any) {
	m.ops = append(m.ops, fmt.Sprintf(format, args...))
}

// failf reports a divergence with everything needed to replay it.
func (m *storeModel) failf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s\nafter %d ops:\n  %s\nprogram, as a testdata/fuzz/FuzzStoreModel entry:\ngo test fuzz v1\n[]byte(%+q)",
		fmt.Sprintf(format, args...), len(m.ops), strings.Join(m.ops, "\n  "), m.p.b)
}

func (m *storeModel) open(be *backend.Object) {
	m.be = &snapBackend{inner: be}
	cfg := m.cfg
	cfg.Backend = m.be
	st, err := Open("", cfg)
	if err != nil {
		m.failf("Open: %v", err)
	}
	m.st = st
}

// settle waits out the background seal work an append can start and
// brings the oracle's retired prefix up to date: retention only ever
// deletes the oldest segments, so what the store still counts is a
// suffix of the append order.
func (m *storeModel) settle() {
	m.st.maint.waitIdle()
	held := int(m.st.Events())
	if gone := len(m.all) - held; gone < m.gone || gone > len(m.all) {
		m.failf("store holds %d events, oracle appended %d and had retired %d", held, len(m.all), m.gone)
	} else {
		m.gone = gone
	}
}

// matches returns the indices into all[from:upto] of the events q
// selects, by the row-at-a-time references.
func (m *storeModel) matches(q *Query, from, upto int) []int {
	var idx []int
	for i := from; i < upto; i++ {
		if e := &m.all[i]; refMatchRaw(q, e) && (q.Pred == nil || q.Pred.Match(e)) {
			idx = append(idx, i)
		}
	}
	return idx
}

// randQuery draws a query over the values the store holds.
func (m *storeModel) randQuery(limit bool) (Query, string) {
	var q Query
	if len(m.all) == 0 {
		return q, "{}"
	}
	rng := m.p.rng()
	pick := func() uint64 { return m.all[rng.Intn(len(m.all))].Stamp }
	if rng.Intn(4) > 0 {
		q.Pred = btql.Compile(randExpr(rng, m.all, 2))
	}
	if rng.Intn(4) == 0 {
		q.MinStamp = pick()
	}
	if rng.Intn(4) == 0 {
		q.MaxStamp = pick()
	}
	if rng.Intn(6) == 0 {
		q.MinTS = pick() * 1000
	}
	if rng.Intn(6) == 0 {
		q.MaxTS = pick()*1000 + 2500
	}
	if rng.Intn(6) == 0 {
		q.Cores = []uint8{0, 64, uint8(rng.Intn(256))}
	}
	if rng.Intn(6) == 0 {
		q.Categories = []uint8{11, 70, uint8(rng.Intn(256))}
	}
	if limit && rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(40)
	}
	// Drawn last, and from rng, so the programs of the committed corpus
	// make the choices they made before there was a projection.
	q.LengthsOnly = rng.Intn(3) == 0
	return q, fmt.Sprintf("{stamp %d..%d ts %d..%d cores %v cats %v limit %d lengths %v pred %v}",
		q.MinStamp, q.MaxStamp, q.MinTS, q.MaxTS, q.Cores, q.Categories, q.Limit, q.LengthsOnly, q.Pred.Expr())
}

// sameEntry reports whether a cursor's entry is the oracle's: field for
// field, or under Query.LengthsOnly header for header with a payload of
// the oracle's length.
func sameEntry(got, want *tracer.Entry, lengths bool) bool {
	if lengths {
		if len(got.Payload) != len(want.Payload) {
			return false
		}
	} else if !bytes.Equal(got.Payload, want.Payload) {
		return false
	}
	return got.Stamp == want.Stamp && got.TS == want.TS && got.Core == want.Core && got.TID == want.TID &&
		got.Category == want.Category && got.Level == want.Level
}

// checkExact holds a drain at rest to the oracle: got is exactly the
// events all[want...], in that order.
func (m *storeModel) checkExact(what string, got []tracer.Entry, missed uint64, want []int, lengths bool) {
	m.t.Helper()
	if missed != 0 {
		m.failf("%s: missed %d with nothing deleted under it", what, missed)
	}
	if len(got) != len(want) {
		m.failf("%s: %d events, oracle says %d", what, len(got), len(want))
	}
	for i := range got {
		if w := &m.all[want[i]]; !sameEntry(&got[i], w, lengths) {
			m.failf("%s: event %d is %+v, oracle says %+v", what, i, got[i], *w)
		}
	}
}

// drain reads cur until a Next delivers nothing. A length-only cursor
// must hand out no payload byte of the store's.
func (m *storeModel) drain(what string, cur tracer.Cursor, batch int, lengths bool) (es []tracer.Entry, missed uint64) {
	m.t.Helper()
	buf := make([]tracer.Entry, batch)
	for {
		n, miss, err := cur.Next(buf)
		missed += miss
		if err != nil {
			m.failf("%s: Next: %v", what, err)
		}
		if n == 0 {
			return es, missed
		}
		for i := range buf[:n] {
			if lengths && !zeroBacked(buf[i].Payload) {
				m.failf("%s: stamp %d of a length-only read carries payload bytes %q", what, buf[i].Stamp, buf[i].Payload)
			}
		}
		es = tracer.CloneEntries(es, buf[:n])
	}
}

// byStamp reorders indices into all by ascending stamp.
func (m *storeModel) byStamp(idx []int) []int {
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(m.all[a].Stamp, m.all[b].Stamp) })
	return idx
}

func limited(idx []int, limit int) []int {
	if limit > 0 && len(idx) > limit {
		return idx[:limit]
	}
	return idx
}

// readPar and readAgg each hold one surface, at rest, to the oracle's
// answer for q. A length-only read is asked twice unless a header set
// served the first ask: the first builds the sets, the second reads
// them. An answer header sets served is also held to a cache-less
// store's (cacheless).
func (m *storeModel) readPar(q Query, name string, workers int) {
	what := fmt.Sprintf("QueryParallel(%d)%s", workers, name)
	batch := 1 + m.p.intn(90)
	want := limited(m.byStamp(m.matches(&q, m.gone, len(m.all))), q.Limit)
	if q.LengthsOnly {
		m.readCSV(q, what, workers, batch, want)
	}
	for ask := 0; ask < 2; ask++ {
		hits := m.st.bcache.classCounters().hits[classHeaders]
		cur := m.st.QueryParallel(q, workers)
		got, missed := m.drain(what, cur, batch, q.LengthsOnly)
		cur.Close()
		m.checkExact(what, got, missed, want, q.LengthsOnly)
		if served := m.st.bcache.classCounters().hits[classHeaders] - hits; !q.LengthsOnly || served > 0 {
			if served > 0 {
				m.cacheless(q, what, workers, batch, got, missed)
			}
			m.headerReads += served
			return
		}
		what = fmt.Sprintf("QueryParallel(%d)%s, asked again", workers, name)
	}
}

// readCSV holds export.CSVCursor over a cursor of length-only q to
// export.CSV of the oracle's rows want, asked twice: the first ask
// renders the sets the pass reads in place, the second is served the
// text of those it kept.
func (m *storeModel) readCSV(q Query, what string, workers, batch int, want []int) {
	m.t.Helper()
	rows := make([]tracer.Entry, len(want))
	for i, j := range want {
		rows[i] = m.all[j]
	}
	var exp bytes.Buffer
	if err := export.CSV(&exp, rows); err != nil {
		m.failf("%s: export.CSV: %v", what, err)
	}
	for ask := 0; ask < 2; ask++ {
		var got bytes.Buffer
		cur := m.st.QueryParallel(q, workers)
		_, missed, err := export.CSVCursor(&got, cur, make([]tracer.Entry, batch))
		cur.Close()
		if err != nil || missed != 0 || !bytes.Equal(got.Bytes(), exp.Bytes()) {
			m.failf("%s: CSV export, ask %d: %d bytes, missed %d, %v; export.CSV of the oracle's %d rows: %d bytes",
				what, ask, got.Len(), missed, err, len(rows), exp.Len())
		}
	}
}

// cacheless opens a store without a block cache over a copy of the
// backend and holds its answer to q — row for row, missed included — to
// got and missed, what the store under test answered from header sets.
func (m *storeModel) cacheless(q Query, what string, workers, batch int, got []tracer.Entry, missed uint64) {
	m.t.Helper()
	cfg := m.cfg
	cfg.Backend, cfg.ColdCacheBytes = m.be.inner.Clone(), -1
	bare, err := Open("", cfg)
	if err != nil {
		m.failf("%s: opening a cache-less copy: %v", what, err)
	}
	defer bare.Close()
	cur := bare.QueryParallel(q, workers)
	want, wantMissed := m.drain(what+" (cache-less copy)", cur, batch, true)
	cur.Close()
	if len(got) != len(want) || missed != wantMissed {
		m.failf("%s: %d rows, missed %d; a cache-less copy: %d rows, missed %d", what, len(got), missed, len(want), wantMissed)
	}
	for i := range got {
		if !sameEntry(&got[i], &want[i], true) {
			m.failf("%s: row %d is %+v; a cache-less copy's is %+v", what, i, got[i], want[i])
		}
	}
}

func (m *storeModel) readAgg(q Query, name string) {
	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggTopK, K: 1 + m.p.intn(4), Field: []btql.Field{btql.FTID, btql.FCategory, btql.FCore}[m.p.intn(3)]},
	}
	q.Limit = 0 // an aggregate is over every match
	m.checkAgg(q, specs, name)
	if m.asked = append(m.asked, askedAgg{q, specs, name}); len(m.asked) > 4 {
		m.asked = m.asked[1:]
	}
}

// checkAgg holds q | specs to the oracle three ways: asked, asked again,
// and folded without the block cache's partials.
func (m *storeModel) checkAgg(q Query, specs []btql.AggSpec, name string) {
	want := make([]btql.Result, len(specs))
	matches := m.matches(&q, m.gone, len(m.all))
	for i, spec := range specs {
		ref := spec.New()
		for _, j := range matches {
			ref.ObserveEntry(&m.all[j])
		}
		want[i] = ref.Result()
	}
	check := func(how string, got []btql.Result, missed uint64, err error) {
		if err != nil || missed != 0 {
			m.failf("Aggregate%s%s: missed %d, err %v", name, how, missed, err)
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				m.failf("Aggregate%s%s: %s is %+v, oracle says %+v", name, how, want[i].Kind, got[i], want[i])
			}
		}
	}
	for _, how := range []string{"", ", asked again"} {
		got, missed, err := m.st.Aggregate(q, specs)
		check(how, got, missed, err)
	}
	part, err := m.st.AggregateSnapshot(q).fold(specs, nil, false)
	got := make([]btql.Result, len(part.Aggs))
	for i, a := range part.Aggs {
		got[i] = a.Result()
	}
	check(", folded without partials", got, part.Missed, err)
}

// reask asks the remembered aggregates again, after op. It draws nothing
// from the program.
func (m *storeModel) reask(op string) {
	for _, a := range m.asked {
		m.checkAgg(a.q, a.specs, fmt.Sprintf("%s (re-asked after %s)", a.name, op))
	}
}

// poll drains what a held cursor has to give and checks it against the
// bounds its contract promises: a snapshot pass that delivers nothing
// is over, so poll closes it and checks that delivered + missed covers
// everything it could have seen.
func (m *storeModel) poll(f *follower) {
	got, missed := m.drain(f.name, f.par, 1+m.p.intn(40), f.q.LengthsOnly)
	f.missed += missed
	for i := range got {
		e := &got[i]
		j, ok := m.pos[e.Stamp]
		if !ok || j < f.from || j >= f.upto || !sameEntry(e, &m.all[j], f.q.LengthsOnly) {
			m.failf("%s delivered %+v, which is not an event it could see", f.name, *e)
		}
		// The oracle's copy: a length-only entry has no bytes to match.
		if w := &m.all[j]; !refMatchRaw(&f.q, w) || f.q.Pred != nil && !f.q.Pred.Match(w) {
			m.failf("%s delivered %+v, which its query rejects", f.name, *e)
		}
		if f.seen[e.Stamp] {
			m.failf("%s delivered stamp %d twice", f.name, e.Stamp)
		}
		f.seen[e.Stamp] = true
		if int(e.Stamp) <= f.last {
			m.failf("%s delivered stamp %d out of order", f.name, e.Stamp)
		}
		f.last = int(e.Stamp)
	}
	f.par.Close()
	if want := len(m.matches(&f.q, f.from, f.upto)); uint64(len(f.seen))+f.missed < uint64(want) {
		m.failf("%s delivered %d and missed %d of %d matches", f.name, len(f.seen), f.missed, want)
	}
	m.followers = slices.DeleteFunc(m.followers, func(x *follower) bool { return x == f })
}

func (m *storeModel) closeFollowers() {
	for len(m.followers) > 0 {
		m.poll(m.followers[0])
	}
}

// appendBatch appends a writer's pending batch and records it.
func (m *storeModel) appendBatch(w int) {
	es := m.pending[w]
	m.pending[w] = nil
	if err := m.st.AppendEntries(es); err != nil {
		m.failf("AppendEntries: %v", err)
	}
	for _, e := range es {
		m.pos[e.Stamp] = len(m.all)
		m.all = append(m.all, e)
	}
	m.settle()
}

// step runs one operation of the program.
func (m *storeModel) step(writers int) {
	p := m.p
	switch op := p.intn(32); {
	case op < 10: // a writer reserves a batch of stamps, or appends the one it holds
		w := p.intn(writers)
		if m.pending[w] == nil {
			n, shape := 1+p.intn(200), p.intn(8)
			for i := 0; i < n; i++ {
				m.next++
				m.pending[w] = append(m.pending[w], modelEntry(m.next, shape == 0))
			}
			if shape == 1 {
				slices.Reverse(m.pending[w])
			}
			m.logf("writer %d reserves stamps %d..%d (shape %d)", w, m.next-uint64(n)+1, m.next, shape)
			if p.intn(2) == 0 {
				return
			}
		}
		m.logf("writer %d appends %d events from stamp %d", w, len(m.pending[w]), m.pending[w][0].Stamp)
		m.appendBatch(w)
	case op < 13:
		m.logf("seal")
		if err := m.st.Seal(); err != nil {
			m.failf("Seal: %v", err)
		}
		m.reask("seal")
	case op < 18: // freeze; 13–14 were the row-segment merge, which drew no byte either
		n, err := m.st.CompactCold()
		m.logf("freeze: froze %d", n)
		if err != nil {
			m.failf("CompactCold: %v", err)
		}
		m.reask("freeze")
	case op < 19: // retention takes the oldest one or two sealed segments
		segs, k := m.st.Segments(), 1+p.intn(2)
		var total, cut int64
		var events uint64
		for i, s := range segs {
			total += s.Bytes
			if i < k && s.Sealed && i < len(segs)-1 {
				cut += s.Bytes
				events += s.Events
			}
		}
		m.logf("retention: retires %d events", events)
		if cut == 0 {
			return
		}
		m.st.mu.Lock()
		m.st.cfg.MaxBytes = total - cut
		m.st.enforceRetentionLocked()
		m.st.cfg.MaxBytes = 0
		m.st.mu.Unlock()
		before := m.gone
		m.settle()
		if uint64(m.gone-before) != events {
			m.failf("retention retired %d events, the segment list said %d", m.gone-before, events)
		}
		m.reask("retention")
	case op < 20:
		m.logf("reopen")
		m.closeFollowers()
		if err := m.st.Close(); err != nil {
			m.failf("Close: %v", err)
		}
		m.open(m.be.inner)
		m.settle()
		m.reask("reopen")
	case op < 21: // crash somewhere inside a compactor pass
		m.closeFollowers()
		m.st.maint.waitIdle()
		m.be.arm(true)
		err := m.st.CompactTick()
		m.be.arm(false)
		if err != nil {
			m.failf("CompactTick: %v", err)
		}
		image, label := m.be.inner.Clone(), "the whole pass"
		if n := len(m.be.snaps); n > 0 {
			k := p.intn(n)
			image, label = m.be.snaps[k], m.be.labels[k]
		}
		m.logf("crash: a compactor pass dies after %q (of %d boundaries)", label, len(m.be.snaps))
		m.st.Close() // the crashed process; its backend is not the image
		m.open(image)
		m.settle()
		// Recovery is exactly-once: everything is there, nothing twice.
		m.readPar(Query{}, " after crash", 1)
		m.reask("crash")
	case op < 24:
		q, desc := m.randQuery(true)
		m.logf("Query %s", desc)
		m.readPar(q, "", 1)
	case op < 27:
		q, desc := m.randQuery(true)
		workers := []int{1, 4}[p.intn(2)]
		m.logf("QueryParallel(%d) %s", workers, desc)
		m.readPar(q, "", workers)
	case op < 29:
		q, desc := m.randQuery(false)
		m.logf("Aggregate %s", desc)
		m.readAgg(q, "")
	case op < 31: // hold a cursor open, or poll one
		if k := p.intn(3); k < len(m.followers) {
			f := m.followers[k]
			m.logf("poll %s", f.name)
			m.poll(f)
			return
		}
		q, desc := m.randQuery(false)
		f := &follower{q: q, from: m.gone, upto: len(m.all), last: -1, seen: map[uint64]bool{}}
		// The first Next takes the snapshot; a one-entry batch leaves the
		// rest of the pass for later.
		workers := []int{1, 4}[p.intn(2)]
		f.name = fmt.Sprintf("follower %d (QueryParallel(%d))", len(m.ops), workers)
		f.par = m.st.QueryParallel(q, workers)
		var one [1]tracer.Entry
		n, missed, err := f.par.Next(one[:])
		if err != nil || missed != 0 {
			m.failf("%s: first Next: missed %d, err %v", f.name, missed, err)
		}
		if n == 1 {
			j, ok := m.pos[one[0].Stamp]
			if !ok || !sameEntry(&one[0], &m.all[j], q.LengthsOnly) {
				m.failf("%s delivered %+v, which nobody appended", f.name, one[0])
			}
			f.seen[one[0].Stamp], f.last = true, int(one[0].Stamp)
		}
		m.logf("open %s %s", f.name, desc)
		m.followers = append(m.followers, f)
	default:
		m.logf("sync")
		if err := m.st.Sync(); err != nil {
			m.failf("Sync: %v", err)
		}
	}
}

// runStoreModel interprets prog. The first bytes pick the store's shape:
// segment and block sizes (blocks of one payload chunk and of several),
// the block cache (default, starved, off) and how many writers
// interleave. It returns the reads header sets served.
func runStoreModel(t testing.TB, prog []byte) uint64 {
	m := &storeModel{t: t, p: &modelProg{b: prog}, pos: map[uint64]int{}}
	p := m.p
	m.cfg = Config{
		SegmentBytes:   []int64{16 << 10, 64 << 10}[p.intn(2)],
		ColdAfterNs:    1,
		ColdBlockBytes: []int{2 << 10, 24 << 10}[p.intn(2)],
		ColdCacheBytes: []int64{0, 16 << 10, -1}[p.intn(3)],
	}
	writers := 1 + p.intn(3)
	m.logf("store: segments %d B, cold blocks %d B, cache %d, %d writers",
		m.cfg.SegmentBytes, m.cfg.ColdBlockBytes, m.cfg.ColdCacheBytes, writers)
	m.open(backend.NewObject())
	defer func() { m.st.Close() }()
	for p.more() {
		m.step(writers)
	}
	// Whatever the program left: every reserved batch lands, every held
	// cursor is settled, and both surfaces agree with the oracle on
	// everything — hot tail, sealed segments and cold files alike.
	for w := range m.pending {
		if m.pending[w] != nil {
			m.logf("writer %d appends %d events from stamp %d (flush)", w, len(m.pending[w]), m.pending[w][0].Stamp)
			m.appendBatch(w)
		}
	}
	m.closeFollowers()
	m.logf("final reads")
	if testing.Verbose() {
		t.Logf("%d ops, %d events (%d retired), tiers %+v, %d reads from header sets", len(m.ops), len(m.all), m.gone, m.st.TierStats(), m.headerReads)
	}
	m.readPar(Query{}, " (final)", 1)
	m.readPar(Query{}, " (final)", 4)
	m.readAgg(Query{}, " (final)")
	m.readPar(Query{LengthsOnly: true}, " (final, lengths)", 1)
	m.readPar(Query{LengthsOnly: true}, " (final, lengths)", 4)
	if pred := btql.Compile(&btql.PayloadMatch{Needle: "oom"}); len(m.all) > 0 {
		m.readPar(Query{Pred: pred}, " (final, payload)", 1)
		m.readPar(Query{Pred: pred, LengthsOnly: true}, " (final, payload, lengths)", 1)
		m.readAgg(Query{Pred: pred}, " (final, payload)")
	}
	return m.headerReads
}

// modelProgram is seed's program: uniform bytes, which step's weights
// turn into the op mix.
func modelProgram(seed int64) []byte {
	prog := make([]byte, 320)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

// TestStoreModel runs 32 seeded programs (4 under -short), among which
// header sets must have served some reads.
func TestStoreModel(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	var served uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { served += runStoreModel(t, modelProgram(seed)) })
	}
	if served == 0 && !t.Failed() {
		t.Fatal("no read was served from a header set")
	}
}

// FuzzStoreModel runs arbitrary programs. A failure found here — or a
// failing seed's printed program, dropped into
// testdata/fuzz/FuzzStoreModel — minimises with
//
//	go test ./internal/store -run '^$' -fuzz FuzzStoreModel -fuzzminimizetime 200x
//
// (bounded, because the store's background goroutines make coverage
// vary from run to run and the minimiser chases every variation for its
// default minute). The two committed follower-* entries are programs
// that once found silent-loss bugs.
func FuzzStoreModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(modelProgram(seed))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		runStoreModel(t, prog)
	})
}
