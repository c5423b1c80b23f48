package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// mkEntries builds n sequential entries starting at stamp lo, all on
// the given tid, with a small distinguishing payload.
func mkEntries(lo uint64, n int, tid uint32) []tracer.Entry {
	es := make([]tracer.Entry, n)
	for i := range es {
		es[i] = tracer.Entry{
			Stamp:    lo + uint64(i),
			TS:       (lo + uint64(i)) * 10,
			Core:     uint8(i % 4),
			TID:      tid,
			Category: uint8(1 + i%3),
			Level:    1,
			Payload:  []byte{byte(lo + uint64(i)), 0xAB},
		}
	}
	return es
}

// drain reads sub to exhaustion, returning the delivered entries and
// the total missed reported along the way.
func drain(t *testing.T, sub *Sub) ([]tracer.Entry, uint64) {
	t.Helper()
	var out []tracer.Entry
	var missed uint64
	batch := make([]tracer.Entry, 7) // odd size to exercise ring wrap
	for {
		n, m, err := sub.Next(batch)
		missed += m
		out = tracer.CloneEntries(out, batch[:n])
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if n == 0 && m == 0 {
			return out, missed
		}
	}
}

func TestHubFanoutDeliversMatching(t *testing.T) {
	h := NewHub(Config{BufferEvents: 64})
	all, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	cat2, err := h.Subscribe(Filter{Categories: []uint8{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()

	es := mkEntries(1, 30, 7)
	h.Publish("", es)

	got, missed := drain(t, all)
	if len(got) != 30 || missed != 0 {
		t.Fatalf("all-filter sub got %d events, %d missed; want 30, 0", len(got), missed)
	}
	for i, e := range got {
		if e.Stamp != uint64(1+i) {
			t.Fatalf("event %d has stamp %d, want %d", i, e.Stamp, 1+i)
		}
	}

	got2, _ := drain(t, cat2)
	want2 := 0
	for i := range es {
		if es[i].Category == 2 {
			want2++
		}
	}
	if len(got2) != want2 {
		t.Fatalf("category filter delivered %d, want %d", len(got2), want2)
	}
	for _, e := range got2 {
		if e.Category != 2 {
			t.Fatalf("category filter leaked category %d", e.Category)
		}
	}
}

// Published payloads may live in a reusable decode arena; the hub must
// deep-copy at offer time.
func TestHubCopiesPayloads(t *testing.T) {
	h := NewHub(Config{})
	sub, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	payload := []byte{1, 2, 3, 4}
	h.Publish("", []tracer.Entry{{Stamp: 1, Payload: payload}})
	payload[0] = 0xFF // arena reuse after Publish returned

	got, _ := drain(t, sub)
	if len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
	if !bytes.Equal(got[0].Payload, []byte{1, 2, 3, 4}) {
		t.Fatalf("payload aliased the publisher's buffer: %v", got[0].Payload)
	}
}

func TestHubTenantScoping(t *testing.T) {
	h := NewHub(Config{})
	alpha, err := h.Subscribe(Filter{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()

	h.Publish("alpha", mkEntries(1, 5, 1))
	h.Publish("beta", mkEntries(100, 5, 1))
	h.Publish("alpha", mkEntries(6, 5, 1))

	got, _ := drain(t, alpha)
	if len(got) != 10 {
		t.Fatalf("tenant-scoped sub got %d events, want 10", len(got))
	}
	for _, e := range got {
		if e.Stamp >= 100 {
			t.Fatalf("tenant-scoped sub saw beta's stamp %d", e.Stamp)
		}
	}
}

// The satellite contract: a subscriber that stops reading saturates
// missed and is evicted without blocking ingest or other subscribers,
// and the accounting identity delivered + missed == matched holds for
// every subscriber, evicted or not.
func TestHubSlowSubscriberEvicted(t *testing.T) {
	h := NewHub(Config{BufferEvents: 16, EvictAfterMissed: 32})
	slow, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	const total = 200
	var fastGot []tracer.Entry
	var fastMissed uint64
	batch := make([]tracer.Entry, 16)
	for lo := uint64(1); lo <= total; lo += 10 {
		h.Publish("", mkEntries(lo, 10, 3))
		// The fast subscriber keeps up; the slow one never reads.
		for {
			n, m, err := fast.Next(batch)
			fastMissed += m
			fastGot = tracer.CloneEntries(fastGot, batch[:n])
			if err != nil {
				t.Fatalf("fast sub: %v", err)
			}
			if n == 0 {
				break
			}
		}
	}

	// The fast subscriber was never penalized for its peer.
	if len(fastGot) != total || fastMissed != 0 {
		t.Fatalf("fast sub delivered %d missed %d; want %d, 0", len(fastGot), fastMissed, total)
	}
	for i, e := range fastGot {
		if e.Stamp != uint64(1+i) {
			t.Fatalf("fast sub out of order at %d: stamp %d", i, e.Stamp)
		}
	}

	// The slow subscriber was evicted and detached from the hub.
	if h.Subscribers() != 1 {
		t.Fatalf("hub has %d subscribers, want 1 after eviction", h.Subscribers())
	}
	st := slow.Stats()
	if !st.Evicted {
		t.Fatalf("slow subscriber not marked evicted: %+v", st)
	}
	n, missed, err := slow.Next(batch)
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("slow sub Next = (%d, %d, %v), want ErrEvicted", n, missed, err)
	}
	// Identity: everything matched while attached was either delivered
	// or accounted missed (delivered is 0 here; the final missed tally
	// came through the ErrEvicted read). Events published after the
	// eviction are no longer the subscriber's — matched stops with it.
	st = slow.Stats()
	if st.Delivered+st.Missed != st.Matched {
		t.Fatalf("identity broken for evicted sub: delivered %d + missed %d != matched %d",
			st.Delivered, st.Missed, st.Matched)
	}
	if st.Matched == 0 || st.Matched > total {
		t.Fatalf("evicted sub matched %d of %d published", st.Matched, total)
	}
	if uint64(n)+missed == 0 {
		t.Fatal("eviction reported no missed count")
	}
	slow.Close()
}

// A subscriber that reads too slowly (but is not evicted) sees exact
// overwrite accounting through the missed return.
func TestHubMissedAccounting(t *testing.T) {
	h := NewHub(Config{BufferEvents: 16, EvictAfterMissed: 1 << 20})
	sub, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	h.Publish("", mkEntries(1, 100, 1)) // 100 into a 16-ring: 84 missed
	got, missed := drain(t, sub)
	if len(got) != 16 || missed != 84 {
		t.Fatalf("delivered %d missed %d; want 16, 84", len(got), missed)
	}
	// The survivors are the newest 16, still in order.
	for i, e := range got {
		if e.Stamp != uint64(85+i) {
			t.Fatalf("survivor %d has stamp %d, want %d", i, e.Stamp, 85+i)
		}
	}
	st := sub.Stats()
	if st.Delivered+st.Missed != st.Matched {
		t.Fatalf("identity broken: %+v", st)
	}
}

func TestHubSubscriberCap(t *testing.T) {
	h := NewHub(Config{MaxSubscribers: 2})
	a, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Subscribe(Filter{}); !errors.Is(err, ErrSubscribers) {
		t.Fatalf("third subscribe: %v, want ErrSubscribers", err)
	}
	// Closing frees the slot.
	b.Close()
	c, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
	c.Close()
}

func TestSubCloseSemantics(t *testing.T) {
	h := NewHub(Config{})
	sub, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if h.Subscribers() != 0 {
		t.Fatalf("%d subscribers after close", h.Subscribers())
	}
	if _, _, err := sub.Next(make([]tracer.Entry, 4)); !errors.Is(err, tracer.ErrClosed) {
		t.Fatalf("Next after Close: %v, want ErrClosed", err)
	}
	// Publishing to a hub whose only subscriber closed is a no-op.
	h.Publish("", mkEntries(1, 4, 1))
}

// Concurrent publishers against a draining subscriber: the identity
// must hold exactly once everything quiesces (run under -race in CI).
func TestHubConcurrentPublish(t *testing.T) {
	h := NewHub(Config{BufferEvents: 128, EvictAfterMissed: 1 << 30})
	sub, err := h.Subscribe(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const publishers = 4
	const batches = 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				h.Publish("", mkEntries(uint64(p*10000+i*10+1), 10, uint32(p)))
			}
		}(p)
	}
	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		batch := make([]tracer.Entry, 64)
		final := false
		for {
			n, m, err := sub.Next(batch)
			if err != nil {
				t.Errorf("sub.Next: %v", err)
				return
			}
			if n == 0 && m == 0 {
				if final {
					return
				}
				select {
				case <-sub.Notify():
				case <-stop:
					final = true // publishers done: one last exhaustive drain
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-drained

	st := sub.Stats()
	if st.Delivered+st.Missed != st.Matched || st.Matched != publishers*batches*10 {
		t.Fatalf("identity broken under concurrency: %+v", st)
	}
}

func TestFilterMatch(t *testing.T) {
	e := tracer.Entry{Stamp: 5, TS: 100, Core: 2, TID: 42, Category: 3, Level: 1}
	cases := []struct {
		name   string
		f      Filter
		tenant string
		want   bool
	}{
		{"empty matches", Filter{}, "anyone", true},
		{"tenant match", Filter{Tenant: "a"}, "a", true},
		{"tenant mismatch", Filter{Tenant: "a"}, "b", false},
		{"ts window in", Filter{MinTS: 100, MaxTS: 100}, "", true},
		{"ts below", Filter{MinTS: 101}, "", false},
		{"ts above", Filter{MaxTS: 99}, "", false},
		{"core in", Filter{Cores: []uint8{1, 2}}, "", true},
		{"core out", Filter{Cores: []uint8{1}}, "", false},
		{"category in", Filter{Categories: []uint8{3}}, "", true},
		{"category out", Filter{Categories: []uint8{4}}, "", false},
		{"tid in", Filter{TIDs: []uint32{41, 42}}, "", true},
		{"tid out", Filter{TIDs: []uint32{41}}, "", false},
		// The compiled list is sorted and binary-searched; the request's
		// order and duplicates must not matter.
		{"tid in long unsorted list", Filter{TIDs: []uint32{900, 7, 42, 13, 800, 1, 42, 55, 3, 99, 12}}, "", true},
		{"tid out of long list", Filter{TIDs: []uint32{900, 7, 43, 13, 800, 1, 41, 55, 3, 99, 12}}, "", false},
		{"core set spans all four words", Filter{Cores: []uint8{0, 64, 128, 255, 2}}, "", true},
		{"category 255 only", Filter{Categories: []uint8{255}}, "", false},
		{"every list at once", Filter{Tenant: "a", MinTS: 1, MaxTS: 100, Cores: []uint8{2}, Categories: []uint8{3}, TIDs: []uint32{42}}, "a", true},
	}
	// match is what Hub.Publish does with the filter: Sub.offer itself,
	// on a batch of one.
	match := func(f Filter, tenant string, e *tracer.Entry) bool {
		sub, err := NewHub(Config{BufferEvents: 1}).Subscribe(f)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		matched, _ := sub.offer(tenant, []tracer.Entry{*e})
		return matched == 1
	}
	for _, c := range cases {
		if got := match(c.f, c.tenant, &e); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
	// The uint8 sets at their edges.
	edge := tracer.Entry{Core: 255, Category: 0}
	if !match(Filter{Cores: []uint8{255}, Categories: []uint8{0}}, "", &edge) {
		t.Error("core 255 / category 0 not matched by a filter naming them")
	}
	// Compiling must not reorder the caller's slice.
	f := Filter{TIDs: []uint32{9, 3, 7}}
	f.predicate()
	if f.TIDs[0] != 9 || f.TIDs[1] != 3 || f.TIDs[2] != 7 {
		t.Errorf("compiling sorted the caller's TIDs: %v", f.TIDs)
	}
	// Pred is ANDed with the fields, and sees the payload.
	pred := func(src string) *btql.Predicate {
		q, err := btql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return q.Predicate()
	}
	e.Payload = []byte("gc pause")
	for _, c := range []struct {
		name string
		f    Filter
		want bool
	}{
		{"pred alone", Filter{Pred: pred(`payload contains "pause" && stamp == 5`)}, true},
		{"pred misses", Filter{Pred: pred(`payload contains "oom"`)}, false},
		{"pred and fields", Filter{TIDs: []uint32{42}, Pred: pred("level == 1")}, true},
		{"fields veto pred", Filter{TIDs: []uint32{41}, Pred: pred("level == 1")}, false},
		{"pred vetoes fields", Filter{TIDs: []uint32{42}, Pred: pred("level == 2")}, false},
	} {
		if got := match(c.f, "", &e); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
}

// refMatcher is the filter evaluator Sub.offer had before the fields
// were lowered to a btql.Predicate, kept as what the lowering is pinned
// to: 256-bit sets for the two uint8 lists (an empty list is the full
// set), a sorted TID list, MaxTS 0 unbounded.
type refMatcher struct {
	minTS, maxTS uint64
	cores, cats  [4]uint64
	tids         []uint32 // sorted; empty = all
}

func refCompile(f *Filter) refMatcher {
	bitset := func(xs []uint8) (set [4]uint64) {
		if len(xs) == 0 {
			return [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
		for _, x := range xs {
			set[x>>6] |= 1 << (x & 63)
		}
		return set
	}
	m := refMatcher{minTS: f.MinTS, maxTS: f.MaxTS, cores: bitset(f.Cores), cats: bitset(f.Categories), tids: slices.Clone(f.TIDs)}
	if m.maxTS == 0 {
		m.maxTS = ^uint64(0)
	}
	slices.Sort(m.tids)
	return m
}

func (m *refMatcher) entry(e *tracer.Entry) bool {
	if e.TS < m.minTS || e.TS > m.maxTS ||
		m.cores[e.Core>>6]>>(e.Core&63)&1 == 0 ||
		m.cats[e.Category>>6]>>(e.Category&63)&1 == 0 {
		return false
	}
	if len(m.tids) == 0 {
		return true
	}
	_, ok := slices.BinarySearch(m.tids, e.TID)
	return ok
}

// tidSet is an exact stand-in for a cold block's TID bloom.
type tidSet map[uint32]bool

func (s tidSet) MayContainTID(tid uint32) bool { return s[tid] }

// TestFilterLoweringMatchesMatcher: random field combinations against
// random runs of entries. The lowered predicate's Match and MatchHeader
// are the old matcher's verdict event for event, and its MatchMeta —
// what the same parameters cost a /store/query — never prunes a run
// that holds a match, with and without the TID range and bloom a cold
// block's header carries.
func TestFilterLoweringMatchesMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Byte-wide values sit on and around the presence bitmaps' bit 63.
	u8 := func() uint8 { return []uint8{0, 1, 2, 63, 64, 200, 255}[rng.Intn(7)] }
	u8s := func() []uint8 {
		xs := make([]uint8, rng.Intn(4))
		for i := range xs {
			xs[i] = u8()
		}
		return xs
	}
	for round := 0; round < 2000; round++ {
		var f Filter
		if rng.Intn(2) == 0 {
			f.MinTS = uint64(rng.Intn(1200))
		}
		if rng.Intn(2) == 0 {
			f.MaxTS = f.MinTS + uint64(rng.Intn(600))
		}
		if rng.Intn(2) == 0 {
			f.Cores = u8s()
		}
		if rng.Intn(2) == 0 {
			f.Categories = u8s()
		}
		if rng.Intn(2) == 0 {
			f.TIDs = make([]uint32, rng.Intn(40))
			for i := range f.TIDs {
				f.TIDs[i] = uint32(rng.Intn(60)) << uint(rng.Intn(3)*8)
			}
		}
		ref, p := refCompile(&f), f.predicate()

		es := make([]tracer.Entry, 1+rng.Intn(24))
		sum := btql.Meta{MinStamp: 1, MaxStamp: uint64(len(es)), MinTS: ^uint64(0), HasTID: round%2 == 0, MinTID: ^uint32(0)}
		tids := tidSet{}
		held := false
		for i := range es {
			e := &es[i]
			*e = tracer.Entry{
				Stamp: uint64(i + 1), TS: uint64(rng.Intn(1500)), Core: u8(), Category: u8(),
				TID: uint32(rng.Intn(60)) << uint(rng.Intn(3)*8), Level: uint8(rng.Intn(4)),
			}
			sum.MinTS, sum.MaxTS = min(sum.MinTS, e.TS), max(sum.MaxTS, e.TS)
			sum.MinTID, sum.MaxTID = min(sum.MinTID, e.TID), max(sum.MaxTID, e.TID)
			sum.CoreBits |= 1 << min(e.Core, 63)
			sum.CatBits |= 1 << min(e.Category, 63)
			tids[e.TID] = true
			want := ref.entry(e)
			held = held || want
			if got := p.Match(e); got != want {
				t.Fatalf("round %d: %+v on %+v: Match = %v, the matcher says %v (lowered to %v)", round, f, *e, got, want, p.Expr())
			}
			if got := p.MatchHeader(e.Stamp, e.TS, e.Core, e.TID, e.Category, e.Level); got != want {
				t.Fatalf("round %d: %+v on %+v: MatchHeader = %v, the matcher says %v", round, f, *e, got, want)
			}
		}
		if round%4 == 0 {
			sum.TIDs = tids
		}
		if held && !p.MatchMeta(&sum) {
			t.Fatalf("round %d: %+v (lowered to %v) prunes a run holding a match: %+v", round, f, p.Expr(), sum)
		}
	}
}

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := mkEntries(10, 3, 99)
	events[1].Payload = nil // exercise the omitempty path
	for i := range events {
		if err := EncodeFrame(&buf, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := EncodeMissed(&buf, 17); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(&buf, ": keepalive\n\n")
	if err := EncodeEvicted(&buf, 42); err != nil {
		t.Fatal(err)
	}

	sr := NewStreamReader(&buf)
	for i := range events {
		ev, data, err := sr.Next()
		if err != nil || ev != EventTrace {
			t.Fatalf("frame %d: event %q err %v", i, ev, err)
		}
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		want := events[i]
		if got.Stamp != want.Stamp || got.TS != want.TS || got.Core != want.Core ||
			got.TID != want.TID || got.Category != want.Category || got.Level != want.Level ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round-trip: got %+v want %+v", i, got, want)
		}
	}
	ev, data, err := sr.Next()
	if err != nil || ev != EventMissed {
		t.Fatalf("missed event: %q, %v", ev, err)
	}
	if n, err := ParseCount(data); err != nil || n != 17 {
		t.Fatalf("missed count %d, %v", n, err)
	}
	ev, data, err = sr.Next()
	if err != nil || ev != EventEvicted {
		t.Fatalf("evicted event: %q, %v (keepalive not skipped?)", ev, err)
	}
	if n, err := ParseCount(data); err != nil || n != 42 {
		t.Fatalf("evicted count %d, %v", n, err)
	}
}
