package live

import (
	"bytes"
	"errors"
	"fmt"
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
	cat2, err := h.Subscribe(Filter{Pred: where(btql.In(btql.FCategory, []uint8{2}))})
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
		{"tid in", Filter{TIDs: []uint32{41, 42}}, "", true},
		{"tid out", Filter{TIDs: []uint32{41}}, "", false},
		// The compiled list is sorted and binary-searched; the request's
		// order and duplicates must not matter.
		{"tid in long unsorted list", Filter{TIDs: []uint32{900, 7, 42, 13, 800, 1, 42, 55, 3, 99, 12}}, "", true},
		{"tid out of long list", Filter{TIDs: []uint32{900, 7, 43, 13, 800, 1, 41, 55, 3, 99, 12}}, "", false},
		{"every part at once", Filter{Tenant: "a", TIDs: []uint32{42}, Pred: where(
			btql.Between(btql.FTime, 1, 100), btql.In(btql.FCore, []uint8{2}), btql.In(btql.FCategory, []uint8{3}))}, "a", true},
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
	// Compiling must not reorder the caller's slice.
	f := Filter{TIDs: []uint32{9, 3, 7}}
	f.predicate()
	if f.TIDs[0] != 9 || f.TIDs[1] != 3 || f.TIDs[2] != 7 {
		t.Errorf("compiling sorted the caller's TIDs: %v", f.TIDs)
	}
	// Pred is ANDed with the TIDs, and sees the payload.
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

// where is how these tests spell an event filter: the BTQL predicate of
// es ANDed in order (a nil one adds nothing), match-all for none. How
// /live's field parameters lower to one is tested in btql
// (TestParamsMatch).
func where(es ...btql.Expr) *btql.Predicate { return btql.Compile(btql.AllOf(es...)) }

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := mkEntries(10, 3, 99)
	events[1].Payload = nil // exercise the omitempty path
	for i := range events {
		if err := EncodeFrame(&buf, &events[i]); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(AppendMissed(nil, 17))
	fmt.Fprint(&buf, ": keepalive\n\n")
	buf.Write(AppendEvicted(nil, 42))

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
