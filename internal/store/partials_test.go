package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// Per-segment aggregate partials (aggregate.go, blockcache.go): what a
// repeated aggregate is served from, and what must never be.

// aggOracle folds the entries q selects, row by row, into fresh
// aggregators.
func aggOracle(es []tracer.Entry, q Query, specs []btql.AggSpec) []btql.Result {
	out := make([]btql.Result, len(specs))
	for i := range specs {
		a := specs[i].New()
		for j := range es {
			if e := &es[j]; q.Pred == nil || q.Pred.Match(e) {
				a.ObserveEntry(e)
			}
		}
		out[i] = a.Result()
	}
	return out
}

// countingBackend counts OpenRead calls by file.
type countingBackend struct {
	backend.Backend
	mu    sync.Mutex
	opens map[string]int
}

func (b *countingBackend) OpenRead(name string) (backend.ReadFile, error) {
	b.mu.Lock()
	b.opens[name]++
	b.mu.Unlock()
	return b.Backend.OpenRead(name)
}

// take returns the opens counted since the last take.
func (b *countingBackend) take() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := b.opens
	b.opens = map[string]int{}
	return got
}

// partialsFixture builds, and closes, a directory holding a sealed
// segment of every kind a fold can meet: cold files of format v1
// (stamps 1–500), v2 (501–1100) and v3 (1101–1700), hot ordered row
// segments (1701–1800, 1801–2200, 2201–2300, 2301–2400) and a hot one two
// writers interleaved (2401–2600, unordered). It returns the directory
// and the entries in it.
func partialsFixture(t *testing.T) (string, []tracer.Entry) {
	t.Helper()
	st := openV1V2Directory(t)
	sealEvery(t, st, 1201, 1800, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	sealEvery(t, st, 1801, 2200, 400)
	sealEvery(t, st, 2201, 2400, 100)
	mixed := mkRange(2401, 2600)
	rand.New(rand.NewSource(24)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	if err := st.AppendEntries(mixed); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	versions, tiers, unordered := map[int]bool{}, map[string]bool{}, false
	for _, b := range st.ColdBlocks() {
		versions[b.Version] = true
	}
	for _, s := range st.Segments() {
		tiers[s.Tier] = true
		unordered = unordered || !s.Ordered
	}
	if len(versions) != 3 || len(tiers) != 2 || !unordered || len(st.Segments()) != 8 {
		t.Fatalf("fixture lacks a case: cold versions %v, tiers %v, unordered %v, segments %+v", versions, tiers, unordered, st.Segments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st.Dir(), mkRange(1, 2600)
}

// openCounting opens a copy of dir with the given block-cache budget
// over a backend that counts opens.
func openCounting(t *testing.T, dir string, cacheBytes int64) (*Store, *countingBackend) {
	t.Helper()
	lb, err := local.New(copyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	be := &countingBackend{Backend: lb, opens: map[string]int{}}
	cfg := tierCfg()
	cfg.ColdCacheBytes = cacheBytes
	st, err := OpenBackend(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, be
}

// TestAggregatePartials: over sealed segments of every kind, every
// aggregate under every shape of filter answers the same the first time
// (folding), the second time (from partials) and on a store without a
// block cache; a repeat over a quiesced store opens the active segment
// and the segments a window's bound cuts through, and nothing else; and
// a freeze or retention leaves nothing behind that a later fold finds.
func TestAggregatePartials(t *testing.T) {
	dir, all := partialsFixture(t)
	st, be := openCounting(t, dir, 0)
	bare, _ := openCounting(t, dir, -1)
	for _, s := range []*Store{st, bare} {
		appendRange(t, s, 2601, 2650) // the active segment
	}
	all = append(all, mkRange(2601, 2650)...)
	active := st.Segments()[8].File

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggRate, WindowNs: 100_000},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
		{Kind: btql.AggTopK, K: 2, Field: btql.FCategory},
		{Kind: btql.AggTopK, K: 2, Field: btql.FCore},
	}
	// cut names the sealed segments whose stamps lo or hi falls inside of
	// without being their first or last: the boundary segments.
	cut := func(lo, hi uint64) []string {
		names := []string{}
		for _, s := range st.Segments() {
			if s.Sealed && (s.BaseStamp < lo && lo <= s.MaxStamp || s.BaseStamp <= hi && hi < s.MaxStamp) {
				names = append(names, s.File)
			}
		}
		return names
	}
	queries := []struct {
		name string
		q    Query
		// reread is the files a repeat must open, once each.
		reread []string
	}{
		{"all", Query{}, []string{active}},
		{"category", Query{Pred: predOf(t, `category == 2`)}, []string{active}},
		{"tid-payload", Query{Pred: predOf(t, `tid == 3 && payload contains "7"`)}, []string{active}},
		// Cuts the v3 cold file and a hot segment; ends before the active one.
		{"stamp-window", Query{Pred: predOf(t, `stamp >= 1250 && stamp <= 2250`)}, cut(1250, 2250)},
		// TS is stamp*1000: cuts the v1 cold file and the interleaved segment.
		{"ts-window", Query{Pred: predOf(t, `category != 4 && time >= 450000 && time < 2450500`)}, cut(450, 2450)},
	}
	if len(queries[3].reread) != 2 || len(queries[4].reread) != 2 {
		t.Fatalf("windows cut %v and %v, want two segments each", queries[3].reread, queries[4].reread)
	}
	ask := func(s *Store, q Query, spec btql.AggSpec) btql.Result {
		t.Helper()
		res, missed, err := s.Aggregate(q, []btql.AggSpec{spec})
		if err != nil || missed != 0 {
			t.Fatalf("Aggregate: missed %d, %v", missed, err)
		}
		return res[0]
	}
	check := func(when string) {
		t.Helper()
		for _, tc := range queries {
			for _, spec := range specs {
				want := aggOracle(all, tc.q, []btql.AggSpec{spec})[0]
				if want.Events == 0 {
					t.Fatalf("%s | %s: the oracle matches nothing", tc.name, &spec)
				}
				for _, got := range []btql.Result{ask(st, tc.q, spec), ask(st, tc.q, spec), ask(bare, tc.q, spec)} {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s | %s: %+v, want %+v", when, tc.name, &spec, got, want)
					}
				}
			}
		}
	}
	check("first and second asks")

	// A window in the field form shares the entries of its BTQL spelling,
	// and a window that moves those of the one before it.
	for _, q := range []Query{
		{Pred: where(btql.Between(btql.FStamp, 1250, 2250))},
		{Pred: where(btql.Between(btql.FStamp, 1150, 2350))},
		{Pred: where(btql.Between(btql.FTime, 450_000, 2_450_499), predOf(t, `category != 4`).Expr())},
	} {
		before := st.Stats()
		ask(st, q, specs[0])
		if after := st.Stats(); after.AggPartialMisses != before.AggPartialMisses || after.AggPartialHits == before.AggPartialHits {
			t.Fatalf("%+v folded a segment its BTQL spelling had: %+v -> %+v", q, before, after)
		}
	}

	// Quiesced: a repeat opens what it has to re-read and nothing else,
	// and inflates and decodes nothing.
	for _, tc := range queries {
		for _, spec := range specs {
			be.take()
			s0, c0 := st.Stats(), st.bcache.classCounters()
			ask(st, tc.q, spec)
			s1, c1 := st.Stats(), st.bcache.classCounters()
			want := map[string]int{}
			for _, name := range tc.reread {
				want[name] = 1
			}
			if got := be.take(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s | %s: a repeat opened %v, want %v", tc.name, &spec, got, want)
			}
			if s1.PayloadInflatedBytes != s0.PayloadInflatedBytes || s1.AggPartialMisses != s0.AggPartialMisses ||
				c1.misses[classMeta] != c0.misses[classMeta] || c1.misses[classColumn] != c0.misses[classColumn] {
				t.Errorf("%s | %s: a repeat inflated, decoded or folded again: %+v %v -> %+v %v", tc.name, &spec, s0, c0.misses, s1, c1.misses)
			}
			if hits := int(s1.AggPartialHits - s0.AggPartialHits); hits == 0 {
				t.Errorf("%s | %s: a repeat was served no partial", tc.name, &spec)
			}
		}
	}

	// A freeze replaces the five hot segments with one cold file: their
	// partials must not answer for it.
	for _, s := range []*Store{st, bare} {
		if n, err := s.CompactCold(); err != nil || n != 5 {
			t.Fatalf("CompactCold: froze %d, %v; want the five hot segments", n, err)
		}
	}
	s0 := st.Stats()
	ask(st, Query{}, specs[0])
	s1 := st.Stats()
	if hits, misses := s1.AggPartialHits-s0.AggPartialHits, s1.AggPartialMisses-s0.AggPartialMisses; hits != 3 || misses != 1 {
		t.Fatalf("after the freeze: %d partials served and %d folded, want 3 and 1 (the new cold file)", hits, misses)
	}
	check("after the freeze")

	// Retention takes the v1 cold file: its partials are never asked for.
	for _, s := range []*Store{st, bare} {
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
		if got := s.Segments(); len(got) != len(segs)-1 || got[0].BaseStamp != 501 {
			t.Fatalf("retention left %+v", got)
		}
	}
	all = all[500:]
	s0 = st.Stats()
	ask(st, Query{}, specs[0])
	s1 = st.Stats()
	if hits, misses := s1.AggPartialHits-s0.AggPartialHits, s1.AggPartialMisses-s0.AggPartialMisses; hits != 3 || misses != 0 {
		t.Fatalf("after retention: %d partials served and %d folded, want 3 and 0", hits, misses)
	}
	queries[4].q.Pred = predOf(t, `category != 4 && time >= 650000 && time < 2450500`)
	check("after retention")
}

// TestAggregatePartialsConcurrent: two readers repeat two aggregates
// while a writer appends and seals and the compactor and retention run.
// The writer appends in stamp order, so every count lies between the
// events held when the ask began and those appended when it ended, less
// what retention took. Run under -race.
func TestAggregatePartialsConcurrent(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	cfg := tierCfg()
	// Retention must fire however many rounds run: 64 KiB at 60.
	cfg.MaxBytes = int64(rounds) * 64 << 10 / 60
	st, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Stamps up to appended are in the store; none past reserved is.
	var mu sync.Mutex
	var appended, reserved uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	queries := []Query{{}, {Pred: predOf(t, `category == 2`)}}
	for r := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := []btql.AggSpec{{Kind: btql.AggCount}, {Kind: btql.AggTopK, K: 2, Field: btql.FTID}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				lo := appended
				mu.Unlock()
				res, missed, err := st.Aggregate(queries[r], spec)
				mu.Lock()
				hi := reserved
				mu.Unlock()
				if err != nil {
					report("reader %d: %v", r, err)
					return
				}
				// Every stamp in [first held, lo] was there throughout
				// unless retention took it (missed bounds what it took
				// mid-pass); nothing past hi was.
				held := st.Segments()
				first := hi + 1
				if len(held) > 0 && held[0].Events > 0 {
					first = held[0].BaseStamp
				}
				match := func(from, to uint64) (n uint64) {
					for s := from; s <= to; s++ {
						if r == 0 || s%5 == 2 {
							n++
						}
					}
					return n
				}
				if max := match(1, hi); res[0].Events > max {
					report("reader %d: counted %d with %d matches appended", r, res[0].Events, max)
					return
				}
				if min := match(first, lo); res[0].Events+missed < min && first <= lo {
					report("reader %d: counted %d (+%d missed), %d matches in %d..%d held throughout", r, res[0].Events, missed, min, first, lo)
					return
				}
				var top uint64
				for _, v := range res[1].Top {
					top += v.Count
				}
				if top > res[0].Events {
					report("reader %d: topk counts %d of %d events", r, top, res[0].Events)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		from := uint64(i)*100 + 1
		mu.Lock()
		reserved = from + 99
		mu.Unlock()
		appendRange(t, st, from, from+99)
		mu.Lock()
		appended = from + 99
		mu.Unlock()
		if i%3 != 2 {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 3 {
			if err := st.CompactTick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	// At rest the readers' partials must add up to what is held.
	held := st.Segments()
	want := aggOracle(mkRange(held[0].BaseStamp, appended), queries[1], []btql.AggSpec{{Kind: btql.AggCount}})
	for round := 0; round < 2; round++ {
		got, _, err := st.Aggregate(queries[1], []btql.AggSpec{{Kind: btql.AggCount}})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("at rest: %+v (%v), want %+v", got, err, want)
		}
	}
	if s := st.Stats(); s.AggPartialHits == 0 || s.SegmentsDeleted == 0 || s.ColdCompactions == 0 {
		t.Fatalf("the run exercised too little: %+v", s)
	}
}
