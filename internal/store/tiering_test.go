package store

import (
	"bytes"
	"testing"

	"btrace/internal/tracer"
)

// sealEvery appends [from,to] in runs of step events, sealing after each
// run — manufacturing the small sealed segments freezing acts on.
func sealEvery(t *testing.T, st *Store, from, to, step uint64) {
	t.Helper()
	for s := from; s <= to; s += step {
		end := s + step - 1
		if end > to {
			end = to
		}
		appendRange(t, st, s, end)
		if err := st.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
}

// tierCfg is the common tiering test config: small segments, freezing
// enabled with a 1ns age threshold (every sealed segment except the one
// holding the newest timestamp is immediately eligible), small cold
// blocks so files hold several.
func tierCfg() Config {
	return Config{SegmentBytes: 32 << 10, ColdAfterNs: 1, ColdBlockBytes: 4 << 10}
}

func TestFreezeBuildsColdTier(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 1200
	sealEvery(t, st, 1, n, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	ts := st.TierStats()
	if ts[TierCold].Segments == 0 {
		t.Fatalf("no cold segments after CompactTick: %+v", ts)
	}
	if ts[TierCold].Blocks == 0 || ts[TierCold].Events == 0 {
		t.Fatalf("cold tier missing blocks/events: %+v", ts[TierCold])
	}
	stats := st.Stats()
	if stats.ColdCompactions == 0 || stats.SegmentsFrozen == 0 || stats.ColdBlocksBuilt == 0 {
		t.Fatalf("freeze stats not recorded: %+v", stats)
	}
	if stats.ColdBytesWritten >= stats.ColdRawBytes {
		t.Fatalf("cold tier did not shrink: wrote %d of %d raw bytes",
			stats.ColdBytesWritten, stats.ColdRawBytes)
	}

	// Both cursors must read transparently across all tiers.
	es := drainStore(t, st, Query{})
	if len(es) != n {
		t.Fatalf("one-worker drain across tiers: %d events, want %d", len(es), n)
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
	pc := st.QueryParallel(Query{}, 3)
	pes, _ := drainParallel(t, pc, 64)
	pc.Close()
	if len(pes) != n {
		t.Fatalf("parallel drain across tiers: %d events, want %d", len(pes), n)
	}
	for i, e := range pes {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("parallel event %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
}

func TestColdReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	sealEvery(t, st, 1, n, 80)
	if err := st.CompactTick(); err != nil {
		t.Fatal(err)
	}
	frozen := st.Stats().SegmentsFrozen
	if frozen == 0 {
		t.Fatal("nothing frozen; test would not exercise cold recovery")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts := st2.TierStats()
	if ts[TierCold].Segments == 0 {
		t.Fatalf("cold segments lost across reopen: %+v", ts)
	}
	es := drainStore(t, st2, Query{})
	if len(es) != n {
		t.Fatalf("reopened store drained %d events, want %d", len(es), n)
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d", i, e.Stamp)
		}
	}
	// The store keeps accepting appends and freezing them.
	sealEvery(t, st2, n+1, n+200, 50)
	if err := st2.CompactTick(); err != nil {
		t.Fatal(err)
	}
	if es = drainStore(t, st2, Query{}); len(es) != n+200 {
		t.Fatalf("after reopen+append: %d events, want %d", len(es), n+200)
	}
}

// TestColdPruningSkipsDecompression corrupts the compressed payload of a
// known cold block, then checks that a stamp-bounded query which prunes
// that block by its header metadata still succeeds — proof the pruned
// block was never read or inflated — while an unbounded query fails with
// a corruption error from both cursor implementations.
func TestColdPruningSkipsDecompression(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 1200
	sealEvery(t, st, 1, n, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	// Find a cold segment with at least two blocks and corrupt the last
	// block's payload.
	st.mu.Lock()
	var victim *segment
	for _, s := range st.segs {
		if s.isCold() && len(s.blocks) >= 2 {
			victim = s
			break
		}
	}
	st.mu.Unlock()
	if victim == nil {
		t.Fatal("no multi-block cold segment; shrink ColdBlockBytes")
	}
	bad := victim.blocks[len(victim.blocks)-1]
	f, err := st.Backend().OpenRW(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, bad.compLen)
	for i := range junk {
		junk[i] = 0xff
	}
	if _, err := f.WriteAt(junk, bad.off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Every stamp below the corrupt block's range: both cursors must
	// prune the bad block from its header alone and succeed.
	q := Query{MaxStamp: bad.meta.baseStamp - 1}
	want := int(bad.meta.baseStamp - 1)
	if es := drainStore(t, st, q); len(es) != want {
		t.Fatalf("pruned one-worker query: %d events, want %d", len(es), want)
	}
	pc := st.QueryParallel(q, 2)
	if pes, _ := drainParallel(t, pc, 64); len(pes) != want {
		t.Fatalf("pruned parallel query: %d events, want %d", len(pes), want)
	}
	pc.Close()

	// An unbounded query must hit the corruption, not return bad data.
	cur := st.Query(Query{})
	_, err = tracer.Drain(cur, 64)
	cur.Close()
	if err == nil {
		t.Fatal("one-worker query over corrupt block succeeded")
	}
	pc = st.QueryParallel(Query{}, 2)
	buf := make([]tracer.Entry, 64)
	for err = nil; err == nil; {
		var k int
		k, _, err = pc.Next(buf)
		if k == 0 && err == nil {
			break
		}
	}
	pc.Close()
	if err == nil {
		t.Fatal("parallel query over corrupt block succeeded")
	}
}

// TestColdQueryFilters mirrors TestQueryFilters over a majority-cold
// store: filtered queries agree between the one-worker and parallel
// cursors and with the expected predicate.
func TestColdQueryFilters(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 1000
	sealEvery(t, st, 1, n, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		q    Query
		keep func(e *tracer.Entry) bool
	}{
		{Query{MinStamp: 200, MaxStamp: 700}, func(e *tracer.Entry) bool { return e.Stamp >= 200 && e.Stamp <= 700 }},
		{Query{Cores: []uint8{1}}, func(e *tracer.Entry) bool { return e.Core == 1 }},
		{Query{Categories: []uint8{2, 3}}, func(e *tracer.Entry) bool { return e.Category == 2 || e.Category == 3 }},
		{Query{MinTS: 300_000, MaxTS: 600_000}, func(e *tracer.Entry) bool { return e.TS >= 300_000 && e.TS <= 600_000 }},
		{Query{Limit: 123}, nil},
	}
	for qi, tc := range queries {
		want := 0
		if tc.keep != nil {
			for s := uint64(1); s <= n; s++ {
				e := mkEntry(s)
				if tc.keep(&e) {
					want++
				}
			}
		} else {
			want = tc.q.Limit
		}
		if es := drainStore(t, st, tc.q); len(es) != want {
			t.Fatalf("query %d one-worker: %d events, want %d", qi, len(es), want)
		}
		pc := st.QueryParallel(tc.q, 3)
		pes, _ := drainParallel(t, pc, 64)
		pc.Close()
		if len(pes) != want {
			t.Fatalf("query %d parallel: %d events, want %d", qi, len(pes), want)
		}
	}
}

// TestColdRetention checks that retention retires whole cold files like
// any other segment.
func TestColdRetention(t *testing.T) {
	cfg := tierCfg()
	st, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 2000, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	before := st.TierStats()[TierCold].Segments
	if before == 0 {
		t.Fatal("nothing frozen")
	}
	// Shrink the budget under the current size and trigger retention via
	// an append.
	budget := st.Size() / 4
	st.mu.Lock()
	st.cfg.MaxBytes = budget
	st.mu.Unlock()
	appendRange(t, st, 2001, 2100)
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().SegmentsDeleted; got == 0 {
		t.Fatalf("retention deleted nothing (cold segments: %d)", before)
	}
	if es := drainStore(t, st, Query{MinStamp: 2001}); len(es) != 100 {
		t.Fatalf("newest data lost to retention: %d events, want 100", len(es))
	}
}

// TestParallelCursorAcrossFreeze freezes everything in the middle of a
// pass, then appends more: the pass still yields every event of its
// snapshot exactly once (or counts it in missed, where the freeze
// deleted a source before its stream opened it) and nothing newer.
func TestParallelCursorAcrossFreeze(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 500, 50)
	pc := st.QueryParallel(Query{}, 2)
	defer pc.Close()
	buf := make([]tracer.Entry, 8)
	n, missed, err := pc.Next(buf)
	if n != 8 || err != nil {
		t.Fatalf("first Next = (%d, %d, %v), want 8 entries", n, missed, err)
	}
	es := tracer.CloneEntries(nil, buf[:n])
	sealEvery(t, st, 501, 600, 50)
	if n, err := st.CompactCold(); err != nil || n == 0 {
		t.Fatalf("CompactCold = (%d, %v), want the snapshot's segments frozen", n, err)
	}
	rest, m := drainParallel(t, pc, 64)
	es, missed = append(es, rest...), missed+m
	if uint64(len(es))+missed < 500 {
		t.Fatalf("delivered %d + missed %d under-reports the 500 of the snapshot", len(es), missed)
	}
	var last uint64
	for i, e := range es {
		if e.Stamp <= last || e.Stamp > 500 {
			t.Fatalf("event %d: stamp %d after %d", i, e.Stamp, last)
		}
		last = e.Stamp
	}
	// A new cursor reads the frozen store whole.
	pc2 := st.QueryParallel(Query{}, 2)
	defer pc2.Close()
	if es, missed := drainParallel(t, pc2, 64); len(es) != 600 || missed != 0 {
		t.Fatalf("new cursor: %d events (missed %d), want 600 (0)", len(es), missed)
	}
}

// TestBlockCacheServesRepeatedColdQueries checks the decompressed-block
// cache end to end: the first cold scan misses and fills it, repeat
// scans (one-worker and parallel alike) hit without inflating again,
// the resident size respects the configured budget, and a negative
// budget disables caching entirely.
func TestBlockCacheServesRepeatedColdQueries(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1000, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}

	drainSeq := func() int {
		t.Helper()
		cur := st.Query(Query{})
		defer cur.Close()
		es, err := tracer.Drain(cur, 64)
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	if n := drainSeq(); n != 1000 {
		t.Fatalf("first drain: %d events, want 1000", n)
	}
	s1 := st.Stats()
	if s1.BlockCacheMisses == 0 {
		t.Fatalf("first cold scan recorded no cache misses: %+v", s1)
	}

	if n := drainSeq(); n != 1000 {
		t.Fatalf("second drain: %d events, want 1000", n)
	}
	pc := st.QueryParallel(Query{}, 2)
	es, missed := drainParallel(t, pc, 64)
	pc.Close()
	if len(es) != 1000 || missed != 0 {
		t.Fatalf("parallel drain: %d events (missed %d), want 1000 (0)", len(es), missed)
	}
	s2 := st.Stats()
	if s2.BlockCacheMisses != s1.BlockCacheMisses {
		t.Fatalf("repeat scans re-inflated: misses %d -> %d", s1.BlockCacheMisses, s2.BlockCacheMisses)
	}
	if s2.BlockCacheHits <= s1.BlockCacheHits {
		t.Fatalf("repeat scans did not hit the cache: hits %d -> %d", s1.BlockCacheHits, s2.BlockCacheHits)
	}

	st.bcache.mu.Lock()
	size, max := st.bcache.size, st.bcache.max
	st.bcache.mu.Unlock()
	if size <= 0 || size > max {
		t.Fatalf("cache size %d outside (0, %d]", size, max)
	}
}

func TestBlockCacheEvictsWithinBudget(t *testing.T) {
	cfg := tierCfg()
	cfg.ColdCacheBytes = 8 << 10 // two 4 KiB raw blocks at most
	st, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1000, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		cur := st.Query(Query{})
		if _, err := tracer.Drain(cur, 64); err != nil {
			t.Fatal(err)
		}
		cur.Close()
		st.bcache.mu.Lock()
		size, n := st.bcache.size, st.bcache.lru.Len()
		st.bcache.mu.Unlock()
		if size > cfg.ColdCacheBytes {
			t.Fatalf("round %d: cache holds %d bytes, budget %d", round, size, cfg.ColdCacheBytes)
		}
		if n == 0 {
			t.Fatalf("round %d: nothing cached despite scans", round)
		}
	}
	if s := st.Stats(); s.BlockCacheMisses == 0 {
		t.Fatalf("thrashing cache recorded no misses: %+v", s)
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	cfg := tierCfg()
	cfg.ColdCacheBytes = -1
	st, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 500, 50)
	if _, err := st.CompactCold(); err != nil {
		t.Fatal(err)
	}
	if st.bcache != nil {
		t.Fatal("negative ColdCacheBytes should disable the cache")
	}
	for round := 0; round < 2; round++ {
		cur := st.Query(Query{})
		es, err := tracer.Drain(cur, 64)
		cur.Close()
		if err != nil || len(es) != 500 {
			t.Fatalf("round %d: %d events, err %v", round, len(es), err)
		}
	}
	if s := st.Stats(); s.BlockCacheHits != 0 || s.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", s)
	}
}

// freezeWith freezes the store's sealed row segments into a file of the
// given name through w, the way freezeRun drives the writer, and
// returns the file's bytes.
func freezeWith(t *testing.T, st *Store, w *coldWriterV2, name string) []byte {
	t.Helper()
	f, err := st.be.Create(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w.begin(f, 4<<10)
	st.mu.Lock()
	run := append([]*segment(nil), st.segs...)
	st.mu.Unlock()
	var covers uint64
	for _, s := range run {
		if !s.sealed || s.isCold() {
			continue
		}
		if err := st.freezeSource(w, s); err != nil {
			t.Fatalf("freezeSource %s: %v", s.name, err)
		}
		covers = s.coversThrough
	}
	if err := w.finish(covers); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, size)
	if _, err := f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFreezeDeterministicThroughReusedWriter: the freezer keeps one
// writer per store and takes its compressors from a pool, and neither
// may show in the output — the same sealed segments freeze to the same
// bytes through a fresh writer, through one that already wrote a file,
// and through one an aborted run left half-filled. (That those bytes
// are also the parent format's is TestColdFileBytesPinned; that v1
// files still read back beside them is TestColdV1V2MixedDirectory.)
func TestFreezeDeterministicThroughReusedWriter(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sealEvery(t, st, 1, 1200, 100)

	fresh := freezeWith(t, st, new(coldWriterV2), "fresh.tmp")
	var w coldWriterV2
	first := freezeWith(t, st, &w, "first.tmp")
	// An aborted run: rows pending, a block written, no finish.
	f, err := st.be.Create("aborted.tmp", 0)
	if err != nil {
		t.Fatal(err)
	}
	w.begin(f, 1<<10)
	for s := uint64(5000); s < 5100; s++ {
		e := mkEntry(s)
		if err := w.add(&e); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if len(w.blocks) == 0 || w.blockMeta.count == 0 {
		t.Fatalf("aborted run left %d blocks, %d pending rows; want both non-zero", len(w.blocks), w.blockMeta.count)
	}
	again := freezeWith(t, st, &w, "again.tmp")

	if len(fresh) <= headerSize {
		t.Fatalf("froze nothing: %d bytes", len(fresh))
	}
	if !bytes.Equal(first, fresh) {
		t.Fatal("the same segments froze to different bytes the second time (pooled compressor)")
	}
	if !bytes.Equal(again, fresh) {
		t.Fatal("a reused writer wrote different bytes than a fresh one")
	}
}

// TestColdWriterFlushAllocs: after the first block has sized the
// writer's buffers, flushing a block allocates its directory entry and
// little else — no compressor, no header, no column regrowth.
func TestColdWriterFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the compressor pool drops entries under -race")
	}
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, err := st.be.Create("allocs.tmp", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	es := benchEntries(512)
	var w coldWriterV2
	w.begin(f, 1<<30) // only the explicit flush below cuts a block
	block := func() {
		for i := range es {
			if err := w.add(&es[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
	}
	block()
	w.blocks = make([]coldBlock, 0, 64) // the directory grows by design; keep it out of the count
	if got := testing.AllocsPerRun(20, block); got > 2 {
		t.Fatalf("flush allocates %.0f objects per block, want <= 2", got)
	}
}
