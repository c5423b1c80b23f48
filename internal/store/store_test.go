package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
	"btrace/internal/tracer/tracertest"
)

// where is how these tests spell a filter: the BTQL predicate of es
// ANDed in order (a nil one adds nothing), match-all for none — a
// window is btql.Between, a list btql.In, a parsed filter
// predOf(t, src).Expr().
func where(es ...btql.Expr) *btql.Predicate { return btql.Compile(btql.AllOf(es...)) }

// mkEntry builds a deterministic test entry.
func mkEntry(stamp uint64) tracer.Entry {
	return tracer.Entry{
		Stamp:    stamp,
		TS:       stamp * 1000,
		Core:     uint8(stamp % 4),
		TID:      uint32(stamp % 7),
		Category: uint8(stamp % 5),
		Level:    uint8(stamp%3 + 1),
		Payload:  []byte(fmt.Sprintf("payload-%d", stamp)),
	}
}

// mkRange is mkEntry over the stamps from..to.
func mkRange(from, to uint64) []tracer.Entry {
	var es []tracer.Entry
	for s := from; s <= to; s++ {
		es = append(es, mkEntry(s))
	}
	return es
}

func appendRange(t *testing.T, st *Store, from, to uint64) {
	t.Helper()
	if err := st.AppendEntries(mkRange(from, to)); err != nil {
		t.Fatalf("AppendEntries: %v", err)
	}
}

func drainStore(t *testing.T, st *Store, q Query) []tracer.Entry {
	t.Helper()
	cur := st.Query(q)
	defer cur.Close()
	es, err := tracer.Drain(cur, 64)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return es
}

func checkEntry(t *testing.T, got tracer.Entry) {
	t.Helper()
	want := mkEntry(got.Stamp)
	if got.TS != want.TS || got.Core != want.Core || got.TID != want.TID ||
		got.Category != want.Category || got.Level != want.Level ||
		string(got.Payload) != string(want.Payload) {
		t.Fatalf("entry mismatch: got %+v want %+v", got, want)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 500)
	es := drainStore(t, st, Query{})
	if len(es) != 500 {
		t.Fatalf("drained %d events, want 500", len(es))
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
	if got := st.Events(); got != 500 {
		t.Fatalf("Events() = %d", got)
	}
	if len(st.Segments()) < 2 {
		t.Fatalf("expected rotation across segments, got %d", len(st.Segments()))
	}
}

func TestReopenPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, 300)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	es := drainStore(t, st2, Query{})
	if len(es) != 300 {
		t.Fatalf("reopened store has %d events, want 300", len(es))
	}
	// And it keeps accepting appends with monotonically advancing seqs.
	appendRange(t, st2, 301, 320)
	if es = drainStore(t, st2, Query{}); len(es) != 320 {
		t.Fatalf("after reopen+append: %d events, want 320", len(es))
	}
}

// TestCrashRecoveryTornTail is the acceptance criterion: a process killed
// mid-append (simulated by truncating the newest segment at every
// possible byte offset of its tail frame region) reopens losing at most
// the torn record, and a stamp-range query over the recovered store
// matches the same query over the surviving records in memory.
func TestCrashRecoveryTornTail(t *testing.T) {
	const n = 120
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, n)
	// No Close: simulate the crash before any seal by copying the raw
	// active segment bytes.
	segPath := filepath.Join(dir, "seg-00000001.seg")
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, cut := range []int64{
		int64(len(whole)) - 1, int64(len(whole)) - tailSize, int64(len(whole)) - tailSize - 3,
		int64(len(whole)) - 40, int64(len(whole)) / 2, headerSize + 5, headerSize, 0,
	} {
		if cut < 0 {
			continue
		}
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, "seg-00000001.seg"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(crash, Config{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		es := drainStore(t, rec, Query{})
		// Only whole records, a strict prefix of what was written, and at
		// most one record lost relative to the bytes that survived.
		for i, e := range es {
			if e.Stamp != uint64(i+1) {
				t.Fatalf("cut=%d: record %d has stamp %d (not a prefix)", cut, i, e.Stamp)
			}
			checkEntry(t, e)
		}
		survived := len(es)
		// Count whole frames present in the truncated bytes: recovery
		// must keep every one of them.
		wholeFrames := countWholeFrames(t, whole, cut)
		if survived != wholeFrames {
			t.Fatalf("cut=%d: recovered %d records, %d whole frames survive on disk",
				cut, survived, wholeFrames)
		}
		// Stamp-range query over the recovered store vs the in-memory
		// readout of the surviving records.
		q := Query{Pred: where(btql.Between(btql.FStamp, 20, 90))}
		got := drainStore(t, rec, q)
		var want []tracer.Entry
		for _, e := range es {
			if e.Stamp >= 20 && e.Stamp <= 90 {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("cut=%d: query returned %d records, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].Stamp != want[i].Stamp || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("cut=%d: query record %d mismatch", cut, i)
			}
		}
		rec.Close()
	}
}

// countWholeFrames walks the segment image and counts frames that lie
// entirely within the first cut bytes.
func countWholeFrames(t *testing.T, img []byte, cut int64) int {
	t.Helper()
	off := int64(headerSize)
	n := 0
	for off+tracer.Align <= int64(len(img)) {
		_, size, err := tracer.PeekRecord(img[off:])
		if err != nil {
			break
		}
		end := off + int64(size+tailSize)
		if end > int64(len(img)) {
			break
		}
		if end <= cut {
			n++
		}
		off = end
	}
	return n
}

func TestRecoveryMidStore(t *testing.T) {
	// Torn tail in the newest segment of a multi-segment store: sealed
	// segments are untouched, only the active one is truncated.
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, 400)
	segs := st.Segments()
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	last := segs[len(segs)-1]
	if last.Sealed {
		t.Skip("no active segment to tear")
	}
	lastPath := filepath.Join(dir, last.File)
	st.Close() // seal happens here, but we restore the pre-seal bytes below

	// Chop 5 bytes off the last segment to tear its final record, and
	// also flip its header back to unsealed state arbitrarily by cutting
	// into it — recovery must not trust the seal.
	fi, err := os.Stat(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(lastPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Stats().RecoveredTruncations != 1 {
		t.Fatalf("RecoveredTruncations = %d, want 1", rec.Stats().RecoveredTruncations)
	}
	es := drainStore(t, rec, Query{})
	if len(es) != 399 {
		t.Fatalf("recovered %d events, want 399 (one torn)", len(es))
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("record %d: stamp %d", i, e.Stamp)
		}
	}
}

func TestQueryFilters(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 400)

	cases := []struct {
		name string
		q    Query
		keep func(e *tracer.Entry) bool
	}{
		{"stamp range", Query{Pred: where(btql.Between(btql.FStamp, 100, 250))},
			func(e *tracer.Entry) bool { return e.Stamp >= 100 && e.Stamp <= 250 }},
		{"time range", Query{Pred: where(btql.Between(btql.FTime, 50_000, 120_000))},
			func(e *tracer.Entry) bool { return e.TS >= 50_000 && e.TS <= 120_000 }},
		{"core", Query{Pred: where(btql.In(btql.FCore, []uint8{2}))},
			func(e *tracer.Entry) bool { return e.Core == 2 }},
		{"category", Query{Pred: where(btql.In(btql.FCategory, []uint8{0, 3}))},
			func(e *tracer.Entry) bool { return e.Category == 0 || e.Category == 3 }},
		{"combined", Query{Pred: where(btql.Between(btql.FStamp, 40, 360), btql.In(btql.FCore, []uint8{1, 3}), btql.In(btql.FCategory, []uint8{1, 2, 4}))},
			func(e *tracer.Entry) bool {
				return e.Stamp >= 40 && e.Stamp <= 360 && (e.Core == 1 || e.Core == 3) &&
					(e.Category == 1 || e.Category == 2 || e.Category == 4)
			}},
	}
	all := drainStore(t, st, Query{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drainStore(t, st, tc.q)
			var want []tracer.Entry
			for i := range all {
				if tc.keep(&all[i]) {
					want = append(want, all[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("query returned %d events, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Stamp != want[i].Stamp {
					t.Fatalf("event %d: stamp %d, want %d", i, got[i].Stamp, want[i].Stamp)
				}
				checkEntry(t, got[i])
			}
		})
	}

	t.Run("limit", func(t *testing.T) {
		got := drainStore(t, st, Query{Limit: 17})
		if len(got) != 17 {
			t.Fatalf("limit query returned %d events", len(got))
		}
	})
}

func TestRetentionByBytes(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 2 << 10, MaxBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 2000)
	// Retention runs on the maintenance goroutine; Sync is the barrier
	// that waits for it.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz := st.Size(); sz > (8<<10)+(2<<10) {
		t.Fatalf("store size %d exceeds budget+active", sz)
	}
	if st.Stats().SegmentsDeleted == 0 {
		t.Fatal("retention never deleted a segment")
	}
	es := drainStore(t, st, Query{})
	if len(es) == 0 {
		t.Fatal("retention deleted everything")
	}
	// Newest survives; survivors are a contiguous suffix.
	if es[len(es)-1].Stamp != 2000 {
		t.Fatalf("newest stamp %d, want 2000", es[len(es)-1].Stamp)
	}
	for i := 1; i < len(es); i++ {
		if es[i].Stamp != es[i-1].Stamp+1 {
			t.Fatalf("interior gap %d -> %d", es[i-1].Stamp, es[i].Stamp)
		}
	}
}

func TestRetentionByAge(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 2 << 10, MaxAgeNs: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 1000) // TS = stamp*1000, span 1e6 ns >> MaxAge
	st.Seal()
	es := drainStore(t, st, Query{})
	if len(es) == 0 || len(es) == 1000 {
		t.Fatalf("age retention kept %d of 1000", len(es))
	}
	oldest := es[0].TS
	newest := es[len(es)-1].TS
	// Whole-segment granularity: survivors may exceed the age bound by
	// up to one segment's span, but grossly stale segments must be gone.
	if newest-oldest > 600_000 {
		t.Fatalf("oldest survivor is %d ns old (MaxAge 100000)", newest-oldest)
	}
}

// TestCursorMissedOnRetention: retention deleting segments of a
// one-worker pass's snapshot mid-pass surfaces through missed, never
// silently — every event of the snapshot is delivered exactly once or
// counted, and nothing appended after it is delivered.
func TestCursorMissedOnRetention(t *testing.T) {
	st, err := Open(t.TempDir(), Config{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 2000)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := st.Query(Query{})
	defer cur.Close()
	batch := make([]tracer.Entry, 128)
	n, missed, err := cur.Next(batch) // the snapshot: 1..2000
	if err != nil || n != len(batch) {
		t.Fatalf("first Next = (%d, %d, %v)", n, missed, err)
	}
	last := batch[n-1].Stamp
	st.mu.Lock()
	st.cfg.MaxBytes = 4 << 10 // far below what is stored: the oldest go
	st.mu.Unlock()
	appendRange(t, st, 2001, 4000)
	if err := st.Sync(); err != nil { // wait for background retention
		t.Fatal(err)
	}
	if st.Stats().EventsRetired == 0 {
		t.Fatal("retention retired nothing")
	}
	total := n
	for {
		n, m, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		missed += m
		if n == 0 {
			break
		}
		for _, e := range batch[:n] {
			if e.Stamp <= last || e.Stamp > 2000 {
				t.Fatalf("stamp %d after %d: out of order, repeated or past the snapshot", e.Stamp, last)
			}
			last = e.Stamp
		}
		total += n
	}
	if total+int(missed) < 2000 {
		t.Fatalf("delivered %d + missed %d < the 2000 of the snapshot", total, missed)
	}
}

// TestMergedV0Directory: a store directory written by a version that
// still merged small sealed row segments opens, and recovery's seq
// coverage rules still apply to it. testdata/merged-v0 is what the last
// commit with the merge left after appendRange(1..50), Seal,
// appendRange(51..100), Seal, a merge of those two (seg-1, whose header
// covers seq 2), appendRange(101..150) and Close (seg-3) — with the
// pre-merge seg-2 written back, as a crash between the merge's rename
// and its source deletes would leave it.
func TestMergedV0Directory(t *testing.T) {
	golden := filepath.Join("testdata", "merged-v0")
	cfg := Config{SegmentBytes: 64 << 10}
	st, err := Open(copyDir(t, golden), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Stats().LeftoverSegments; n != 1 {
		t.Fatalf("LeftoverSegments = %d, want 1 (the covered seg-2)", n)
	}
	es := drainStore(t, st, Query{})
	if len(es) != 150 {
		t.Fatalf("recovered %d events, want 150 (no duplicates)", len(es))
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("record %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
	segs := st.Segments()
	if len(segs) != 2 || segs[0].File != "seg-00000001.seg" || segs[0].Tier != "hot" || segs[0].Events != 100 {
		t.Fatalf("segments %+v, want the merged seg-1 (100 events, hot) and seg-3", segs)
	}

	// With the merged segment last, the next one must not reuse the seq it
	// covers: a later open would take a seq-2 segment for a leftover.
	dir := copyDir(t, golden)
	for _, name := range []string{"seg-00000002.seg", "seg-00000003.seg"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	last, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, last, 101, 110)
	if err := last.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if segs := re.Segments(); len(segs) != 2 || segs[1].Seq != 3 {
		t.Fatalf("segments %+v, want the appended one at seq 3", segs)
	}
	if n := re.Stats().LeftoverSegments; n != 0 {
		t.Fatalf("LeftoverSegments = %d after a reopen, want 0", n)
	}
	if got, missed := drainStamps(t, re.Query(Query{})); missed != 0 || fmt.Sprint(got) != fmt.Sprint(stampRange(1, 110)) {
		t.Fatalf("after reopen: delivered %v, missed %d, want stamps 1..110", got, missed)
	}
}

// TestReopenKeepsRepeatedStampRanges guards against over-eager leftover
// detection: two runs whose stamp counters both start at 1 (replay
// stamps are per-run) write overlapping stamp ranges into the same
// directory, and reopening must keep both — only segments an earlier
// file's header explicitly covers are tier-transition leftovers.
func TestReopenKeepsRepeatedStampRanges(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, 100)
	st.Close()

	st2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st2, 10, 50) // contained in the first run's range
	st2.Close()

	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if lo := re.Stats().LeftoverSegments; lo != 0 {
		t.Fatalf("LeftoverSegments = %d, want 0 (second run misdetected)", lo)
	}
	es := drainStore(t, re, Query{})
	if len(es) != 141 {
		t.Fatalf("reopened store has %d events, want 141 (100 + 41)", len(es))
	}
}

// TestRecoveryTornHeader: a crash that tears the seal's in-place header
// rewrite must cost the header only. Recovery rebuilds it from the
// CRC-framed records instead of discarding the segment.
func TestRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, 100)
	st.Close() // seals: header rewritten in place

	segPath := filepath.Join(dir, "seg-00000001.seg")
	f, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 16); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats().HeadersRebuilt != 1 {
		t.Fatalf("HeadersRebuilt = %d, want 1", rec.Stats().HeadersRebuilt)
	}
	es := drainStore(t, rec, Query{})
	if len(es) != 100 {
		t.Fatalf("recovered %d events behind the torn header, want 100", len(es))
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("record %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
	// The rebuilt header must decode on the next open.
	appendRange(t, rec, 101, 110)
	rec.Close()
	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats().HeadersRebuilt != 0 {
		t.Fatalf("second open rebuilt the header again")
	}
	if es = drainStore(t, re, Query{}); len(es) != 110 {
		t.Fatalf("after rebuild + append: %d events, want 110", len(es))
	}
}

// failingReads is a backend whose read-write handles fail every read
// that reaches past byte after: a disk that cannot read part of a
// segment at the moment recovery opens it.
type failingReads struct {
	backend.Backend
	after int64
}

func (b *failingReads) OpenRW(name string) (backend.File, error) {
	f, err := b.Backend.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return &failingFile{File: f, after: b.after}, nil
}

type failingFile struct {
	backend.File
	after int64
}

func (f *failingFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.after {
		return 0, errors.New("read error")
	}
	return f.File.ReadAt(p, off)
}

// TestRecoveryReadErrorKeepsSegment: bytes recovery could not read are
// not bytes it knows to be torn. A read error fails Open and leaves the
// segment byte for byte as it was — nothing truncated, no header
// rewritten — so that a reopen on a disk that reads again finds every
// event.
func TestRecoveryReadErrorKeepsSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, st, 1, 1000)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-00000001.seg")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := local.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := OpenBackend(&failingReads{Backend: lb, after: 4096}, Config{}); err == nil {
		bad.Close()
		t.Fatal("Open over a failing read succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("the failed Open changed the segment: %d bytes before, %d after", len(before), len(after))
	}
	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if es := drainStore(t, re, Query{}); len(es) != 1000 {
		t.Fatalf("clean reopen read %d events, want 1000", len(es))
	}
}

// TestCursorMissedOnUnorderedFreeze: a freeze replacing a pass's
// overlapping segments with one unordered cold file under it neither
// loses nor repeats anything — the pass reads on from the files its
// snapshot opened, in stamp order, and reports nothing missed.
func TestCursorMissedOnUnorderedFreeze(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 10)
	st.Seal()
	appendRange(t, st, 5, 8) // overlaps: the freeze of both is unordered
	st.Seal()

	cur := st.Query(Query{})
	defer cur.Close()
	batch := make([]tracer.Entry, 10)
	n, _, err := cur.Next(batch) // 1..4, then both segments' 5..7
	if err != nil || n != 10 || batch[n-1].Stamp != 7 {
		t.Fatalf("first Next = (%d, %v), want 10 events ending at stamp 7", n, err)
	}
	got := []uint64{}
	for _, e := range batch[:n] {
		got = append(got, e.Stamp)
	}
	appendRange(t, st, 11, 11) // newer time: both sealed segments age out
	if n, err := st.CompactCold(); err != nil || n != 2 {
		t.Fatalf("CompactCold = (%d, %v), want both sealed segments frozen", n, err)
	}
	if segs := st.Segments(); len(segs) != 2 || segs[0].Tier != "cold" || segs[0].Ordered {
		t.Fatalf("setup: want one unordered cold file, got %+v", segs)
	}
	rest, missed := drainStamps(t, cur)
	got = append(got, rest...)
	want := []uint64{1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10}
	if missed != 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, missed %d; want %v", got, missed, want)
	}
}

// drainStamps reads cur until a Next delivers nothing, returning the
// stamps in delivery order and the missed total.
func drainStamps(t *testing.T, cur tracer.Cursor) (stamps []uint64, missed uint64) {
	t.Helper()
	batch := make([]tracer.Entry, 16)
	for {
		n, m, err := cur.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		missed += m
		if n == 0 {
			return stamps, missed
		}
		for _, e := range batch[:n] {
			stamps = append(stamps, e.Stamp)
		}
	}
}

// stampRange is from..to.
func stampRange(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// TestCursorResumesInsideFreeze: a pass whose snapshot holds a segment
// that a freeze takes away mid-pass delivers the rest of that segment
// from the file it opened, and not what the freeze brought into the
// same cold file from after the snapshot.
func TestCursorResumesInsideFreeze(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 100, 150)
	st.Seal()
	appendRange(t, st, 1, 10) // a writer that reserved its stamps earlier
	st.Seal()
	cur := st.Query(Query{})
	defer cur.Close()
	batch := make([]tracer.Entry, 5)
	if n, _, err := cur.Next(batch); err != nil || n != 5 || batch[4].Stamp != 5 {
		t.Fatalf("first Next = (%d, %v), want stamps 1..5", n, err)
	}
	appendRange(t, st, 11, 20)
	st.Seal()
	appendRange(t, st, 200, 200) // newer time: every sealed segment ages out
	if n, err := st.CompactCold(); err != nil || n != 3 {
		t.Fatalf("CompactCold = (%d, %v), want the three sealed segments frozen", n, err)
	}
	if segs := st.Segments(); len(segs) != 2 || segs[0].Tier != "cold" {
		t.Fatalf("setup: want one cold file ahead of the active segment, got %+v", segs)
	}
	got, missed := drainStamps(t, cur)
	if want := append(stampRange(6, 10), stampRange(100, 150)...); missed != 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the freeze: delivered %v, missed %d, want stamps 6..10 and 100..150", got, missed)
	}
	if got, _ := drainStamps(t, st.Query(Query{})); len(got) != 72 {
		t.Fatalf("a new pass: %d events, want 72", len(got))
	}
}

// TestCursorReadsTailSealedBehindIt: a pass over the active segment
// reads it up to the bound its snapshot took — not what is appended to
// it afterwards, which belongs to a later pass — also once the segment
// has been sealed and frozen away under it.
func TestCursorReadsTailSealedBehindIt(t *testing.T) {
	st, err := Open(t.TempDir(), tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 1, 10)
	st.Seal()
	appendRange(t, st, 11, 15)
	cur := st.Query(Query{})
	defer cur.Close()
	batch := make([]tracer.Entry, 12)
	if n, _, err := cur.Next(batch); err != nil || n != 12 {
		t.Fatalf("first Next = (%d, %v), want stamps 1..12", n, err)
	}
	appendRange(t, st, 16, 20) // lands in the segment the pass is reading
	st.Seal()
	appendRange(t, st, 21, 30) // newer timestamps: everything sealed is now cold-eligible
	if n, err := st.CompactCold(); err != nil || n != 2 {
		t.Fatalf("CompactCold = (%d, %v), want both sealed segments frozen", n, err)
	}
	got, missed := drainStamps(t, cur)
	if missed != 0 || fmt.Sprint(got) != fmt.Sprint(stampRange(13, 15)) {
		t.Fatalf("after the freeze: delivered %v, missed %d, want stamps 13..15", got, missed)
	}
	if got, missed := drainStamps(t, st.Query(Query{Pred: where(btql.Between(btql.FStamp, 16, 0))})); missed != 0 || fmt.Sprint(got) != fmt.Sprint(stampRange(16, 30)) {
		t.Fatalf("a new pass above it: delivered %v, missed %d, want stamps 16..30", got, missed)
	}
}

// TestCursorCutLeavesActiveSegmentOpen: the MaxStamp cut ends an ordered
// segment's scan early, and is judged by the segment as the snapshot
// found it. Once a writer that reserved lower stamps has appended them
// to the active segment it is no longer ordered, and the next pass finds
// them.
func TestCursorCutLeavesActiveSegmentOpen(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendRange(t, st, 200, 205)
	cur := st.Query(Query{Pred: where(btql.Between(btql.FStamp, 0, 203))})
	defer cur.Close()
	if got, _ := drainStamps(t, cur); fmt.Sprint(got) != fmt.Sprint(stampRange(200, 203)) {
		t.Fatalf("first pass: %v, want stamps 200..203", got)
	}
	appendRange(t, st, 1, 5)
	if got, missed := drainStamps(t, cur); len(got) != 0 || missed != 0 {
		t.Fatalf("the finished pass delivered %v, missed %d", got, missed)
	}
	want := append(stampRange(1, 5), stampRange(200, 203)...)
	if got, missed := drainStamps(t, st.Query(Query{Pred: where(btql.Between(btql.FStamp, 0, 203))})); missed != 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the late writer: delivered %v, missed %d, want %v", got, missed, want)
	}
}

// TestStoreTracerConformance runs the repository-wide tracer conformance
// suite against the store-backed tracer, whose cursors are one-worker
// snapshot passes: the cursor/batch contract must hold against disk
// exactly as it does against memory.
func TestStoreTracerConformance(t *testing.T) {
	tracertest.Run(t, tracertest.Config{
		New: func(totalBytes, cores, threads int) (tracer.Tracer, error) {
			return NewTracer(t.TempDir(), totalBytes)
		},
	})
}

func TestTracerAdapterStoreAccess(t *testing.T) {
	tr, err := NewTracer(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	p := &tracer.FixedProc{}
	for i := 1; i <= 10; i++ {
		e := mkEntry(uint64(i))
		if err := tr.Write(p, &e); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Store().Events(); got != 10 {
		t.Fatalf("Store().Events() = %d", got)
	}
	if st := tr.Stats(); st.Writes != 10 || st.BytesWritten == 0 {
		t.Fatalf("stats %+v", st)
	}
}
