package store

import (
	"bytes"
	"cmp"
	"compress/flate"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"btrace/internal/btql"
	"btrace/internal/export"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// benchEntries builds n stamp-ordered events with small payloads, the
// shape the collector's spill path produces.
func benchEntries(n int) []tracer.Entry {
	es := make([]tracer.Entry, n)
	payload := []byte("0123456789abcdef")
	for i := range es {
		s := uint64(i + 1)
		es[i] = tracer.Entry{
			Stamp: s, TS: s * 800, Core: uint8(s % 8), TID: uint32(s % 32),
			Category: uint8(s % 6), Level: 2, Payload: payload,
		}
	}
	return es
}

// BenchmarkStoreAppend measures the durable append path in batches of
// 64 events, rotation included, over a store that already holds segs
// segments: segs-1 sealed one-event segments and the active one the
// timed appends start in (4 MiB segments after it). What an append
// costs must not grow with the segment list; a -max-ratio rule holds
// segs=4096 to segs=1, and the batch is small enough that a walk of
// 4096 segments per append would be most of the op. The object backend
// keeps the files in memory, bounded by MaxBytes retention at 64 MiB —
// which, once reached, deletes the oldest segments first — so run it at
// a fixed -benchtime well short of that (2000 ops is 8 MiB). The two
// store sizes take turns, benchPasses times in one process.
func BenchmarkStoreAppend(b *testing.B) {
	for range benchPasses {
		for _, segs := range []int{1, 4096} {
			b.Run("segs="+strconv.Itoa(segs), func(b *testing.B) { benchAppend(b, segs) })
		}
	}
}

// benchPasses is how many times a benchmark whose variants a -max-ratio
// rule compares runs the pair, the two taking turns, so that each pass
// of the pair meets the same machine. A repeated name comes back
// suffixed #01, #02, ..., which benchdiff folds into one row per pass;
// its ratio rule drops the first pass and holds the median of the rest.
const benchPasses = 6

func benchAppend(b *testing.B, segs int) {
	const batch = 64
	es := benchEntries(batch)
	st, err := OpenBackend(backend.NewObject(), Config{SegmentBytes: 4 << 20, MaxBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var next uint64
	appendAll := func(es []tracer.Entry) {
		for j := range es {
			next++
			es[j].Stamp = next
			es[j].TS = next * 800
		}
		if err := st.AppendEntries(es); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < segs; i++ {
		if i > 0 {
			if err := st.Seal(); err != nil {
				b.Fatal(err)
			}
		}
		appendAll(es[:1])
	}
	if got := len(st.Segments()); got != segs {
		b.Fatalf("store holds %d segments, want %d", got, segs)
	}
	b.SetBytes(int64(batch * FrameSize(&es[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendAll(es)
	}
}

// BenchmarkStoreAppendConcurrent measures the append path under
// contention: 8 × GOMAXPROCS goroutines append 512-event batches, each
// encoding into its own pooled frame buffer with no lock held and then
// writing it itself under the store lock, one WriteAt per segment
// stretch. Per-goroutine stamp bases keep stamps unique without
// coordination.
func BenchmarkStoreAppendConcurrent(b *testing.B) {
	const batch = 512
	st, err := Open(b.TempDir(), Config{SegmentBytes: 4 << 20, MaxBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	const parallelism = 8 // >= 8 goroutines even at GOMAXPROCS=1
	appenders := parallelism * runtime.GOMAXPROCS(0)
	// Each appender's batch is built before the timed loop. The frame
	// buffers are not: each appender's first append allocates one, and
	// b.N amortizes it.
	batches := make([][]tracer.Entry, appenders)
	for g := range batches {
		batches[g] = benchEntries(batch)
	}
	b.SetBytes(int64(batch * FrameSize(&batches[0][0])))
	b.ReportAllocs()
	b.SetParallelism(parallelism)
	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		base := g << 40
		es := batches[g-1]
		var next uint64
		for pb.Next() {
			for j := range es {
				next++
				es[j].Stamp = base | next
				es[j].TS = next * 800
			}
			if err := st.AppendEntries(es); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchQueryStore builds the shared fixture for the wide-query pair: a
// ~100k-record store spread over a dozen sealed segments.
func benchQueryStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), Config{SegmentBytes: 512 << 10})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendEntries(benchEntries(100_000)); err != nil {
		b.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	if n := len(st.Segments()); n < 8 {
		b.Fatalf("fixture has %d segments, want >= 8", n)
	}
	return st
}

// drainCursor runs one full query to exhaustion, the shared inner loop
// of the wide-query pair.
func drainCursor(b *testing.B, cur tracer.Cursor, batch []tracer.Entry) int {
	n := 0
	for {
		m, _, err := cur.Next(batch)
		if err != nil {
			b.Fatal(err)
		}
		if m == 0 {
			break
		}
		n += m
	}
	if err := cur.Close(); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkStoreQueryWide is the one-worker row beside
// BenchmarkStoreQueryParallel: one category filter drained across every
// segment of the fixture, per-op = one full query.
func BenchmarkStoreQueryWide(b *testing.B) {
	st := benchQueryStore(b)
	defer st.Close()
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drainCursor(b, st.QueryParallel(Query{Pred: where(btql.In(btql.FCategory, []uint8{2}))}, 1), batch)
		if n == 0 {
			b.Fatal("query returned no records")
		}
	}
}

// BenchmarkStoreQueryParallel runs the identical query through the
// parallel pruned cursor (pooled span reads, in-place decode, k-way
// merge over per-segment streams).
func BenchmarkStoreQueryParallel(b *testing.B) {
	st := benchQueryStore(b)
	defer st.Close()
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drainCursor(b, st.QueryParallel(Query{Pred: where(btql.In(btql.FCategory, []uint8{2}))}, 4), batch)
		if n == 0 {
			b.Fatal("query returned no records")
		}
	}
}

// benchColdStore freezes the wide-query fixture: same 100k records, but
// every sealed segment except the newest is compressed into the cold
// tier. The acceptance contract is enforced here: the cold tier must
// shrink its raw bytes by at least 3x, or the fixture (and the paper
// claim it backs) is broken. cacheBytes is Config.ColdCacheBytes.
func benchColdStore(b *testing.B, cacheBytes int64) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), Config{SegmentBytes: 512 << 10, ColdAfterNs: 1, ColdCacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendEntries(benchEntries(100_000)); err != nil {
		b.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	if _, err := st.CompactCold(); err != nil {
		b.Fatal(err)
	}
	ts := st.TierStats()
	cold, total := ts[TierCold], 0
	for _, t := range ts {
		total += t.Segments
	}
	if cold.Segments == 0 || cold.Segments*2 < total {
		b.Fatalf("fixture is not majority-cold: %+v", ts)
	}
	stats := st.Stats()
	if stats.ColdBytesWritten*3 > stats.ColdRawBytes {
		b.Fatalf("cold tier shrank only %.2fx, want >= 3x (%d of %d raw bytes)",
			float64(stats.ColdRawBytes)/float64(stats.ColdBytesWritten),
			stats.ColdBytesWritten, stats.ColdRawBytes)
	}
	b.ReportMetric(float64(stats.ColdRawBytes)/float64(stats.ColdBytesWritten), "shrink-x")
	return st
}

// BenchmarkColdQuery is BenchmarkStoreQueryParallel over the majority-
// cold fixture: the same wide category query now pays block pruning and
// DEFLATE decompression instead of raw span reads. The paper-facing
// contract (cold within 2x of all-hot, at >= 3x less disk) is gated by
// cmd/benchdiff against BenchmarkStoreQueryParallel in BENCH_store.json.
func BenchmarkColdQuery(b *testing.B) {
	st := benchColdStore(b, 0)
	defer st.Close()
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drainCursor(b, st.QueryParallel(Query{Pred: where(btql.In(btql.FCategory, []uint8{2}))}, 4), batch)
		if n == 0 {
			b.Fatal("query returned no records")
		}
	}
}

// benchColdSelectEvents sizes BenchmarkColdSelect's fixture.
const benchColdSelectEvents = 25_000

// benchColdSelectStore is benchColdStore's shape at a quarter of the
// size — all but the newest segment frozen, nine 2 900-row blocks of 23
// chunks — with the block cache off and payloads
// that cost something to inflate: 64–127 bytes of hex per event,
// compressing about 2x, where benchEntries' one 16-byte constant
// compresses to nothing and leaves a cold read all meta section.
func benchColdSelectStore(b *testing.B) *Store {
	b.Helper()
	es := benchEntries(benchColdSelectEvents)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range es {
		p := make([]byte, 0, 128)
		for n := 64 + i%64; len(p) < n; {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p = strconv.AppendUint(p, x, 16)
		}
		es[i].Payload = p
	}
	st, err := Open(b.TempDir(), Config{SegmentBytes: 256 << 10, ColdAfterNs: 1, ColdCacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendEntries(es); err != nil {
		b.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	if _, err := st.CompactCold(); err != nil {
		b.Fatal(err)
	}
	if ts := st.TierStats(); ts[TierCold].Events < benchColdSelectEvents*4/5 {
		b.Fatalf("fixture is not mostly cold: %+v", ts)
	}
	return st
}

// BenchmarkColdSelect is the chunk rung's benchmark: two materialising
// queries over a mostly-cold, payload-heavy fixture with the block
// cache off, so every op pays for exactly the bytes it reads. dense
// drains every row, payloads included: every payload chunk of every
// block is inflated. sparse wants one row in 1000 (a stamp list, which
// prunes no block — each holds a few members — and skips no meta
// section), payloads included: it inflates the chunks those rows live
// in, one in eight, where before format v3 it inflated every block's
// whole payload section as dense does. inflated-B/op is the raw payload
// bytes each op inflated; cmd/benchdiff gates sparse at <= 0.3x of
// dense within-run. The -lengths rows are the same two queries read for
// payload lengths only (Query.LengthsOnly, what a CSV or Chrome export
// asks for): they inflate nothing (the benchmark fails if they do), and
// sparse-lengths is gated at <= 0.65x of sparse — with the cache off
// the two share the meta sections and columns of all nine blocks, which
// is half of what sparse costs.
func BenchmarkColdSelect(b *testing.B) {
	var list []string
	for s := 500; s <= benchColdSelectEvents; s += 1000 {
		list = append(list, strconv.Itoa(s))
	}
	sparse := "stamp in (" + strings.Join(list, ", ") + ")"
	for _, tc := range []struct {
		name    string
		src     string
		want    int
		lengths bool
	}{
		{"sparse", sparse, len(list), false},
		{"dense", "stamp >= 1", benchColdSelectEvents, false},
		{"sparse-lengths", sparse, len(list), true},
		{"dense-lengths", "stamp >= 1", benchColdSelectEvents, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := benchColdSelectStore(b)
			defer st.Close()
			pred := benchParse(b, tc.src).Predicate()
			batch := make([]tracer.Entry, 512)
			base := st.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := drainCursor(b, st.Query(Query{Pred: pred, LengthsOnly: tc.lengths}), batch); n != tc.want {
					b.Fatalf("query matched %d events, want %d", n, tc.want)
				}
			}
			b.StopTimer()
			after := st.Stats()
			if tc.lengths && after.PayloadInflatedBytes != base.PayloadInflatedBytes {
				b.Fatalf("a length-only read inflated %d payload bytes", after.PayloadInflatedBytes-base.PayloadInflatedBytes)
			}
			b.ReportMetric(float64(after.PayloadInflatedBytes-base.PayloadInflatedBytes)/float64(b.N), "inflated-B/op")
			b.ReportMetric(float64(after.PayloadChunksSkipped-base.PayloadChunksSkipped)/float64(b.N), "chunks-skipped/op")
		})
	}
}

// BenchmarkRunMerge orders 65 536 entries the way PCursor.runStream
// orders an unordered segment's rows: sorted is the early return (one
// pass, no copy), interleaved-2 what an unordered segment is — two
// writers' 256-event batches interleaving — and random the degenerate
// input, runs of two. interleaved-2-pdqsort is the slices.SortFunc the
// merge replaced, on the same input.
func BenchmarkRunMerge(b *testing.B) {
	shapes := runShapes(65_536, rand.New(rand.NewSource(21)))
	byStamp := func(x, y tracer.Entry) int { return cmp.Compare(x.Stamp, y.Stamp) }
	for _, tc := range []struct {
		name, shape string
		sort        func(rm *runMerger, es []tracer.Entry) []tracer.Entry
	}{
		{"sorted", "sorted", (*runMerger).sort},
		{"interleaved-2", "interleaved-2", (*runMerger).sort},
		{"random", "random", (*runMerger).sort},
		{"interleaved-2-pdqsort", "interleaved-2", func(_ *runMerger, es []tracer.Entry) []tracer.Entry {
			slices.SortFunc(es, byStamp)
			return es
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := shapes[tc.shape]
			es := make([]tracer.Entry, len(in))
			var rm runMerger
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// The merge hands back its other buffer: refill whichever
				// is the input this time.
				es = append(es[:0], in...)
				b.StartTimer()
				es = tc.sort(&rm, es)
			}
			if !slices.IsSortedFunc(es, byStamp) {
				b.Fatal("output is not in stamp order")
			}
		})
	}
}

// hotTailStore builds BenchmarkHotTailExport's fixture, the hot tier a
// served store is left with by two writers whose 256-event batches drift
// ~40 k stamps apart: batch k comes from writer k%2, and writer 1 runs
// 78 of its batches ahead of writer 0, so nearly every 1 MiB segment
// holds two stamp ranges far apart, is unordered (a run per batch) and
// overlaps its neighbours; the newest is active. Payloads are 16–79
// bytes. It returns the newest stamp.
func hotTailStore(b *testing.B, cacheBytes int64) (*Store, uint64) {
	b.Helper()
	const batches, ahead, per = 640, 78, 256
	st, err := Open(b.TempDir(), Config{SegmentBytes: 1 << 20, ColdCacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 80)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	es := make([]tracer.Entry, per)
	send := func(k int) {
		for i := range es {
			s := uint64(k*per + i + 1)
			es[i] = tracer.Entry{
				Stamp: s, TS: 40_000_000_000 + s*1000, Core: uint8(s % 8), TID: 1000 + uint32(k%2*64) + uint32(s%64),
				Category: uint8(s % 20), Level: uint8(1 + s%3), Payload: payload[:16+(k*7+i*13)%64],
			}
		}
		if err := st.AppendEntries(es); err != nil {
			b.Fatal(err)
		}
	}
	for j := 0; 2*j < batches; j++ {
		if k := 2*j + 1; j < ahead && k < batches {
			send(k) // writer 1 pulls ahead
		}
		send(2 * j)
		if k := 2*(j+ahead) + 1; k < batches {
			send(k)
		}
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	return st, batches * per
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkHotTailExport is query-tiered's scan class in process: a
// length-only read (what a CSV export asks for) of the newest 65 536
// stamps over hotTailStore, at 4 scan workers, through a 1024-entry
// batch. Eight unordered sealed segments and the active one hold them.
// walk is a store without a block cache: each read walks the segments'
// frames, checks the rows it selects and sorts every segment's rows.
// cached reads the sets its warm-up built and no file byte: the merge
// writes their rows into the batch in place. cpu-ns/row is the
// process's CPU time over the timed reads per row delivered: the scan
// workers run beside the merge, so wall time (ns/op) hides work they
// take on or shed. cmd/benchdiff gates cached at <= 0.5x of walk
// within-run.
func BenchmarkHotTailExport(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name, cacheBytes := "walk", int64(-1)
		if cached {
			name, cacheBytes = "cached", 0
		}
		b.Run(name, func(b *testing.B) {
			st, newest := hotTailStore(b, cacheBytes)
			defer st.Close()
			const rows = 1 << 16
			q := Query{Pred: where(btql.Between(btql.FStamp, newest-rows+1, 0)), Limit: rows, LengthsOnly: true}
			batch := make([]tracer.Entry, 1024)
			read := func() {
				if n := drainCursor(b, st.QueryParallel(q, 4), batch); n != rows {
					b.Fatalf("read %d rows, want %d", n, rows)
				}
			}
			read() // a header set per sealed segment, with the cache
			base := st.bcache.classCounters().hits[classHeaders]
			b.ReportAllocs()
			b.ResetTimer()
			cpu := processCPU()
			for i := 0; i < b.N; i++ {
				read()
			}
			cpu = processCPU() - cpu
			b.StopTimer()
			hits := st.bcache.classCounters().hits[classHeaders] - base
			if cached == (hits == 0) {
				b.Fatalf("%d reads were served %d header sets (cached: %v)", b.N, hits, cached)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "sets/op")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*rows), "cpu-ns/row")
		})
	}
}

// BenchmarkHotTailCSV is BenchmarkHotTailExport's read as the CSV export
// query-tiered's scan class makes of it: export.CSVCursor over the same
// cursor, into a writer that counts the bytes. walk is a store without
// a block cache: each export walks the segments' frames, checks the
// rows it selects, sorts every segment's rows and renders each row.
// cached is the store its warm-up export left: the segments'
// header sets, the active segment's among them, stand for their frames,
// and their text, rendered once, is written as it is. cpu-ns/row is as
// in BenchmarkHotTailExport, texts/op the renderings each export was
// served. cmd/benchdiff gates cached against walk within-run; the two
// take turns, benchPasses times.
func BenchmarkHotTailCSV(b *testing.B) {
	for range benchPasses {
		benchHotTailCSV(b)
	}
}

func benchHotTailCSV(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name, cacheBytes := "walk", int64(-1)
		if cached {
			name, cacheBytes = "cached", 0
		}
		b.Run(name, func(b *testing.B) {
			st, newest := hotTailStore(b, cacheBytes)
			defer st.Close()
			const rows = 1 << 16
			q := Query{Pred: where(btql.Between(btql.FStamp, newest-rows+1, 0)), Limit: rows, LengthsOnly: true}
			batch := make([]tracer.Entry, 1024)
			var out countingWriter
			csv := func() {
				cur := st.QueryParallel(q, 4)
				n, _, err := export.CSVCursor(&out, cur, batch)
				cur.Close()
				if err != nil || n != rows {
					b.Fatalf("exported %d rows (%v), want %d", n, err, rows)
				}
			}
			csv() // sets and their text, with the cache
			base := st.bcache.classCounters().hits[classText]
			b.ReportAllocs()
			b.ResetTimer()
			cpu := processCPU()
			for i := 0; i < b.N; i++ {
				csv()
			}
			cpu = processCPU() - cpu
			b.StopTimer()
			texts := st.bcache.classCounters().hits[classText] - base
			if cached == (texts == 0) {
				b.Fatalf("%d exports were served %d texts (cached: %v)", b.N, texts, cached)
			}
			b.ReportMetric(float64(texts)/float64(b.N), "texts/op")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*rows), "cpu-ns/row")
		})
	}
}

// countingWriter counts what is written to it, and keeps none of it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// windowBTQL is BenchmarkWindowExport's query: the stamps from 20 001
// to 80 000 of benchEntries(100_000) — cutting two cold files — of one
// TID and one category, which 1 in 96 rows are.
const windowBTQL = `stamp >= 20001 && stamp <= 80000 && tid == 7 && category == 1`

// BenchmarkWindowExport is query-tiered's selective and cold classes in
// process: windowBTQL read for payload lengths only (what a CSV export
// asks for) over benchColdStore's mostly-cold fixture, at 4 scan
// workers, through a 1024-entry batch, again and again. walk is a store
// without a block cache: each read walks the window's cold blocks by
// column, inflating their meta sections and decoding the TID, stamp and
// time columns. cached reads the filtered sets (scan.go) its warm-up
// built, one per cold file the window reaches, and opens no file.
// cpu-ns/row is the process's CPU time over the timed reads per row
// delivered, sets/op the sets each read was served. cmd/benchdiff gates
// cached at <= 0.1x of walk within-run.
func BenchmarkWindowExport(b *testing.B) {
	want := 0
	for s := uint64(20_001); s <= 80_000; s++ {
		if s%32 == 7 && s%6 == 1 {
			want++
		}
	}
	for _, cached := range []bool{false, true} {
		name, cacheBytes := "walk", int64(-1)
		if cached {
			name, cacheBytes = "cached", 0
		}
		b.Run(name, func(b *testing.B) {
			st := benchColdStore(b, cacheBytes)
			defer st.Close()
			q := Query{Pred: benchParse(b, windowBTQL).Predicate(), LengthsOnly: true}
			batch := make([]tracer.Entry, 1024)
			read := func() {
				if n := drainCursor(b, st.QueryParallel(q, 4), batch); n != want {
					b.Fatalf("read %d rows, want %d", n, want)
				}
			}
			read() // a filtered set per cold file, with the cache
			base := st.bcache.classCounters().hits[classHeaders]
			b.ReportAllocs()
			b.ResetTimer()
			cpu := processCPU()
			for i := 0; i < b.N; i++ {
				read()
			}
			cpu = processCPU() - cpu
			b.StopTimer()
			hits := st.bcache.classCounters().hits[classHeaders] - base
			if cached == (hits == 0) {
				b.Fatalf("%d reads were served %d sets (cached: %v)", b.N, hits, cached)
			}
			b.ReportMetric(float64(hits)/float64(b.N), "sets/op")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*want), "cpu-ns/row")
		})
	}
}

// selectiveBTQL is the benchmark query: a stamp range covering the
// newest ~10% of the fixture, narrowed to one TID. Its compiled hull
// prunes most cold blocks on the directory metadata alone, and the
// header-only predicate leaves every surviving block's payload section
// compressed.
const selectiveBTQL = `stamp >= 90001 && tid == 7`

// selectiveMatches is the ground truth for selectiveBTQL over
// benchEntries(100_000), computed from the generator rule.
func selectiveMatches() int {
	n := 0
	for s := uint64(90_001); s <= 100_000; s++ {
		if uint32(s%32) == 7 {
			n++
		}
	}
	return n
}

// benchParse compiles one BTQL source for the query benchmarks.
func benchParse(b *testing.B, src string) *btql.Query {
	b.Helper()
	q, err := btql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// BenchmarkQueryFullScan is the no-pushdown baseline for
// BenchmarkQuerySelectiveBTQL: drain every event of the majority-cold
// fixture (every block decompressed, payload sections included) and
// evaluate the selective predicate row by row, grep-style.
func BenchmarkQueryFullScan(b *testing.B) {
	st := benchColdStore(b, 0)
	defer st.Close()
	pred := benchParse(b, selectiveBTQL).Predicate()
	want := selectiveMatches()
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := st.Query(Query{})
		n, matches := 0, 0
		for {
			m, _, err := cur.Next(batch)
			if err != nil {
				b.Fatal(err)
			}
			if m == 0 {
				break
			}
			n += m
			for j := 0; j < m; j++ {
				if pred.Match(&batch[j]) {
					matches++
				}
			}
		}
		cur.Close()
		if n != 100_000 || matches != want {
			b.Fatalf("full scan saw %d events, %d matches (want 100000, %d)", n, matches, want)
		}
	}
}

// BenchmarkQuerySelectiveBTQL runs the identical selection with the
// predicate pushed into the scan: the compiled stamp/TID hull prunes
// files and blocks from their directory metadata, and surviving v2
// blocks decode header columns only — payload sections stay compressed.
// cmd/benchdiff gates this at <= 0.2x of BenchmarkQueryFullScan
// within-run (the paper-facing >= 5x claim).
func BenchmarkQuerySelectiveBTQL(b *testing.B) {
	st := benchColdStore(b, 0)
	defer st.Close()
	pred := benchParse(b, selectiveBTQL).Predicate()
	want := selectiveMatches()
	base := st.Stats()
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := drainCursor(b, st.Query(Query{Pred: pred}), batch)
		if n != want {
			b.Fatalf("selective query matched %d events, want %d", n, want)
		}
	}
	b.StopTimer()
	after := st.Stats()
	if after.BlocksPruned <= base.BlocksPruned {
		b.Fatalf("selective query pruned no cold blocks: %d -> %d",
			base.BlocksPruned, after.BlocksPruned)
	}
	b.ReportMetric(float64(after.BlocksPruned-base.BlocksPruned)/float64(b.N), "blocks-pruned/op")
}

// benchAggregate runs `core == 2 | count()` over the majority-cold
// fixture b.N times. With first set every timed run is a first fold:
// the partials the run before it left are dropped, timer stopped, and
// the meta sections and columns stay — what a new aggregate finds in a
// store that has served others.
func benchAggregate(b *testing.B, first bool) {
	st := benchColdStore(b, 0)
	defer st.Close()
	bq := benchParse(b, `core == 2 | count()`)
	q := Query{Pred: bq.Predicate()}
	specs := []btql.AggSpec{*bq.Agg}
	aggregate := func() {
		res, _, err := st.Aggregate(q, specs)
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Events != 100_000/8 {
			b.Fatalf("aggregate counted %d, want %d", res[0].Events, 100_000/8)
		}
	}
	aggregate() // warm: sections, columns and, for the repeat, partials
	base := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if first {
			b.StopTimer()
			st.bcache.reset(classPartial)
			b.StartTimer()
		}
		aggregate()
	}
	b.StopTimer()
	after := st.Stats()
	if folded := after.AggPartialMisses - base.AggPartialMisses; first == (folded == 0) {
		b.Fatalf("%d runs folded %d sealed segments (first folds: %v)", b.N, folded, first)
	}
}

// BenchmarkQueryAggregate measures the columnar aggregate executor: a
// BTQL count() over a header filter, folded from decoded columns
// without materializing a single tracer.Entry (payload sections are
// never inflated). Every run folds every segment.
func BenchmarkQueryAggregate(b *testing.B) { benchAggregate(b, true) }

// BenchmarkQueryAggregateRepeat is the same aggregate asked again: the
// sealed segments' partials merged, the active segment folded.
// cmd/benchdiff gates it at <= 0.1x of BenchmarkQueryAggregate
// within-run.
func BenchmarkQueryAggregateRepeat(b *testing.B) { benchAggregate(b, false) }

// BenchmarkCompactTier measures one full tier transition: freezing a
// freshly sealed ~20k-record store (frame verification, DEFLATE
// compression, block directory construction, atomic commit) per op.
func BenchmarkCompactTier(b *testing.B) {
	const events = 20_000
	es := benchEntries(events)
	b.SetBytes(int64(events * FrameSize(&es[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := Open(b.TempDir(), Config{SegmentBytes: 256 << 10, ColdAfterNs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.AppendEntries(es); err != nil {
			b.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := st.CompactCold()
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("nothing frozen")
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreQuery measures an indexed stamp-range query (1k of 100k
// records) against a sealed multi-segment store, per-op = one full query.
func BenchmarkStoreQuery(b *testing.B) {
	const total = 100_000
	st, err := Open(b.TempDir(), Config{SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	es := benchEntries(total)
	if err := st.AppendEntries(es); err != nil {
		b.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		b.Fatal(err)
	}
	batch := make([]tracer.Entry, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(1 + (i*37)%(total-1000))
		cur := st.Query(Query{Pred: where(btql.Between(btql.FStamp, lo, lo+999))})
		n := 0
		for {
			m, _, err := cur.Next(batch)
			if err != nil {
				b.Fatal(err)
			}
			if m == 0 {
				break
			}
			n += m
		}
		cur.Close()
		if n != 1000 {
			b.Fatalf("query returned %d records, want 1000", n)
		}
	}
}

// BenchmarkStoreReopen measures recovery: reopening a closed store of
// 50 000 events in 256 KiB segments, every frame of every segment
// walked and checked and its metadata and sparse index rebuilt. The
// walks share one span buffer, so what B/op counts is the store and
// its segments, not a read buffer per segment.
func BenchmarkStoreReopen(b *testing.B) {
	const events = 50_000
	cfg := Config{SegmentBytes: 256 << 10}
	dir := b.TempDir()
	st, err := Open(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendEntries(benchEntries(events)); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if re.Events() != events {
			b.Fatalf("reopened store has %d events", re.Events())
		}
		re.Close()
	}
}

// freezeStream is the tail-mixed end-to-end workload's event stream,
// built the way its generator builds it: one client's 64 threads, the
// calibrated Fig. 2 category mix and payload sizes, payloads half
// random letters and half the category's name, 320 µs of virtual time
// between events. It returns the first n events.
func freezeStream(b *testing.B, n int) []tracer.Entry {
	w := workload.Workload{
		Name: "bench", LittleK: 10, MiddleK: 10, BigK: 10,
		ThreadsTotal: 64, ThreadsPerSec: 64, Seed: 7 * 1009,
	}
	g, err := w.Gen(workload.GenOptions{WindowNs: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7 * 7919))
	es := make([]tracer.Entry, n)
	for i := range es {
		ev, ok := g.Next()
		if !ok {
			b.Fatal("workload generator ran dry")
		}
		tid := 1000 + (ev.TID&0xFFFF-1)%64
		payload := make([]byte, ev.PayloadLen)
		name := workload.Categories[ev.Cat].Name
		for j := range payload {
			if j < len(payload)/2 {
				payload[j] = byte('a' + rng.Intn(16))
			} else {
				payload[j] = name[j%len(name)]
			}
		}
		stamp := uint64(i + 1)
		es[i] = tracer.Entry{
			Stamp: stamp, TS: stamp * 320_000, Core: uint8(tid % 8), TID: tid,
			Category: uint8(ev.Cat), Level: ev.Level, Payload: payload,
		}
	}
	return es
}

// BenchmarkFreezeDeflate measures what the freezer's DEFLATE costs per
// event and what it leaves on disk, per section of one full cold block
// (defaultColdBlockBytes of frames) of the tail-mixed stream: the
// payload section, 128-row chunks each its own stream, and the meta
// section (columns plus chunk directory), at the shipped level
// (flate.BestSpeed, the pooled compressor) and, for comparison, at
// flate.HuffmanOnly. ns/event and B/event are per row of the block.
func BenchmarkFreezeDeflate(b *testing.B) {
	es := freezeStream(b, 8192)
	w := &coldWriterV2{blockBytes: defaultColdBlockBytes}
	rows := 0
	for rows < len(es) && w.frameRaw+int64(FrameSize(&es[rows])) < defaultColdBlockBytes {
		if err := w.add(&es[rows]); err != nil {
			b.Fatal(err)
		}
		rows++
	}
	if rows == len(es) {
		b.Fatal("stream shorter than a block")
	}
	if _, err := w.compress(); err != nil { // fills the chunk directory the meta section holds
		b.Fatal(err)
	}
	sections := map[string]func(fw *flate.Writer, dst *bytes.Buffer) error{
		"payload": func(fw *flate.Writer, dst *bytes.Buffer) error {
			plens, pay := w.cols.plens, w.pay
			for len(plens) > 0 {
				n, raw := min(payChunkRows, len(plens)), 0
				for _, pl := range plens[:n] {
					raw += int(pl)
				}
				if raw > 0 {
					if err := deflate(fw, dst, pay[:raw]); err != nil {
						return err
					}
				}
				plens, pay = plens[n:], pay[raw:]
			}
			return nil
		},
		"meta": func(fw *flate.Writer, dst *bytes.Buffer) error { return deflate(fw, dst, w.scratch) },
	}
	huffman, err := flate.NewWriter(nil, flate.HuffmanOnly)
	if err != nil {
		b.Fatal(err)
	}
	for _, section := range []string{"payload", "meta"} {
		for _, level := range []string{"", "-huffman"} {
			b.Run(section+level, func(b *testing.B) {
				fw := huffman
				if level == "" {
					fw = flateWriters.Get().(*flate.Writer)
					defer func() { fw.Reset(nil); flateWriters.Put(fw) }()
				}
				var dst bytes.Buffer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst.Reset()
					if err := sections[section](fw, &dst); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/event")
				b.ReportMetric(float64(dst.Len())/float64(rows), "B/event")
			})
		}
	}
}
