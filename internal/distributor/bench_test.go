package distributor

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

const benchBatch = 256

// benchPayload is every bench event's payload: Ingest and the store copy
// what they keep, so the events may share it.
var benchPayload = []byte("bench payload 0123456789abcdef")

// benchEvents returns a fresh batch of benchBatch events from stamp
// start on.
func benchEvents(start uint64) []tracer.Entry {
	return fillBenchEvents(make([]tracer.Entry, benchBatch), start)
}

// fillBenchEvents overwrites es with the events from stamp start on,
// allocating nothing: a timed loop refills one batch.
func fillBenchEvents(es []tracer.Entry, start uint64) []tracer.Entry {
	for i := range es {
		stamp := start + uint64(i)
		es[i] = tracer.Entry{
			Stamp:    stamp,
			TS:       stamp * 1000,
			TID:      uint32(10 + i%16),
			Category: uint8(stamp % 5),
			Level:    1,
			Payload:  benchPayload,
		}
	}
	return es
}

func benchBytes() int64 {
	var n int64
	for _, e := range benchEvents(1) {
		n += int64(tracer.Align + len(e.Payload))
	}
	return n
}

// benchPasses is how many times BenchmarkDistributorIngest and
// BenchmarkDistributorAggregate run the pair a ratio rule compares.
// benchdiff's ratio rule drops the first pass and holds the median of
// the rest.
const benchPasses = 6

// BenchmarkDistributorIngest measures ingest throughput through the
// RF=2 fan-out over 4 shards against direct single-shard ingest: the
// price of quorum replication per acked event. The two variants take
// turns, benchPasses times in one process, so each pass of the pair
// meets the same machine; a repeated name comes back suffixed #01, #02,
// ..., which benchdiff folds into one row per pass. Each pass opens
// fresh stores and ingests one batch before the timer starts: the first
// batch creates every shard's first segment and the admission's thread
// rows, a one-time cost four times larger on the cluster that would
// otherwise weigh on the ratio by how few ops a pass times.
func BenchmarkDistributorIngest(b *testing.B) {
	for range benchPasses {
		b.Run("rf2-4shards", benchIngestCluster)
		b.Run("direct-1shard", benchIngestDirect)
	}
}

func benchIngestCluster(b *testing.B) {
	locals := make([]Shard, 4)
	for i := range locals {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sh, err := NewLocalShard(LocalConfig{Name: fmt.Sprintf("shard-%02d", i), Store: st})
		if err != nil {
			b.Fatal(err)
		}
		locals[i] = sh
	}
	d, err := New(locals, Config{Replication: 2, Gate: overload.Config{MinSampleRate: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	es := make([]tracer.Entry, benchBatch)
	if res := d.Ingest("bench", fillBenchEvents(es, 1)); res.Acked != benchBatch { // warm-up, untimed
		b.Fatalf("warm-up: %+v", res)
	}
	b.SetBytes(benchBytes())
	b.ResetTimer()
	var acked int
	for i := 0; i < b.N; i++ {
		res := d.Ingest("bench", fillBenchEvents(es, uint64(i+1)*benchBatch+1))
		acked += res.Acked
	}
	b.StopTimer()
	if acked != b.N*benchBatch {
		b.Fatalf("acked %d of %d events", acked, b.N*benchBatch)
	}
	b.ReportMetric(float64(acked)/b.Elapsed().Seconds(), "events/s")
}

func benchIngestDirect(b *testing.B) {
	st, err := store.OpenBackend(backend.NewObject(), store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	sh, err := NewLocalShard(LocalConfig{Name: "solo", Store: st})
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()

	var batch store.Batch
	es := make([]tracer.Entry, benchBatch)
	batch.Encode(fillBenchEvents(es, 1)) // warm-up, untimed
	if err := sh.Ingest(&batch, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Encode(fillBenchEvents(es, uint64(i+1)*benchBatch+1))
		if err := sh.Ingest(&batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "events/s")
}

// benchHeap is the live heap, with the chunk pools emptied.
func benchHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the pools' victim caches
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchStarts returns the first stamps of the batches that make up the
// 64 Ki-event stream, in stamp order and as two writers taking turns
// half the stamp range apart would deliver them.
func benchStarts() (inOrder, interleaved []uint64) {
	for s := uint64(1); s <= benchScanEvents; s += benchBatch {
		inOrder = append(inOrder, s)
	}
	for i, half := 0, len(inOrder)/2; i < half; i++ {
		interleaved = append(interleaved, inOrder[i], inOrder[half+i])
	}
	return inOrder, interleaved
}

// benchCluster is a 4-shard RF=2 cluster fed the batches starting at
// the given stamps, in that order; closed when the benchmark ends.
func benchCluster(b *testing.B, starts []uint64) *Distributor {
	b.Helper()
	locals := make([]Shard, 4)
	for i := range locals {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sh, err := NewLocalShard(LocalConfig{Name: fmt.Sprintf("shard-%02d", i), Store: st})
		if err != nil {
			b.Fatal(err)
		}
		locals[i] = sh
	}
	d, err := New(locals, Config{Replication: 2, Gate: overload.Config{MinSampleRate: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	for _, s := range starts {
		if res := d.Ingest("bench", benchEvents(s)); res.Acked != benchBatch {
			b.Fatalf("acked %d of %d events", res.Acked, benchBatch)
		}
	}
	return d
}

// benchScanEvents is the size of the stream BenchmarkDistributorQuery
// scans: 64 Ki events, far past the handlers' default limit, so what a
// read buffers beyond its batches shows in B/op.
const benchScanEvents = 64 << 10

// BenchmarkDistributorQuery measures the cluster read path — every
// shard's stamp-ordered scan, the k-way merge and the replica dedup —
// draining one unlimited query over a 4-shard RF=2 cluster, against the
// same scan of one shard holding the stream once. merged-4xrf2 is fed in
// stamp order, so every segment is ordered and the shards' scans stream
// chunk by chunk; merged-4xrf2-interleaved is fed by two writers taking
// turns, half the stamp range apart, so every segment is unordered and
// overlaps its neighbours: each shard scan decodes such a segment whole
// and merges it by its sorted runs, holding it for as long as it is in
// the merge, which is what live-B shows — unless the read asks for
// payload lengths only (-lengths: Query.LengthsOnly, a CSV or Chrome
// export), when nothing aliases a span and each shard scans through
// one span buffer per worker.
func BenchmarkDistributorQuery(b *testing.B) {
	drain := func(b *testing.B, query func() (tracer.Cursor, error)) {
		b.Helper()
		batch := make([]tracer.Entry, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur, err := query()
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for {
				n, _, err := cur.Next(batch)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
				total += n
			}
			cur.Close()
			if total != benchScanEvents {
				b.Fatalf("scanned %d events, want %d", total, benchScanEvents)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchScanEvents)/b.Elapsed().Seconds(), "events/s")

		// B/op is what a read allocates once the chunk pools are warm, not
		// what it holds: live-B is the heap halfway through one more drain
		// over the heap before it.
		before := benchHeap()
		cur, err := query()
		if err != nil {
			b.Fatal(err)
		}
		for total := 0; total < benchScanEvents/2; {
			n, _, err := cur.Next(batch)
			if err != nil || n == 0 {
				b.Fatalf("half drain stopped at %d events: %v", total, err)
			}
			total += n
		}
		held := benchHeap()
		cur.Close()
		b.ReportMetric(float64(max(held, before)-before), "live-B")
	}

	inOrder, interleaved := benchStarts()
	merged := func(b *testing.B, starts []uint64, q store.Query) {
		d := benchCluster(b, starts)
		drain(b, func() (tracer.Cursor, error) { return d.Query(q, 0) })
	}

	b.Run("merged-4xrf2", func(b *testing.B) { merged(b, inOrder, store.Query{}) })
	b.Run("merged-4xrf2-interleaved", func(b *testing.B) { merged(b, interleaved, store.Query{}) })
	b.Run("merged-4xrf2-interleaved-lengths", func(b *testing.B) { merged(b, interleaved, store.Query{LengthsOnly: true}) })

	b.Run("direct-1shard", func(b *testing.B) {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sh, err := NewLocalShard(LocalConfig{Name: "solo", Store: st})
		if err != nil {
			b.Fatal(err)
		}
		defer sh.Close()
		for _, s := range inOrder {
			if err := st.AppendEntries(benchEvents(s)); err != nil {
				b.Fatal(err)
			}
		}
		drain(b, func() (tracer.Cursor, error) { return sh.Query(store.Query{}, 0) })
	})
}

// BenchmarkDistributorAggregate measures a cluster aggregate over
// BenchmarkDistributorQuery's fixtures: the same 64 Ki events on four
// shards at RF=2, which the merged read decodes twice over, merges and
// deduplicates on every core, and which an aggregate folds where they
// lie — each shard one header-only pass over its own segments, one
// shard after the other — against the same fold on one store holding
// the stream once: every event is folded on RF shards, so RF times
// direct-1shard is the floor. Every op must be answered by the shards'
// partials, and every op folds: an owned fold never reads the block
// cache's per-segment partials, and direct-1shard's store has no block
// cache to keep any in. live-B is the heap one more call grows by with
// the chunk pools emptied and the collector off: everything the call
// allocated, so an upper bound on what it held at any moment — the call
// cannot be stopped halfway the way a drain can. count-4xrf2 and
// direct-1shard, the pair a ratio rule compares, take turns benchPasses
// times in one process, as in BenchmarkDistributorIngest; each pass
// starts on fresh stores, so one untimed call warms it up. The other
// variants run once, after them.
func BenchmarkDistributorAggregate(b *testing.B) {
	inOrder, interleaved := benchStarts()
	count := []btql.AggSpec{{Kind: btql.AggCount}}
	topk := []btql.AggSpec{{Kind: btql.AggTopK, K: 4, Field: btql.FTID}}
	type aggregator interface {
		Aggregate(store.Query, []btql.AggSpec) ([]btql.Result, uint64, error)
	}
	run := func(b *testing.B, on aggregator, specs []btql.AggSpec) {
		aggregate := func() {
			res, missed, err := on.Aggregate(store.Query{}, specs)
			if err != nil || missed != 0 || res[0].Events != benchScanEvents {
				b.Fatalf("aggregate over %d events: %+v, missed %d, %v", benchScanEvents, res, missed, err)
			}
		}
		aggregate() // warm-up, untimed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			aggregate()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchScanEvents)/b.Elapsed().Seconds(), "events/s")

		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		before := benchHeap()
		aggregate()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(max(ms.HeapAlloc, before)-before), "live-B")
	}
	cluster := func(specs []btql.AggSpec, starts []uint64) func(*testing.B) {
		return func(b *testing.B) {
			d := benchCluster(b, starts)
			run(b, d, specs)
			if o := d.obs; o.aggMerged.Load() != 0 {
				b.Fatalf("%d of %d aggregates fell back to the merged fold", o.aggMerged.Load(), o.aggMerged.Load()+o.aggPushdown.Load())
			}
		}
	}
	direct := func(b *testing.B) {
		st, err := store.OpenBackend(backend.NewObject(), store.Config{ColdCacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for _, s := range inOrder {
			if err := st.AppendEntries(benchEvents(s)); err != nil {
				b.Fatal(err)
			}
		}
		run(b, st, count)
	}
	for range benchPasses {
		b.Run("count-4xrf2", cluster(count, inOrder))
		b.Run("direct-1shard", direct)
	}
	b.Run("count-4xrf2-interleaved", cluster(count, interleaved))
	b.Run("topk-tid-4xrf2", cluster(topk, inOrder))
	b.Run("topk-tid-4xrf2-interleaved", cluster(topk, interleaved))
}
