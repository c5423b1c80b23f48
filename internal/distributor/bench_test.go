package distributor

import (
	"fmt"
	"runtime"
	"testing"

	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

const benchBatch = 256

func benchEvents(start uint64) []tracer.Entry {
	es := make([]tracer.Entry, benchBatch)
	for i := range es {
		stamp := start + uint64(i)
		es[i] = tracer.Entry{
			Stamp:    stamp,
			TS:       stamp * 1000,
			TID:      uint32(10 + i%16),
			Category: uint8(stamp % 5),
			Level:    1,
			Payload:  []byte("bench payload 0123456789abcdef"),
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

// BenchmarkDistributorIngest measures ingest throughput through the
// RF=2 fan-out over 4 shards against direct single-shard ingest: the
// price of quorum replication per acked event.
func BenchmarkDistributorIngest(b *testing.B) {
	b.Run("rf2-4shards", func(b *testing.B) {
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

		b.SetBytes(benchBytes())
		b.ResetTimer()
		var acked int
		for i := 0; i < b.N; i++ {
			res := d.Ingest("bench", benchEvents(uint64(i)*benchBatch+1))
			acked += res.Acked
		}
		b.StopTimer()
		if acked != b.N*benchBatch {
			b.Fatalf("acked %d of %d events", acked, b.N*benchBatch)
		}
		b.ReportMetric(float64(acked)/b.Elapsed().Seconds(), "events/s")
	})

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

		b.SetBytes(benchBytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sh.Ingest(benchEvents(uint64(i)*benchBatch + 1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatch)/b.Elapsed().Seconds(), "events/s")
	})
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
// overlaps its neighbours: each shard scan decodes and sorts whole
// segments and holds them all at once, which is what B/op shows.
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
		heap := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC() // the second empties the pools' victim caches
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := heap()
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
		held := heap()
		cur.Close()
		b.ReportMetric(float64(max(held, before)-before), "live-B")
	}

	// merged drains the cluster after feeding it the batches starting at
	// the given stamps, in that order.
	merged := func(b *testing.B, starts []uint64) {
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
		for _, s := range starts {
			if res := d.Ingest("bench", benchEvents(s)); res.Acked != benchBatch {
				b.Fatalf("acked %d of %d events", res.Acked, benchBatch)
			}
		}
		drain(b, func() (tracer.Cursor, error) { return d.Query(store.Query{}, 0) })
	}
	var inOrder, interleaved []uint64
	for s := uint64(1); s <= benchScanEvents; s += benchBatch {
		inOrder = append(inOrder, s)
	}
	for i, half := 0, len(inOrder)/2; i < half; i++ {
		interleaved = append(interleaved, inOrder[i], inOrder[half+i])
	}

	b.Run("merged-4xrf2", func(b *testing.B) { merged(b, inOrder) })
	b.Run("merged-4xrf2-interleaved", func(b *testing.B) { merged(b, interleaved) })

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
			if err := sh.Ingest(benchEvents(s)); err != nil {
				b.Fatal(err)
			}
		}
		drain(b, func() (tracer.Cursor, error) { return sh.Query(store.Query{}, 0) })
	})
}
