package main

import (
	"encoding/binary"
	"net/http"
	"testing"

	"btrace/internal/store"
	"btrace/internal/tracer"
)

const benchBatchEvents = 256

// benchWire is one generated POST /ingest body: 256 events over 16
// thread ids with 56-byte payloads, 22 kB on the wire — the benchmark
// workloads' batch shape.
func benchWire(tb testing.TB) []byte {
	payload := make([]byte, 56)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	es := make([]tracer.Entry, benchBatchEvents)
	for i := range es {
		es[i] = tracer.Entry{TID: uint32(10 + i%16), Category: uint8(i % 5), Level: 1, Payload: payload}
	}
	var wire []byte
	rec := make([]byte, es[0].WireSize())
	for i := range es {
		n, err := tracer.EncodeEvent(rec, &es[i])
		if err != nil {
			tb.Fatal(err)
		}
		wire = append(wire, rec[:n]...)
	}
	return wire
}

// restamp gives batch k of the stream fresh stamps and timestamps, in
// place — what a client's next send looks like to the verifier.
func restamp(wire []byte, k int) {
	size := len(wire) / benchBatchEvents
	for i := 0; i < benchBatchEvents; i++ {
		stamp := uint64(k*benchBatchEvents + i + 1)
		binary.LittleEndian.PutUint64(wire[i*size+8:], stamp)
		binary.LittleEndian.PutUint64(wire[i*size+16:], stamp*1000)
	}
}

// discardResponse is the ResponseWriter the single-store benchmark
// hands serve: one header map, reused, and a body that goes nowhere.
type discardResponse http.Header

func (d discardResponse) Header() http.Header       { return http.Header(d) }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}
func (discardResponse) Flush()                      {}

// BenchmarkServeIngest drives both /ingest paths from just below
// net/http — a pooled batch filled from a generated body, decoded, then
// run through what the handler runs on it: the single store's serve
// (gate, admit, ack, append) or the cluster's quorum replication, into
// local-backend stores — in steady state, after the pool, the stores'
// frame buffers and the fan-out scratch have warmed up. Both must stay
// at 0 allocs/op (benchdiff -zero-allocs): that is the gate that keeps
// the per-batch garbage from coming back.
func BenchmarkServeIngest(b *testing.B) {
	// Warm-up batches: 11 MB, at least one segment rotation per store.
	const warmup = 512
	// 4 MiB segments under 64 MiB retention: rotation and retention included,
	// disk use bounded however long the run.
	scfg := store.Config{SegmentBytes: 4 << 20, MaxBytes: 64 << 20}
	wire := benchWire(b)
	load := func(k int) *ingestBatch {
		restamp(wire, k)
		batch := batchPool.Get().(*ingestBatch)
		batch.tenant = "bench"
		batch.body = append(batch.body[:0], wire...)
		if status, msg := batch.decode(); status != 0 {
			b.Fatal(msg)
		}
		return batch
	}

	b.Run("single", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), scfg)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		p := newIngestPipeline(st, ingestConfig{SampleRate: 1})
		defer p.Close()
		w := discardResponse{}
		for k := 0; k < warmup; k++ {
			p.serve(w, load(k))
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.serve(w, load(warmup+i))
		}
		b.StopTimer()
		// Not st.Events(): past MaxBytes retention deletes the oldest
		// segments, and the store holds less than was applied to it.
		if got, want := st.Stats().Appends, uint64((warmup+b.N)*benchBatchEvents); got != want {
			b.Fatalf("store applied %d events, want %d", got, want)
		}
		b.ReportMetric(float64(b.N*benchBatchEvents)/b.Elapsed().Seconds(), "events/s")
	})

	b.Run("cluster-4xrf2", func(b *testing.B) {
		cp, err := newClusterPipeline(clusterConfig{
			Dir: b.TempDir(), Shards: 4, Replication: 2, Store: scfg,
			Ingest: ingestConfig{SampleRate: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cp.Close()
		post := func(k int) {
			batch := load(k)
			res := cp.d.Ingest(batch.tenant, batch.es)
			batch.release()
			if res.Acked != benchBatchEvents {
				b.Fatalf("batch %d: %d of %d events acked", k, res.Acked, benchBatchEvents)
			}
		}
		for k := 0; k < warmup; k++ {
			post(k)
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(warmup + i)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*benchBatchEvents)/b.Elapsed().Seconds(), "events/s")
	})
}
