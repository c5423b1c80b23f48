package live

import (
	"fmt"
	"io"
	"testing"

	"btrace/internal/tracer"
)

// BenchmarkLiveFanout measures the hub's publish path: the idle case
// (hub attached to the gate but no subscribers — this must stay at
// 0 allocs/op, it is the standing cost every admitted batch pays) and
// fan-out to 1/16/256 subscribers, reported as events/s. Subscribers
// do not drain: the steady state under benchmark load is the
// overwrite path, which is also the most work the publish side ever
// does per event. Every case is 0 allocs/op (benchdiff's -zero-allocs
// list): the rings are lapped once before the timer starts, so each
// slot has the payload array it then reuses.
func BenchmarkLiveFanout(b *testing.B) {
	batch := benchBatch()

	b.Run("idle", func(b *testing.B) {
		h := NewHub(Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Publish("default", batch)
		}
		b.StopTimer()
		reportRate(b, batchSize)
	})

	for _, subs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			h := NewHub(Config{MaxSubscribers: subs, EvictAfterMissed: ^uint64(0)})
			for i := 0; i < subs; i++ {
				sub, err := h.Subscribe(Filter{})
				if err != nil {
					b.Fatal(err)
				}
				defer sub.Close()
			}
			for i := 0; i <= h.cfg.BufferEvents/batchSize; i++ {
				h.Publish("default", batch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish("default", batch)
			}
			b.StopTimer()
			reportRate(b, batchSize)
		})
	}
}

// BenchmarkLiveSSE is the whole live path for one /live connection in
// tail-mixed's shape — one subscriber on 32 of 64 TIDs, keeping up:
// Publish a 256-event batch, Next it out of the ring, AppendFrame every
// entry into the connection's reused buffer, one Write. An op is one
// batch; ns/event is the cost per published event. 0 allocs/op.
func BenchmarkLiveSSE(b *testing.B) {
	batch := benchBatch()
	h := NewHub(Config{})
	var tids []uint32
	for tid := uint32(100); tid < 100+benchTIDs; tid += 2 {
		tids = append(tids, tid)
	}
	sub, err := h.Subscribe(Filter{TIDs: tids})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	out := make([]tracer.Entry, batchSize)
	var buf []byte
	op := func() {
		h.Publish("default", batch)
		n, missed, err := sub.Next(out)
		if err != nil || missed != 0 || n != batchSize/2 {
			b.Fatalf("Next = (%d, %d, %v), want %d events and no loss", n, missed, err, batchSize/2)
		}
		buf = buf[:0]
		for i := range out[:n] {
			buf = AppendFrame(buf, &out[i])
		}
		io.Discard.Write(buf)
	}
	for i := 0; i < 3*h.cfg.BufferEvents/batchSize; i++ {
		op() // lap the ring: see TestLivePathAllocs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/event")
	reportRate(b, batchSize)
}

const (
	batchSize = 256
	benchTIDs = 64 // bench/gen's TIDsPerClient
)

// benchBatch is one admitted batch: 64 TIDs, 64-byte payloads.
func benchBatch() []tracer.Entry {
	batch := make([]tracer.Entry, batchSize)
	payload := make([]byte, 64)
	for i := range batch {
		batch[i] = tracer.Entry{
			Stamp: uint64(i + 1), TS: uint64(i) * 100, Core: uint8(i % 8),
			TID: uint32(100 + i%benchTIDs), Category: uint8(1 + i%4), Level: 1,
			Payload: payload,
		}
	}
	return batch
}

// reportRate converts the run into an events/s metric (benchdiff gates
// "/s" metrics as rates: drops fail, growth passes).
func reportRate(b *testing.B, perOp int) {
	if b.Elapsed() <= 0 {
		return
	}
	b.ReportMetric(float64(b.N*perOp)/b.Elapsed().Seconds(), "events/s")
}
