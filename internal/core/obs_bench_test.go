package core

import (
	"testing"

	"btrace/internal/tracer"
)

// BenchmarkObsOverhead is the self-observability overhead contract: the
// instrumented record and read fast paths must stay allocation-free and
// within noise (2% ns/op, enforced by cmd/benchdiff in CI) of the
// uninstrumented baseline built with Options.DisableStats. The record
// variants measure one Write per op; the read variants measure draining
// a fresh 500-event burst through the arena-backed cursor. The record
// pair, whose ratio rule has a 10 % limit, runs obsRecordPasses times,
// the two variants taking turns, so each pass of the pair meets the same
// machine; a repeated name comes back suffixed #01, #02, ..., which
// benchdiff folds into one row per pass.
func BenchmarkObsOverhead(b *testing.B) {
	for range obsRecordPasses {
		b.Run("record-instrumented", func(b *testing.B) { benchObsRecord(b, false) })
		b.Run("record-baseline", func(b *testing.B) { benchObsRecord(b, true) })
	}
	b.Run("read-instrumented", func(b *testing.B) { benchObsRead(b, false) })
	b.Run("read-baseline", func(b *testing.B) { benchObsRead(b, true) })
}

// obsRecordPasses is how many times BenchmarkObsOverhead runs its record
// pair. benchdiff's ratio rule drops the first pass and holds the median
// of the rest.
const obsRecordPasses = 6

func obsBenchBuffer(b *testing.B, disable bool) *Buffer {
	buf, err := New(Options{
		Cores: 4, BlockSize: 4096, ActiveBlocks: 64, Ratio: 8,
		DisableStats: disable,
	})
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

func benchObsRecord(b *testing.B, disable bool) {
	buf := obsBenchBuffer(b, disable)
	p := &tracer.FixedProc{CoreID: 1}
	payload := make([]byte, 64)
	e := tracer.Entry{Payload: payload}
	// Fault in the backing pages and settle the block-advance steady
	// state before measuring, so short -benchtime runs compare the two
	// variants' fast paths rather than their cold-start costs.
	var stamp uint64
	for i := 0; i < 4096; i++ {
		stamp++
		e.Stamp = stamp
		if err := buf.Write(p, &e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stamp++
		e.Stamp = stamp
		if err := buf.Write(p, &e); err != nil {
			b.Fatal(err)
		}
	}
}

func benchObsRead(b *testing.B, disable bool) {
	buf := obsBenchBuffer(b, disable)
	p := &tracer.FixedProc{CoreID: 0}
	payload := make([]byte, 64)
	var stamp uint64
	writeBurst := func(n int) {
		for i := 0; i < n; i++ {
			stamp++
			if err := buf.Write(p, &tracer.Entry{Stamp: stamp, Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	cur := buf.NewCursor()
	b.Cleanup(func() { cur.Close() })
	batch := make([]tracer.Entry, 512)
	drain := func() int {
		n := 0
		for {
			k, _, err := cur.Next(batch)
			if err != nil {
				b.Fatal(err)
			}
			if k == 0 {
				return n
			}
			n += k
		}
	}
	// Warm the cursor's arena before measuring.
	writeBurst(2000)
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		writeBurst(500)
		b.StartTimer()
		if drain() == 0 {
			b.Fatal("empty read")
		}
	}
}
