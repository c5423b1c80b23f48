package store

import (
	"errors"
	"testing"
	"time"

	"btrace/internal/tracer"
)

func TestPressureAndWriteErr(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Pressure(); p.Failed || p.AppendNs != 0 || p.FsyncNs != 0 {
		t.Fatalf("fresh store pressure: %+v", p)
	}
	if err := st.WriteErr(); err != nil {
		t.Fatalf("fresh store WriteErr: %v", err)
	}

	es := make([]tracer.Entry, 64)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: uint64(i + 1), TID: 7, Level: 1}
	}
	if err := st.AppendEntries(es); err != nil {
		t.Fatal(err)
	}
	if p := st.Pressure(); p.AppendNs == 0 {
		t.Fatalf("append latency EWMA not updated: %+v", p)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if p := st.Pressure(); p.FsyncNs == 0 {
		t.Fatalf("fsync latency EWMA not updated: %+v", p)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteErr(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed store WriteErr: %v", err)
	}
	if p := st.Pressure(); !p.Failed {
		t.Fatalf("closed store not Failed: %+v", p)
	}
}

func TestEwma(t *testing.T) {
	var e ewma
	if e.load() != 0 {
		t.Fatal("zero ewma")
	}
	e.observe(800)
	if e.load() != 800 {
		t.Fatalf("first observation seeds the average: %d", e.load())
	}
	e.observe(0)
	if got := e.load(); got != 800-800/8 {
		t.Fatalf("decay step: %d", got)
	}
	for i := 0; i < 100; i++ {
		e.observe(1600)
	}
	if got := e.load(); got < 1500 || got > 1600 {
		t.Fatalf("converged value: %d", got)
	}
}

// TestEwmaDecaysWhenIdle: without new samples the exported average
// halves per ewmaIdleHalfLife, so a burst's latency spike cannot pin
// the overload gate at full-drop long after traffic stops (the bug: one
// big ingest batch wedged /readyz at 503 forever).
func TestEwmaDecaysWhenIdle(t *testing.T) {
	var e ewma
	e.observe(1 << 20)
	// Backdate the sample instead of sleeping: 10 half-lives ago.
	e.at.Store(time.Now().Add(-10 * ewmaIdleHalfLife).UnixNano())
	if got := e.load(); got > (1<<20)/512 {
		t.Fatalf("idle ewma did not decay: %d", got)
	}
	e.at.Store(time.Now().Add(-100 * ewmaIdleHalfLife).UnixNano())
	if got := e.load(); got != 0 {
		t.Fatalf("long-idle ewma not zero: %d", got)
	}
	// A fresh observation resets the clock: no decay right after.
	e.observe(1 << 20)
	if got := e.load(); got == 0 {
		t.Fatalf("fresh observation decayed: %d", got)
	}
}

// TestPressureAppendLatencyPerEvent: the pressure EWMA is normalized
// per event, so one large AppendEntries call (whose wall time grows
// with the batch) reads as throughput, not as an overload signal
// blowing the gate's per-event append budget.
func TestPressureAppendLatencyPerEvent(t *testing.T) {
	st, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	es := make([]tracer.Entry, 8192)
	for i := range es {
		es[i] = tracer.Entry{Stamp: uint64(i + 1), TS: uint64(i + 1), TID: 7, Level: 1}
	}
	if err := st.AppendEntries(es); err != nil {
		t.Fatal(err)
	}
	p := st.Pressure()
	if p.AppendNs == 0 {
		t.Fatalf("append latency EWMA not updated: %+v", p)
	}
	// Per-event append cost is well under 100µs even on a slow CI
	// runner; the whole-batch latency (the old, wrong sample) is
	// milliseconds for 8k events.
	if p.AppendNs > 100_000 {
		t.Fatalf("AppendNs %d looks like whole-batch latency, want per-event", p.AppendNs)
	}
}
