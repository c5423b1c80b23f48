package btrace

import (
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, cfg Config) *Tracer {
	t.Helper()
	tr, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%+v): %v", cfg, err)
	}
	return tr
}

func TestOpenValidation(t *testing.T) {
	bad := []Config{
		{},
		{Cores: 4},
		{BufferBytes: 1 << 20},
		{Cores: 4, BufferBytes: 1 << 20, MaxBufferBytes: 1 << 10},
		{Cores: 4, BufferBytes: 100}, // too small for one block per core
	}
	for i, cfg := range bad {
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

func TestWriteSnapshotRoundTrip(t *testing.T) {
	tr := open(t, Config{Cores: 4, BufferBytes: 1 << 20})
	w, err := tr.Writer(2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{TS: 42, Category: 9, Level: 2, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	r := tr.NewReader()
	defer r.Close()
	es := r.Snapshot()
	if len(es) != 1 {
		t.Fatalf("snapshot = %d events", len(es))
	}
	e := es[0]
	if e.Stamp != 1 || e.TS != 42 || e.Core != 2 || e.TID != 77 || e.Category != 9 ||
		e.Level != 2 || string(e.Payload) != "hello" {
		t.Fatalf("event: %+v", e)
	}
	if tr.Stats().Writes != 1 {
		t.Fatalf("stats: %+v", tr.Stats())
	}
}

func TestWriterValidation(t *testing.T) {
	tr := open(t, Config{Cores: 4, BufferBytes: 1 << 20})
	if _, err := tr.Writer(-1, 0); err == nil {
		t.Error("negative core")
	}
	if _, err := tr.Writer(4, 0); err == nil {
		t.Error("core out of range")
	}
}

func TestStampsAssignedMonotonically(t *testing.T) {
	tr := open(t, Config{Cores: 2, BufferBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, _ := tr.Writer(g%2, g)
			for i := 0; i < 500; i++ {
				if err := w.Write(Event{TS: uint64(i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r := tr.NewReader()
	defer r.Close()
	es := r.Snapshot()
	if len(es) != 4000 {
		t.Fatalf("snapshot = %d events, want 4000", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Stamp <= es[i-1].Stamp {
			t.Fatal("snapshot not stamp-ordered")
		}
	}
}

func TestResizePublicAPI(t *testing.T) {
	tr := open(t, Config{Cores: 2, BufferBytes: 1 << 20, MaxBufferBytes: 4 << 20, PoisonOnReclaim: true})
	if tr.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", tr.Capacity())
	}
	if err := tr.Resize(4 << 20); err != nil {
		t.Fatal(err)
	}
	if tr.Capacity() != 4<<20 {
		t.Fatalf("capacity after grow = %d", tr.Capacity())
	}
	if err := tr.Resize(8 << 20); err == nil {
		t.Error("beyond reservation: expected error")
	}
	w, _ := tr.Writer(0, 1)
	for i := 0; i < 1000; i++ {
		if err := w.Write(Event{TS: uint64(i), Payload: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Resize(1); err != nil { // rounds up to one block round
		t.Fatal(err)
	}
	if tr.Capacity() >= 1<<20 {
		t.Fatalf("capacity after shrink = %d", tr.Capacity())
	}
	// Still writable and readable.
	if err := w.Write(Event{TS: 1}); err != nil {
		t.Fatal(err)
	}
	r := tr.NewReader()
	defer r.Close()
	if es := r.Snapshot(); len(es) == 0 {
		t.Fatal("nothing readable after shrink")
	}
}

func TestMaxEntryPayload(t *testing.T) {
	tr := open(t, Config{Cores: 1, BufferBytes: 1 << 20})
	w, _ := tr.Writer(0, 0)
	if err := w.Write(Event{Payload: make([]byte, tr.MaxEntryPayload())}); err != nil {
		t.Fatalf("max payload write: %v", err)
	}
	if err := w.Write(Event{Payload: make([]byte, tr.MaxEntryPayload()+8)}); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestResetPublicAPI(t *testing.T) {
	tr := open(t, Config{Cores: 1, BufferBytes: 1 << 20})
	w, _ := tr.Writer(0, 0)
	for i := 0; i < 10; i++ {
		if err := w.Write(Event{}); err != nil {
			t.Fatal(err)
		}
	}
	tr.Reset()
	r := tr.NewReader()
	defer r.Close()
	if es := r.Snapshot(); len(es) != 0 {
		t.Fatalf("%d events after Reset", len(es))
	}
}

func TestBlocksAcquiredPublic(t *testing.T) {
	tr := open(t, Config{Cores: 2, BufferBytes: 1 << 20})
	w, _ := tr.Writer(1, 5)
	for i := 0; i < 2000; i++ {
		if err := w.Write(Event{Payload: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	acq := tr.BlocksAcquired()
	if len(acq) != 2 || acq[1] == 0 || acq[0] != 0 {
		t.Fatalf("BlocksAcquired = %v", acq)
	}
}

func TestWriteNow(t *testing.T) {
	tr := open(t, Config{Cores: 1, BufferBytes: 1 << 20})
	w, _ := tr.Writer(0, 0)
	if err := w.WriteNow(Event{Category: 1}); err != nil {
		t.Fatal(err)
	}
	// The second event is written once the monotonic clock WriteNow
	// reads has been seen to move, however coarse it is.
	for t0 := time.Now(); time.Since(t0) <= 0; {
	}
	if err := w.WriteNow(Event{Category: 1}); err != nil {
		t.Fatal(err)
	}
	r := tr.NewReader()
	defer r.Close()
	es := r.Snapshot()
	if len(es) != 2 {
		t.Fatalf("%d events", len(es))
	}
	if es[1].TS <= es[0].TS {
		t.Fatalf("timestamps not increasing: %d then %d", es[0].TS, es[1].TS)
	}
}

func TestPublicPoll(t *testing.T) {
	tr := open(t, Config{Cores: 1, BufferBytes: 1 << 20})
	w, _ := tr.Writer(0, 0)
	r := tr.NewReader()
	defer r.Close()
	for i := 0; i < 5; i++ {
		if err := w.Write(Event{TS: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	es, missed := r.Poll()
	if missed != 0 || len(es) != 5 {
		t.Fatalf("poll: %d events, %d missed", len(es), missed)
	}
	if es, _ := r.Poll(); len(es) != 0 {
		t.Fatalf("idle poll returned %d", len(es))
	}
	if err := w.Write(Event{TS: 9}); err != nil {
		t.Fatal(err)
	}
	es, _ = r.Poll()
	if len(es) != 1 || es[0].Stamp != 6 {
		t.Fatalf("incremental poll: %+v", es)
	}
}
