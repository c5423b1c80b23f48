package gen

import (
	"bytes"
	"testing"

	"btrace/internal/tracer"
)

func TestPatchKeepsBatchesDecodableAndOrdered(t *testing.T) {
	s, err := New(7, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lastStamp := map[uint32]uint64{}
	var lastTS uint64
	// Far enough to reuse every pooled body with new stamps patched in.
	for k := 0; k < 3*2*poolBodies; k++ {
		recs, truncated := tracer.DecodeAll(s.Patch(k))
		if truncated || len(recs) != BatchEvents {
			t.Fatalf("batch %d: %d records, truncated=%v", k, len(recs), truncated)
		}
		body := s.Body(k)
		for i, r := range recs {
			e := r.Event
			if r.Kind != tracer.KindEvent || e.Stamp != FirstStamp(k)+uint64(i) || BatchOf(e.Stamp) != k {
				t.Fatalf("batch %d event %d: kind %v stamp %d", k, i, r.Kind, e.Stamp)
			}
			if e.Stamp <= lastStamp[e.TID] {
				t.Fatalf("batch %d: tid %d stamp %d after %d", k, e.TID, e.Stamp, lastStamp[e.TID])
			}
			lastStamp[e.TID] = e.Stamp
			if e.TS <= lastTS {
				t.Fatalf("batch %d event %d: timestamp %d after %d", k, i, e.TS, lastTS)
			}
			lastTS = e.TS
			if e.TID != body.TID[i] || e.Category != body.Cat[i] {
				t.Fatalf("batch %d event %d: oracle fields (%d, %d) differ from the wire's (%d, %d)",
					k, i, body.TID[i], body.Cat[i], e.TID, e.Category)
			}
			if want := ClientTIDs(s.Client(k)); e.TID < want[0] || e.TID > want[len(want)-1] {
				t.Fatalf("batch %d: tid %d is not one of client %d's", k, e.TID, s.Client(k))
			}
			if len(e.Payload) == 0 {
				t.Fatalf("batch %d event %d: empty payload", k, i)
			}
		}
	}
	if len(lastStamp) != 2*TIDsPerClient {
		t.Errorf("%d distinct thread ids, want %d", len(lastStamp), 2*TIDsPerClient)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	a, _ := New(3, 2, 1000)
	b, _ := New(3, 2, 1000)
	c, _ := New(4, 2, 1000)
	if !bytes.Equal(a.Patch(5), b.Patch(5)) {
		t.Error("the same seed gave different batches")
	}
	if bytes.Equal(a.Patch(5), c.Patch(5)) {
		t.Error("different seeds gave the same batch")
	}
}

func TestCountMatchesDecodedEvents(t *testing.T) {
	s, err := New(1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tid := ClientTIDs(1)[0]
	var want uint64
	for k := 10; k < 20; k++ {
		es, err := s.Entries(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if e.TID == tid && e.Category == 11 {
				want++
			}
		}
	}
	got := s.Count(10, 20, func(t uint32, c uint8) bool { return t == tid && c == 11 })
	if got != want || got == 0 {
		t.Errorf("Count = %d, decoded events say %d (and neither may be 0)", got, want)
	}
}
