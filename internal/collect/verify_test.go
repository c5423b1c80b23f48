package collect

import (
	"slices"
	"testing"

	"btrace/internal/tracer"
)

// TestVerifierUnorderedSource: on a multiplexed source like /ingest,
// cross-thread stamp inversions are legal and must pass, while
// per-thread regressions and structural violations are still
// quarantined.
func TestVerifierUnorderedSource(t *testing.T) {
	e := func(stamp uint64, tid uint32) tracer.Entry {
		return tracer.Entry{Stamp: stamp, TS: stamp, TID: tid, Category: 1}
	}

	v := NewVerifier()
	clean, quarantined, _ := v.Check([]tracer.Entry{e(65, 2), e(66, 2), e(1, 1), e(2, 1)})
	if len(clean) != 4 || len(quarantined) != 0 {
		t.Fatalf("interleaved batches: clean %d quarantined %d, want 4/0",
			len(clean), len(quarantined))
	}

	// Per-thread order and structural soundness still hold: a stamp
	// reuse within thread 2, a zero stamp, and an oversized payload are
	// quarantined.
	bad := []tracer.Entry{
		e(66, 2),
		{TS: 1, TID: 1, Category: 1},
		{Stamp: 99, TS: 1, TID: 3, Category: 1, Payload: make([]byte, tracer.MaxPayload+1)},
		e(3, 1),
	}
	clean, quarantined, violations := v.Check(bad)
	if len(clean) != 1 || clean[0].Stamp != 3 {
		t.Fatalf("verifier kept %d clean (want just stamp 3): %+v", len(clean), clean)
	}
	if len(quarantined) != 3 || len(violations) != 3 {
		t.Fatalf("verifier quarantined %d with %d violations, want 3/3",
			len(quarantined), len(violations))
	}
}

// TestVerifierCheckInPlace pins the in-place contract: clean order, the
// quarantined set and the violations are what a copying Check produced,
// clean shares es's backing array, and a batch with nothing to
// quarantine allocates nothing.
func TestVerifierCheckInPlace(t *testing.T) {
	e := func(stamp uint64, tid uint32) tracer.Entry {
		return tracer.Entry{Stamp: stamp, TS: stamp, TID: tid, Category: 1, Payload: []byte{byte(stamp)}}
	}
	cases := []struct {
		name       string
		in         []tracer.Entry
		clean      []uint64
		quarantine []uint64
		violations []string
	}{
		{name: "all clean", in: []tracer.Entry{e(1, 1), e(2, 2), e(3, 1)}, clean: []uint64{1, 2, 3}},
		{
			name:  "only per-thread order",
			in:    []tracer.Entry{e(65, 2), e(1, 1), e(64, 2), e(2, 1), e(66, 2)},
			clean: []uint64{65, 1, 2, 66}, quarantine: []uint64{64},
			violations: []string{"stamp 64: thread 2 not strictly increasing after 65"},
		},
		{
			name:  "first entry quarantined",
			in:    []tracer.Entry{{TID: 1}, e(1, 1), e(2, 1)},
			clean: []uint64{1, 2}, quarantine: []uint64{0},
			violations: []string{"zero logic stamp"},
		},
	}
	stamps := func(es []tracer.Entry) []uint64 {
		var out []uint64
		for _, e := range es {
			out = append(out, e.Stamp)
		}
		return out
	}
	for _, tc := range cases {
		clean, quarantined, violations := NewVerifier().Check(tc.in)
		if !slices.Equal(stamps(clean), tc.clean) {
			t.Errorf("%s: clean %v, want %v", tc.name, stamps(clean), tc.clean)
		}
		if !slices.Equal(stamps(quarantined), tc.quarantine) {
			t.Errorf("%s: quarantined %v, want %v", tc.name, stamps(quarantined), tc.quarantine)
		}
		if !slices.Equal(violations, tc.violations) {
			t.Errorf("%s: violations %q, want %q", tc.name, violations, tc.violations)
		}
		if len(clean) > 0 && &clean[0] != &tc.in[0] {
			t.Errorf("%s: clean does not share es's backing array", tc.name)
		}
		for _, c := range clean {
			if len(c.Payload) != 1 || c.Payload[0] != byte(c.Stamp) {
				t.Errorf("%s: stamp %d carries payload %v after compaction", tc.name, c.Stamp, c.Payload)
			}
		}
	}

	v := NewVerifier()
	batch := make([]tracer.Entry, 256)
	next := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range batch {
			next++
			batch[i] = tracer.Entry{Stamp: next, TS: next, TID: uint32(i % 16)}
		}
		if clean, _, _ := v.Check(batch); len(clean) != len(batch) {
			t.Fatalf("clean batch: %d of %d passed", len(clean), len(batch))
		}
	}); allocs != 0 {
		t.Errorf("Check on a clean batch: %v allocs/op, want 0", allocs)
	}
}
