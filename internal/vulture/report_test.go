package vulture

import (
	"strings"
	"testing"
)

func TestVerifyRangeClean(t *testing.T) {
	r := NewReport()
	if !r.VerifyRange("one-worker", 10, 14, []uint64{10, 11, 12, 13, 14}) {
		t.Fatal("clean range reported dirty")
	}
	if r.Failed() {
		t.Fatal("clean report Failed()")
	}
	s := r.Surfaces()["one-worker"]
	if s.Checks != 1 || s.Events != 5 || !s.clean() {
		t.Fatalf("stats %+v", s)
	}
}

func TestVerifyRangeLossDupMisorder(t *testing.T) {
	r := NewReport()
	// 11 missing, 13 twice, 14 before 12.
	if r.VerifyRange("parallel", 10, 14, []uint64{10, 13, 14, 12, 13}) {
		t.Fatal("dirty range reported clean")
	}
	s := r.Surfaces()["parallel"]
	if s.Loss != 1 || s.Duplicates != 1 || s.Misorder == 0 {
		t.Fatalf("stats %+v", s)
	}
	if !r.Failed() {
		t.Fatal("broken report not Failed()")
	}
	kinds := map[string]bool{}
	for _, v := range r.Violations() {
		kinds[v.Kind] = true
	}
	for _, k := range []string{KindLoss, KindDuplicate, KindMisorder} {
		if !kinds[k] {
			t.Fatalf("missing %s violation; got %v", k, r.Violations())
		}
	}
}

func TestVerifyRangeIgnoresForeignStamps(t *testing.T) {
	r := NewReport()
	// Stamps outside [lo, hi] (another writer's range sharing the store)
	// must not be misread as duplicates or inversions.
	if !r.VerifyRange("cold", 5, 6, []uint64{2, 5, 6, 9}) {
		t.Fatalf("foreign stamps broke a clean range: %v", r.Violations())
	}
}

func TestObserveLiveOrdering(t *testing.T) {
	r := NewReport()
	var last uint64
	for _, s := range []uint64{3, 7, 9} {
		r.ObserveLive(&last, s)
	}
	if r.Failed() {
		t.Fatalf("ascending stream failed: %v", r.Violations())
	}
	r.ObserveLive(&last, 9) // duplicate
	r.ObserveLive(&last, 4) // regression
	s := r.Surfaces()["live"]
	if s.Duplicates != 1 || s.Misorder != 1 || r.LiveDelivered != 5 {
		t.Fatalf("stats %+v delivered %d", s, r.LiveDelivered)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewReport()
	r.Add(&r.EventsAcked, 42)
	r.VerifyRange("one-worker", 1, 2, []uint64{1}) // one lost
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"btrace_vulture_events_acked_total 42",
		`btrace_vulture_loss_total{surface="one-worker"} 1`,
		"# VIOLATION one-worker[loss]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
