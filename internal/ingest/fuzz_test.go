package ingest

import (
	"math"
	"testing"
)

// FuzzParseOverrides: every -tenant-overrides spec ParseOverrides
// accepts yields quotas that mean what they say — a finite rate above 0
// and a finite burst of at least one token.
func FuzzParseOverrides(f *testing.F) {
	for _, seed := range []string{
		"acme=100:200,free=5", "a=0.25", " a = 3 : 7 ,", "",
		"a=NaN", "a=1:NaN", "a=+Inf", "a=1:Inf", "a=100:0.5", "a=1e308", "a=1:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		limits, err := ParseOverrides(spec)
		if err != nil {
			return
		}
		for name, l := range limits {
			if !(l.RatePerSec > 0 && l.RatePerSec <= math.MaxFloat64) {
				t.Fatalf("%q: tenant %q rate %v, want finite > 0", spec, name, l.RatePerSec)
			}
			if !(l.Burst >= 1 && l.Burst <= math.MaxFloat64) {
				t.Fatalf("%q: tenant %q burst %v, want finite >= 1", spec, name, l.Burst)
			}
		}
	})
}
