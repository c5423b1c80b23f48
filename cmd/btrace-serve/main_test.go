package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags: the values main exits 2 on, and the defaults and
// boundaries it accepts.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		storeDir              string
		sampleRate, rateLimit float64
		shards                int
	}
	def := flags{storeDir: "trace-store", sampleRate: 0.05}
	for _, tc := range []struct {
		name string
		mod  func(*flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*flags) {}, ""},
		{"boundaries", func(f *flags) { f.sampleRate, f.rateLimit, f.shards = 1, 50000, 4 }, ""},
		{"no store", func(f *flags) { f.storeDir = "" }, "-store is required"},
		{"no store, cluster", func(f *flags) { f.storeDir, f.shards = "", 4 }, "-store is required"},
		{"sample-rate 0", func(f *flags) { f.sampleRate = 0 }, "-sample-rate must be in (0, 1]"},
		{"rate-limit -5", func(f *flags) { f.rateLimit = -5 }, "-rate-limit must be >= 0, got -5"},
		{"rate-limit NaN", func(f *flags) { f.rateLimit = math.NaN() }, "-rate-limit must be >= 0"},
		{"shards -2", func(f *flags) { f.shards = -2 }, "-shards must be >= 0, got -2"},
	} {
		f := def
		tc.mod(&f)
		err := checkFlags(f.storeDir, f.sampleRate, f.rateLimit, f.shards)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}
