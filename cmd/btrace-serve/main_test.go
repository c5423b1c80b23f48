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
		scale, sampleRate, rateLimit, rateBurst float64
		shards, queryWorkers                    int
	}
	def := flags{scale: 0.02, sampleRate: 0.05, queryWorkers: 4}
	for _, tc := range []struct {
		name string
		mod  func(*flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*flags) {}, ""},
		{"boundaries", func(f *flags) { f.scale, f.sampleRate, f.rateLimit, f.rateBurst, f.shards = 1, 1, 50000, 1, 4 }, ""},
		{"query-workers 0", func(f *flags) { f.queryWorkers = 0 }, ""},
		{"query-workers 32", func(f *flags) { f.queryWorkers = 32 }, ""},
		{"scale 0", func(f *flags) { f.scale = 0 }, "-scale must be in (0, 1], got 0"},
		{"scale 2", func(f *flags) { f.scale = 2 }, "-scale must be in (0, 1]"},
		{"scale NaN", func(f *flags) { f.scale = math.NaN() }, "-scale must be in (0, 1]"},
		{"sample-rate 0", func(f *flags) { f.sampleRate = 0 }, "-sample-rate must be in (0, 1]"},
		{"rate-limit -5", func(f *flags) { f.rateLimit = -5 }, "-rate-limit must be >= 0, got -5"},
		{"rate-limit NaN", func(f *flags) { f.rateLimit = math.NaN() }, "-rate-limit must be >= 0"},
		{"rate-burst -1", func(f *flags) { f.rateBurst = -1 }, "-rate-burst must be >= 0, got -1"},
		{"shards -2", func(f *flags) { f.shards = -2 }, "-shards must be >= 0, got -2"},
		{"query-workers -1", func(f *flags) { f.queryWorkers = -1 }, "-query-workers must be in [0, 32], got -1"},
		{"query-workers 33", func(f *flags) { f.queryWorkers = 33 }, "-query-workers must be in [0, 32], got 33"},
	} {
		f := def
		tc.mod(&f)
		err := checkFlags(f.scale, f.sampleRate, f.rateLimit, f.rateBurst, f.shards, f.queryWorkers)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}
