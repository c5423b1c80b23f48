package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: the values main exits 2 on, and the defaults and
// boundaries it accepts.
func TestCheckFlags(t *testing.T) {
	def := serveFlags{storeDir: "trace-store", sampleRate: 0.05, replication: 2}
	for _, tc := range []struct {
		name string
		mod  func(*serveFlags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*serveFlags) {}, ""},
		{"boundaries", func(f *serveFlags) { f.sampleRate, f.rateLimit, f.shards = 1, 50000, 4 }, ""},
		{"replication 1 and -shards", func(f *serveFlags) { f.shards, f.replication = 2, 1 }, ""},
		{"replication = shards", func(f *serveFlags) { f.shards, f.replication = 3, 3 }, ""},
		{"replication 0, single store", func(f *serveFlags) { f.replication = 0 }, ""},
		{"no store", func(f *serveFlags) { f.storeDir = "" }, "-store is required"},
		{"no store, cluster", func(f *serveFlags) { f.storeDir, f.shards = "", 4 }, "-store is required"},
		{"sample-rate 0", func(f *serveFlags) { f.sampleRate = 0 }, "-sample-rate must be in (0, 1]"},
		{"rate-limit -5", func(f *serveFlags) { f.rateLimit = -5 }, "-rate-limit must be >= 0, got -5"},
		{"rate-limit NaN", func(f *serveFlags) { f.rateLimit = math.NaN() }, "-rate-limit must be >= 0"},
		{"rate-limit +Inf", func(f *serveFlags) { f.rateLimit = math.Inf(1) }, "-rate-limit must be finite (0 is unlimited), got +Inf"},
		{"shards -2", func(f *serveFlags) { f.shards = -2 }, "-shards must be >= 0, got -2"},
		{"shards 1", func(f *serveFlags) { f.shards = 1 }, "-shards must be 0 (a single store) or at least 2, got 1"},
		{"replication 0", func(f *serveFlags) { f.shards, f.replication = 4, 0 }, "-replication must be in [1, 4] (-shards), got 0"},
		{"replication > shards", func(f *serveFlags) { f.shards, f.replication = 4, 5 }, "-replication must be in [1, 4] (-shards), got 5"},
		{"segment-bytes -5", func(f *serveFlags) { f.segmentBytes = -5 }, "-segment-bytes must be >= 0, got -5"},
		{"commit-every -1s", func(f *serveFlags) { f.commitEvery = -time.Second }, "-commit-every must be >= 0, got -1s"},
		{"compact-interval -1s", func(f *serveFlags) { f.compactInterval = -time.Second }, "-compact-interval must be >= 0, got -1s"},
		{"cold-after -1s", func(f *serveFlags) { f.coldAfter = -time.Second }, "-cold-after must be >= 0, got -1s"},
	} {
		f := def
		tc.mod(&f)
		err := checkFlags(f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}
