package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark's own code. Op
// ties together everything one operation caused: its wait for the due
// time, each request it sent and their first-byte and read-body parts,
// and — on tail-mixed — the live delivery of the batch it wrote.
type span struct {
	Name  string
	Op    int
	Track int // connection id, or probeTrack for a layer probe
	Start time.Time
	End   time.Time
}

// probeTrack is the trace row layer-probe spans are drawn on.
const probeTrack = 100

// writeChromeTrace writes spans as Chrome trace-event JSON ("X"
// complete events, microseconds from the earliest span).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: us(s.Start.Sub(t0)), Dur: us(s.End.Sub(s.Start)),
			PID: 1, TID: s.Track, Args: map[string]int{"op": s.Op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
