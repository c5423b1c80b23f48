// Silentdefect reproduces the paper's §6 "Silent defects" case study: a
// watchdog daemon follows the live trace and reports when a subsystem
// goes quiet past its timeout. The paper's example: after a userspace
// driver hot-unplugs a CPU, threads bound to it fail to migrate in a
// corner case and starve; nothing crashes — the defect is only visible as
// 20+ seconds of silence, and diagnosing it requires the trace covering
// the whole timeout window.
package main

import (
	"fmt"
	"log"

	"btrace"
	"btrace/internal/collect"
	"btrace/internal/tracer"
)

const (
	catSched   = 1
	catFreeze  = 2 // freeze/wake heartbeats the daemon watches
	catHotplug = 3
	catMigrate = 4
)

func main() {
	tr, err := btrace.Open(btrace.Config{Cores: 8, BufferBytes: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}

	// The daemon follows the buffer incrementally and fires when the
	// freeze heartbeat is silent for >20 s (the §6 timeout).
	reader := tr.NewReader()
	defer reader.Close()
	daemon, err := collect.New(collect.Config{
		Source:   readerCursor{reader},
		Triggers: []collect.Trigger{&collect.Watchdog{Category: catFreeze, TimeoutNs: 20e9}},
		// Keep enough rolling context to span the whole timeout window.
		MaxWindowEvents: 500_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	writers := make([]*btrace.Writer, 8)
	for c := range writers {
		if writers[c], err = tr.Writer(c, 300+c); err != nil {
			log.Fatal(err)
		}
	}
	write := func(core, ms int, cat uint8, payload string) {
		if err := writers[core].Write(btrace.Event{
			TS: uint64(ms) * 1e6, Category: cat, Level: 2, Payload: []byte(payload),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// 40 seconds of system activity. At t=12 s a userspace driver
	// hot-unplugs core 6; the bound worker fails to migrate (the corner
	// case) and the freeze heartbeat it was responsible for stops.
	var dump *collect.Dump
	for ms := 0; ms < 40_000 && dump == nil; ms++ {
		for c := 0; c < 8; c++ {
			if c == 6 && ms >= 12_000 {
				continue // the unplugged core runs nothing
			}
			write(c, ms, catSched, "sched_switch")
		}
		if ms < 12_000 && ms%1000 == 0 {
			write(6, ms, catFreeze, "freeze heartbeat ok")
		}
		if ms == 12_000 {
			write(0, ms, catHotplug, "userspace driver: hot-unplug cpu6")
			write(0, ms, catMigrate, "migrate bound threads off cpu6: 3 moved, tid=888 FAILED (bound)")
		}
		// The daemon polls every 500 ms of virtual time.
		if ms%500 == 0 {
			dump = daemon.Step()
		}
	}
	if dump == nil {
		dump = daemon.Step()
	}
	if dump == nil {
		log.Fatal("watchdog never fired")
	}

	fmt.Printf("watchdog fired: %s\n", dump.Reason)
	fmt.Printf("dump contains %d events of context\n", len(dump.Events))

	// Root-cause walk inside the dumped window: find the last heartbeat,
	// then the hotplug and the failed migration that explain the silence.
	var lastBeat, hotplug, failedMigrate string
	var beatTS, hotplugTS uint64
	for _, e := range dump.Events {
		switch e.Category {
		case catFreeze:
			lastBeat, beatTS = string(e.Payload), e.TS
		case catHotplug:
			hotplug, hotplugTS = string(e.Payload), e.TS
		case catMigrate:
			failedMigrate = string(e.Payload)
		}
	}
	fmt.Printf("last heartbeat: %q at t=%.1fs\n", lastBeat, float64(beatTS)/1e9)
	if hotplug != "" {
		fmt.Printf("root cause:     %q at t=%.1fs\n", hotplug, float64(hotplugTS)/1e9)
		fmt.Printf("mechanism:      %q\n", failedMigrate)
		fmt.Println("verdict:        the bound thread starved after the hot-unplug — found because")
		fmt.Println("                the trace still covered the entire 20s timeout window")
	}
}

// readerCursor adapts the public Reader to the collector's cursor
// source: Next is the Reader's own (btrace.Event is an alias of
// tracer.Entry), Close gains the error return.
type readerCursor struct{ *btrace.Reader }

func (c readerCursor) Close() error {
	c.Reader.Close()
	return nil
}

var _ tracer.Cursor = readerCursor{}
