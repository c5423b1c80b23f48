// Chaos: provoke the failures the paper's availability mechanisms exist
// for — a preemption storm inside the allocate→confirm window, a writer
// frozen holding unconfirmed bytes, a flaky trace cursor and a dump sink
// that dies — and watch the tracer and the supervised collector absorb
// them. Every fault is planned from one seed: rerun with the same -seed
// and the exact same schedule is injected.
//
//	go run ./examples/chaos -seed 42
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"

	"btrace/internal/collect"
	"btrace/internal/core"
	"btrace/internal/faults"
	"btrace/internal/sim"
	"btrace/internal/tracer"
)

func main() {
	seed := flag.Int64("seed", 42, "root fault-plan seed")
	flag.Parse()
	in := faults.New(*seed)

	fmt.Printf("=== chaos plan seed %d ===\n\n", *seed)
	stormAndStraggler(in)
	supervisedPipeline(in)

	fmt.Println("injected fault schedule (deterministic for this seed):")
	for _, h := range in.Hooks() {
		s := in.Schedule(h)
		if len(s) > 6 {
			s = s[:6]
		}
		fmt.Printf("  %-28s %v…\n", h, s)
	}
}

// stormAndStraggler drives a preemption storm over every writer while one
// thread is frozen mid-write, then verifies the buffer invariants.
func stormAndStraggler(in *faults.Injector) {
	m, err := sim.NewMachine(sim.Topology{Middle: 4})
	if err != nil {
		log.Fatal(err)
	}
	b, err := core.New(core.Options{Cores: 4, BlockSize: 1024, ActiveBlocks: 8, Ratio: 4})
	if err != nil {
		log.Fatal(err)
	}
	storm := in.PreemptStorm(0.3)
	str := in.Straggler(0, 5) // freeze thread 0 the 5th time it is about to confirm
	chain := faults.NewChain(str, storm)

	var stamp atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		th, err := m.NewThread(sim.ThreadConfig{ID: g, Core: g % 4})
		if err != nil {
			log.Fatal(err)
		}
		th.SetFaultController(chain)
		wg.Add(1)
		go func(g int, th *sim.Thread) {
			defer wg.Done()
			th.Acquire()
			defer th.Release()
			for i := 0; i < 2000; i++ {
				s := stamp.Add(1)
				e := &tracer.Entry{Stamp: s, TS: s, TID: uint32(g), Payload: []byte("ev")}
				if err := b.Write(th, e); err != nil {
					log.Fatalf("write: %v", err)
				}
			}
		}(g, th)
	}
	for !str.Stalled() {
		runtime.Gosched()
	}
	fmt.Println("thread 0 frozen holding unconfirmed bytes; others keep writing…")
	str.Release() // the "kernel" reaps the frozen writer
	wg.Wait()

	st := b.Stats()
	rep := b.Verify()
	fmt.Printf("storm forced %d preemptions; %d blocks skipped around the straggler\n",
		storm.Fired(), st.SkippedBlocks)
	fmt.Printf("invariant readout: ok=%v (%d blocks, %d entries recovered)\n\n",
		rep.Ok(), rep.Blocks, rep.Entries)
}

// supervisedPipeline runs the self-healing collector over a flaky source
// and a sink that dies permanently partway through.
func supervisedPipeline(in *faults.Injector) {
	b, err := core.New(core.Options{Cores: 1, BlockSize: 512, ActiveBlocks: 2, Ratio: 2, MaxRatio: 8})
	if err != nil {
		log.Fatal(err)
	}
	src := in.FlakyCursor(b.NewCursor(), 0.3, 0.4) // 30% failed reads, 40% torn batches
	defer src.Close()
	var dst bytes.Buffer
	sink := in.FlakySink(&dst, 2, 6) // 2 transient failures, dead after 6 writes

	s, err := collect.NewSupervisor(collect.SupervisorConfig{
		Cursor:   src,
		Triggers: []collect.Trigger{&collect.LossDetector{Tolerance: 8}},
		Sink:     sink,
		Resizer:  b,
		MaxRatio: 8, GrowAfter: 2, ShrinkAfter: 16,
		Seed: in.Seed(),
	})
	if err != nil {
		log.Fatal(err)
	}

	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	var stamp uint64
	for step := 0; step < 120; step++ {
		burst := 300 // overruns the small buffer: sustained loss pressure
		if step > 60 {
			burst = 2 // pressure subsides
		}
		for i := 0; i < burst; i++ {
			stamp++
			if err := b.Write(p, &tracer.Entry{Stamp: stamp, TS: stamp, TID: 1, Payload: []byte("x")}); err != nil {
				log.Fatal(err)
			}
		}
		s.Step()
	}
	st := s.Stats()
	h := s.Health()
	fmt.Println("supervised pipeline over a flaky source and a dying sink:")
	fmt.Printf("  polls ok/failed:       %d/%d (backoff steps %d)\n", st.Polls, st.PollErrors, st.PollBackoffSteps)
	fmt.Printf("  dumps produced:        %d (delivered %d, spilled %d, dropped %d)\n",
		st.Dumps, st.DumpsWritten, st.Spilled, st.SpillDropped)
	fmt.Printf("  adaptive resize:       %d grows, %d shrinks (ratio now %d)\n", st.Grows, st.Shrinks, b.Ratio())
	fmt.Printf("  health: sinkFailed=%v sourceWedged=%v spillRing=%d\n\n", h.SinkFailed, h.SourceWedged, h.SpilledDumps)
}
