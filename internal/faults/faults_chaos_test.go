// The chaos suite: every DESIGN.md invariant, asserted under each
// injected fault scenario with a fixed seed. The scenarios mirror the
// production incidents the paper's availability mechanisms exist for
// (§2.1, §3.4, §4.4, §6): preemption storms inside the allocate→confirm
// window, writers frozen holding unconfirmed bytes, CPU hot-unplug racing
// a Resize, and a collection daemon whose source and sink fail underneath
// it. Runs under -short with scaled-down workloads.
package faults_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/collect"
	"btrace/internal/core"
	"btrace/internal/faults"
	"btrace/internal/sim"
	"btrace/internal/tracer"
)

// chaosSeed is the suite's fixed root seed: every scenario's fault plan is
// a pure function of it.
const chaosSeed = 42

// scale picks the workload size, honoring -short.
func scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// assertInvariants checks the DESIGN.md invariants at quiescence:
// Buffer.Verify covers invariants 2-5 (confirmation accounting, block
// parseability, the active-block bound, readout ordering); the stamp scan
// covers invariant 1 (the newest written entry is retained; newest == 0
// skips it, for scenarios where a shrink legitimately discarded the tail)
// and stands proxy for invariant 6 (an entry decoded out of reclaimed or
// poisoned memory shows up as a phantom, duplicate, or unparseable block).
func assertInvariants(t *testing.T, b *core.Buffer, newest uint64) {
	t.Helper()
	rep := b.Verify()
	if !rep.Ok() {
		t.Fatalf("invariant violations (%d blocks, %d entries): %v",
			rep.Blocks, rep.Entries, rep.Violations)
	}
	es, err := b.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	seen := make(map[uint64]bool, len(es))
	var max uint64
	for _, e := range es {
		if e.Stamp == 0 || (newest > 0 && e.Stamp > newest) {
			t.Fatalf("phantom stamp %d (wrote up to %d): invariant 6", e.Stamp, newest)
		}
		if seen[e.Stamp] {
			t.Fatalf("duplicate stamp %d in readout", e.Stamp)
		}
		seen[e.Stamp] = true
		if e.Stamp > max {
			max = e.Stamp
		}
	}
	if newest > 0 && max != newest {
		t.Fatalf("newest stamp not retained: readout max %d, wrote %d (invariant 1)", max, newest)
	}
}

// TestChaosPreemptStorm floods the allocate→confirm window (§2.2
// Observation 2) of every writer with forced preemptions and checks the
// protocol confirms every byte anyway.
func TestChaosPreemptStorm(t *testing.T) {
	m, err := sim.NewMachine(sim.Topology{Middle: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Options{Cores: 4, BlockSize: 256, ActiveBlocks: 8, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(chaosSeed)
	storm := in.PreemptStorm(0.5)

	const threads = 8
	perThread := scale(400, 100)
	var stamp atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		th, err := m.NewThread(sim.ThreadConfig{ID: g, Core: g % m.Cores()})
		if err != nil {
			t.Fatal(err)
		}
		th.SetFaultController(storm)
		wg.Add(1)
		go func(g int, th *sim.Thread) {
			defer wg.Done()
			th.Acquire()
			defer th.Release()
			for i := 0; i < perThread; i++ {
				s := stamp.Add(1)
				e := &tracer.Entry{Stamp: s, TS: s, Core: uint8(th.Core()), TID: uint32(g), Payload: make([]byte, 8)}
				if err := b.Write(th, e); err != nil {
					t.Errorf("thread %d: %v", g, err)
					return
				}
			}
		}(g, th)
	}
	wg.Wait()

	if storm.Fired() == 0 {
		t.Fatal("storm injected no preemptions")
	}
	assertInvariants(t, b, stamp.Load())
}

// TestChaosStragglerKill freezes a writer between allocation and
// confirmation — the killed/stalled writer of §3.4 — while another core
// wraps the buffer repeatedly. The frozen writer's candidates must be
// skipped (availability), and when the writer is finally reaped (released)
// the buffer must return to full consistency.
func TestChaosStragglerKill(t *testing.T) {
	m, err := sim.NewMachine(sim.Topology{Middle: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Options{Cores: 2, BlockSize: 256, ActiveBlocks: 4, Ratio: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(chaosSeed)
	str := in.Straggler(0, 3) // freeze thread 0 at its 3rd pre-confirm point

	var stamp atomic.Uint64
	write := func(th *sim.Thread, tid, n int) {
		for i := 0; i < n; i++ {
			s := stamp.Add(1)
			e := &tracer.Entry{Stamp: s, TS: s, Core: uint8(th.Core()), TID: uint32(tid), Payload: make([]byte, 8)}
			if err := b.Write(th, e); err != nil {
				t.Errorf("thread %d: %v", tid, err)
				return
			}
		}
	}

	straggler, err := m.NewThread(sim.ThreadConfig{ID: 0, Core: 0})
	if err != nil {
		t.Fatal(err)
	}
	straggler.SetFaultController(str)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		straggler.Acquire()
		defer straggler.Release()
		write(straggler, 0, 40)
	}()
	for !str.Stalled() {
		runtime.Gosched()
	}

	// The straggler now holds unconfirmed bytes off-core. Wrap the buffer
	// many times from the other core: its block must be skipped, never
	// waited on (and never force-closed into inconsistency).
	busy, err := m.NewThread(sim.ThreadConfig{ID: 1, Core: 1})
	if err != nil {
		t.Fatal(err)
	}
	busy.Acquire()
	write(busy, 1, scale(2000, 500))
	busy.Release()
	if b.Stats().SkippedBlocks == 0 {
		t.Fatal("no blocks skipped while a writer held unconfirmed bytes")
	}

	// Reap the straggler: it resumes, confirms its outstanding bytes into
	// the round others skipped past (which never advanced — the lock CAS
	// requires full confirmation), and finishes its writes.
	str.Release()
	wg.Wait()
	if !str.EverStalled() {
		t.Fatal("straggler never engaged")
	}
	assertInvariants(t, b, stamp.Load())
}

// TestChaosHotplugDuringResize (satellite: hot-unplug racing Resize):
// unbound writers keep tracing while a core goes offline, the buffer grows
// mid-flight, the core returns, and the buffer shrinks back with poisoning
// on. Producers must never touch reclaimed blocks (invariant 6).
func TestChaosHotplugDuringResize(t *testing.T) {
	m, err := sim.NewMachine(sim.Topology{Middle: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Options{
		Cores: 4, BlockSize: 256, ActiveBlocks: 8,
		Ratio: 2, MaxRatio: 8, PoisonOnReclaim: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(chaosSeed)
	hp := in.Hotplug(m)

	// Writers proceed in chunks separated by gates, so each fault lands
	// while writers genuinely have work left (without gates the goroutines
	// can blast through every write before the first fault fires). A
	// writer parks at a gate only after releasing its core, so siblings
	// sharing the core keep running.
	const threads, chunks = 8, 4
	perChunk := scale(200, 50)
	total := uint64(threads * chunks * perChunk)
	gates := [chunks - 1]chan struct{}{}
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var stamp atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		th, err := m.NewThread(sim.ThreadConfig{
			ID: g, Core: g % m.Cores(), PreemptProb: 0.2, Seed: int64(g) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, th *sim.Thread) {
			defer wg.Done()
			th.Acquire()
			defer th.Release()
			for c := 0; c < chunks; c++ {
				for i := 0; i < perChunk; i++ {
					if i%16 == 15 {
						// Periodic deschedule so hotplug migration is
						// exercised even when the preemption dice stay cold.
						th.Release()
						th.Acquire()
					}
					s := stamp.Add(1)
					e := &tracer.Entry{Stamp: s, TS: s, Core: uint8(th.Core()), TID: uint32(g), Payload: make([]byte, 8)}
					if err := b.Write(th, e); err != nil {
						t.Errorf("thread %d: %v", g, err)
						return
					}
				}
				if c < chunks-1 {
					th.Release()
					<-gates[c]
					th.Acquire()
				}
			}
		}(g, th)
	}
	// Writers cannot pass a closed gate, so the stamp counter plateauing
	// at a chunk boundary means every writer is parked there.
	waitStamp := func(n uint64) {
		for stamp.Load() < n {
			runtime.Gosched()
		}
	}

	waitStamp(total / 4)
	if err := b.Resize(4); err != nil {
		t.Fatalf("grow to 4: %v", err)
	}
	if err := hp.Unplug(2); err != nil {
		t.Fatal(err)
	}
	close(gates[0])
	// Resize while chunk 2 is in flight and core 2 is down: the drain
	// races writers migrating off the dead core.
	if err := b.Resize(8); err != nil {
		t.Fatalf("grow to 8 with core 2 offline: %v", err)
	}
	waitStamp(total / 2)
	if err := hp.Replug(2); err != nil {
		t.Fatal(err)
	}
	close(gates[1])
	waitStamp(3 * total / 4)
	close(gates[2])
	wg.Wait()

	// Full consistency at quiescence, before any shrink discards data.
	assertInvariants(t, b, stamp.Load())

	// Shrink back (only after the replug: a starved bound writer would
	// deadlock the drain — exactly why the policy replugs first). Reclaimed
	// blocks are poisoned; later writes must land only in the live range.
	if err := b.Resize(2); err != nil {
		t.Fatalf("shrink to 2: %v", err)
	}
	if got := b.Ratio(); got != 2 {
		t.Fatalf("ratio after shrink: %d", got)
	}
	p := &tracer.FixedProc{CoreID: 1, TID: 99}
	for i := 0; i < 100; i++ {
		s := stamp.Add(1)
		if err := b.Write(p, &tracer.Entry{Stamp: s, TS: s, TID: 99, Payload: make([]byte, 8)}); err != nil {
			t.Fatalf("post-shrink write: %v", err)
		}
	}
	assertInvariants(t, b, stamp.Load())
	if sched := in.Schedule("hotplug"); len(sched) != 2 {
		t.Fatalf("hotplug schedule: %v", sched)
	}
}

// fireAlways dumps on every non-empty ingest, so each delivered batch
// becomes an observable dump.
type fireAlways struct{}

func (fireAlways) Name() string { return "always" }
func (fireAlways) Observe(es []tracer.Entry) string {
	if len(es) == 0 {
		return ""
	}
	return "batch"
}

// batchesOf builds n source batches of k consecutively stamped entries.
func batchesOf(n, k int) [][]tracer.Entry {
	var s uint64
	out := make([][]tracer.Entry, n)
	for i := range out {
		b := make([]tracer.Entry, k)
		for j := range b {
			s++
			b[j] = tracer.Entry{Stamp: s, TS: s}
		}
		out[i] = b
	}
	return out
}

// TestChaosSupervisorFlakySource: a source that errors and tears batches
// under a supervised pipeline. Transient faults must be absorbed with zero
// event loss and zero lost dumps.
func TestChaosSupervisorFlakySource(t *testing.T) {
	const batches, per = 40, 3
	src := &scriptedCursor{polls: batchesOf(batches, per)}
	in := faults.New(chaosSeed)
	fp := in.FlakyCursor(src, 0.4, 0.5)
	var sinkBuf bytes.Buffer
	s, err := collect.NewSupervisor(collect.SupervisorConfig{
		Cursor:   fp,
		Triggers: []collect.Trigger{fireAlways{}},
		Sink:     &sinkBuf,
		Seed:     chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []tracer.Entry
	for i := 0; i < 400; i++ {
		if d := s.Step(); d != nil {
			delivered = append(delivered, d.Events...)
		}
	}
	stats := s.Stats()
	if stats.PollErrors == 0 {
		t.Fatal("no poll errors injected")
	}
	// Zero event loss end to end: each dump consumes the window, so the
	// dumps' concatenated events are every stamp the source ever produced,
	// in order, exactly once.
	if len(delivered) != batches*per {
		t.Fatalf("dumps delivered %d events, want %d", len(delivered), batches*per)
	}
	for i, e := range delivered {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("delivered[%d] stamp %d", i, e.Stamp)
		}
	}
	// Zero lost dumps: everything produced was delivered to the sink.
	if stats.Dumps == 0 || stats.DumpsWritten != stats.Dumps || stats.Spilled != 0 {
		t.Fatalf("dump accounting: %+v", stats)
	}
	if h := s.Health(); h.SourceWedged || h.PendingDumps != 0 {
		t.Fatalf("health: %+v", h)
	}
	if stats.Quarantined != 0 {
		t.Fatalf("quarantined %d clean entries", stats.Quarantined)
	}
}

// TestChaosSupervisorSinkFailures: transient sink failures are retried to
// full delivery; a sink that dies permanently diverts every later dump to
// the spill ring — degraded, but nothing silently dropped.
func TestChaosSupervisorSinkFailures(t *testing.T) {
	t.Run("transient", func(t *testing.T) {
		src := &scriptedCursor{polls: batchesOf(6, 2)}
		in := faults.New(chaosSeed)
		var dst bytes.Buffer
		sink := in.FlakySink(&dst, 3, 0)
		s, err := collect.NewSupervisor(collect.SupervisorConfig{
			Cursor:   src,
			Triggers: []collect.Trigger{fireAlways{}},
			Sink:     sink,
			Seed:     chaosSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			s.Step()
		}
		stats := s.Stats()
		if stats.SinkErrors == 0 {
			t.Fatal("no sink errors injected")
		}
		if stats.Dumps != 6 || stats.DumpsWritten != 6 || stats.Spilled != 0 {
			t.Fatalf("transient sink not fully absorbed: %+v", stats)
		}
		if dst.Len() == 0 {
			t.Fatal("nothing reached the sink")
		}
	})

	t.Run("permanent", func(t *testing.T) {
		src := &scriptedCursor{polls: batchesOf(8, 2)}
		in := faults.New(chaosSeed)
		var dst bytes.Buffer
		sink := in.FlakySink(&dst, 0, 2) // 2 writes succeed, then it dies
		s, err := collect.NewSupervisor(collect.SupervisorConfig{
			Cursor:   src,
			Triggers: []collect.Trigger{fireAlways{}},
			Sink:     sink,
			Seed:     chaosSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			s.Step()
		}
		stats := s.Stats()
		if !s.Health().SinkFailed {
			t.Fatal("permanent sink failure not diagnosed")
		}
		if stats.Dumps != 8 || stats.DumpsWritten != 2 {
			t.Fatalf("delivery accounting: %+v", stats)
		}
		// Graceful degradation: every undelivered dump is in the spill
		// ring, none dropped.
		if stats.Spilled != 6 || stats.SpillDropped != 0 || len(s.Spill()) != 6 {
			t.Fatalf("spill accounting: %+v (ring %d)", stats, len(s.Spill()))
		}
	})
}

// TestChaosAdaptiveResizeRealBuffer drives the supervisor's graceful
// degradation against a real core.Buffer: sustained loss pressure must
// grow the traced buffer, and a quiet source must shrink it back.
func TestChaosAdaptiveResizeRealBuffer(t *testing.T) {
	b, err := core.New(core.Options{Cores: 1, BlockSize: 256, ActiveBlocks: 2, Ratio: 2, MaxRatio: 8})
	if err != nil {
		t.Fatal(err)
	}
	cur := b.NewCursor()
	defer cur.Close()
	s, err := collect.NewSupervisor(collect.SupervisorConfig{
		Cursor:      cur,
		Triggers:    []collect.Trigger{&collect.LossDetector{Tolerance: 4}},
		Resizer:     b,
		MaxRatio:    8,
		GrowAfter:   2,
		ShrinkAfter: 4,
		Seed:        chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}

	p := &tracer.FixedProc{CoreID: 0, TID: 1}
	var stamp uint64
	burst := func(n int) {
		for i := 0; i < n; i++ {
			stamp++
			if err := b.Write(p, &tracer.Entry{Stamp: stamp, TS: stamp, TID: 1, Payload: make([]byte, 8)}); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}

	// Overrun the 1 KiB buffer between polls: sustained loss pressure.
	for i := 0; i < 8; i++ {
		burst(300)
		s.Step()
	}
	stats := s.Stats()
	if stats.Grows == 0 {
		t.Fatalf("loss pressure never grew the buffer: %+v", stats)
	}
	grownRatio := b.Ratio()
	if grownRatio <= 2 {
		t.Fatalf("ratio %d after sustained loss", grownRatio)
	}

	// Source goes quiet: pressure subsides, the buffer shrinks back.
	for i := 0; i < 32 && b.Ratio() > 2; i++ {
		s.Step()
	}
	stats = s.Stats()
	if stats.Shrinks == 0 || b.Ratio() != 2 {
		t.Fatalf("pressure subsided but ratio %d (shrinks %d)", b.Ratio(), stats.Shrinks)
	}
	if errs := s.ResizeErrors(); len(errs) != 0 {
		t.Fatalf("resize errors: %v", errs)
	}
	if !b.Verify().Ok() {
		t.Fatalf("buffer inconsistent after adaptive resizing: %v", b.Verify().Violations)
	}
}

// TestChaosDeterministicSchedules: the acceptance bar for the injector —
// one seed, one fault plan. A full pipeline scenario run twice with the
// same seed injects the identical schedule at every hook and produces
// identical pipeline counters; a different seed plans differently.
func TestChaosDeterministicSchedules(t *testing.T) {
	run := func(seed int64) (map[string][]string, collect.SupervisorStats) {
		src := &scriptedCursor{polls: batchesOf(40, 2)}
		in := faults.New(seed)
		fp := in.FlakyCursor(src, 0.3, 0.5)
		var dst bytes.Buffer
		sink := in.FlakySink(&dst, 2, 30)
		s, err := collect.NewSupervisor(collect.SupervisorConfig{
			Cursor:   fp,
			Triggers: []collect.Trigger{fireAlways{}},
			Sink:     sink,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 250; i++ {
			s.Step()
		}
		scheds := map[string][]string{}
		for _, h := range in.Hooks() {
			scheds[h] = in.Schedule(h)
		}
		return scheds, s.Stats()
	}

	schedA, statsA := run(chaosSeed)
	schedB, statsB := run(chaosSeed)
	if !reflect.DeepEqual(schedA, schedB) {
		t.Fatalf("same seed, different fault plans:\n%v\n%v", schedA, schedB)
	}
	if statsA != statsB {
		t.Fatalf("same seed, different pipeline outcomes:\n%+v\n%+v", statsA, statsB)
	}
	schedC, _ := run(chaosSeed + 1)
	if reflect.DeepEqual(schedA["poller/err"], schedC["poller/err"]) {
		t.Fatalf("different seeds planned the same poll-error schedule: %v", schedA["poller/err"])
	}
}
