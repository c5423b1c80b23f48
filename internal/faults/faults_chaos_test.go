// The chaos suite: every DESIGN.md invariant, asserted under each
// injected fault scenario with a fixed seed. The scenarios mirror the
// production incidents the paper's availability mechanisms exist for
// (§2.1, §3.4, §4.4, §6): preemption storms inside the allocate→confirm
// window, writers frozen holding unconfirmed bytes, and CPU hot-unplug
// racing a Resize — plus the determinism of the injector itself. Runs
// under -short with scaled-down workloads.
package faults_test

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"btrace/internal/core"
	"btrace/internal/faults"
	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/sim"
	"btrace/internal/store"
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

// TestChaosDeterministicSchedules: the acceptance bar for the injector —
// one seed, one fault plan. Both targets run twice with the same seed: a
// preemption storm over one simulated thread, driven sequentially, and a
// calm/storm BurstSource admitted through ingest.Admission into a store
// whose appends fail at random and are wedged while the source storms.
// Every hook's schedule and the admission outcome — per-batch counts,
// the gate's stats, events stored and refused — must be identical; seed+1
// must plan a different append-failure schedule.
func TestChaosDeterministicSchedules(t *testing.T) {
	type outcome struct {
		seen, quarantined, throttled, gateDropped int
		gate                                      overload.Stats
		stored, refused                           uint64
	}
	run := func(seed int64) (map[string][]string, outcome) {
		in := faults.New(seed)

		m, err := sim.NewMachine(sim.Topology{Middle: 1})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(sim.ThreadConfig{ID: 0, Core: 0})
		if err != nil {
			t.Fatal(err)
		}
		th.SetFaultController(in.PreemptStorm(0.5))
		th.Acquire()
		for i := 0; i < 64; i++ {
			th.MaybePreempt(tracer.PreemptBeforeCopy)
			th.MaybePreempt(tracer.PreemptBeforeConfirm)
		}
		th.Release()

		st, err := store.Open(t.TempDir(), store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		fst := in.FlakyStore(st, 0.3)
		src := in.BurstSource(faults.BurstConfig{CalmPolls: 12, StormPolls: 8, Cycles: 2, Categories: []uint8{1, 2}})
		adm := ingest.NewAdmission(overload.Config{EngagePressure: 0.6}, nil, nil)
		var o outcome
		var batch store.Batch // the append's one encoding, as store.AppendEntries makes it
		for !src.Quiet() {
			if src.Storming() {
				fst.Wedge()
			} else {
				fst.Heal()
			}
			es, missed := src.Batch()
			var p overload.StorePressure
			if total := missed + uint64(len(es)); total > 0 {
				p.AppendNs = missed * 1_000_000 / total
			}
			adm.Evaluate(p)
			admitted, c := adm.Admit("", es)
			o.seen += c.Seen
			o.quarantined += c.Quarantined
			o.throttled += c.Throttled
			o.gateDropped += c.GateDropped
			if len(admitted) > 0 {
				batch.Encode(admitted)
				if fst.AppendBatch(&batch, nil) != nil {
					o.refused += uint64(len(admitted))
				}
			}
		}
		o.gate = adm.GateStats()
		_, o.stored, _ = fst.Stats()

		scheds := map[string][]string{}
		for _, h := range in.Hooks() {
			scheds[h] = in.Schedule(h)
		}
		return scheds, o
	}

	schedA, outA := run(chaosSeed)
	for _, h := range []string{"storm/t0/before-copy", "storm/t0/before-confirm", "burst", "store", "store/err"} {
		if len(schedA[h]) == 0 {
			t.Fatalf("hook %s planned nothing: %v", h, schedA)
		}
	}
	if outA.stored == 0 || outA.refused == 0 || outA.gate.Seen == 0 {
		t.Fatalf("scenario did not exercise the store or the gate: %+v", outA)
	}
	schedB, outB := run(chaosSeed)
	if !reflect.DeepEqual(schedA, schedB) {
		t.Fatalf("same seed, different fault plans:\n%v\n%v", schedA, schedB)
	}
	if outA != outB {
		t.Fatalf("same seed, different admission outcomes:\n%+v\n%+v", outA, outB)
	}
	schedC, _ := run(chaosSeed + 1)
	if reflect.DeepEqual(schedA["store/err"], schedC["store/err"]) {
		t.Fatalf("different seeds planned the same append-failure schedule: %v", schedA["store/err"])
	}
}
