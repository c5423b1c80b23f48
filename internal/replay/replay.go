// Package replay implements the paper's trace replay benchmark (§5
// "Replaying setup"): it drives a workload's per-core event streams into
// any tracer, at core level (one producer thread per core) or thread
// level (the workload's oversubscribed thread pool per core, contending
// for the virtual core and preempting mid-write), assigns every event a
// unique monotonically increasing logic stamp, and records per-write
// latencies. Events whose stamps do not appear in the readout are the
// tracer's losses.
//
// Contract: every tracer replays at thread level, and only LTTng drops
// writes (TestThreadLevelReplayAllTracers); a pinned schedule replays
// every event (TestReplayFromSchedule); under a skewed workload and the same
// budget BTrace's latest fragment beats the per-core and per-thread
// baselines (TestRetentionOrdering).
package replay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"btrace/internal/sim"
	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// Mode selects the §5 replay method.
type Mode uint8

const (
	// CoreLevel runs one producer thread per core.
	CoreLevel Mode = iota
	// ThreadLevel runs the workload's per-core thread pool, exposing the
	// tracer to oversubscription and mid-write preemption.
	ThreadLevel
)

// String returns the mode name.
func (m Mode) String() string {
	if m == CoreLevel {
		return "core-level"
	}
	return "thread-level"
}

// Config configures a replay run.
type Config struct {
	// Tracer receives the events.
	Tracer tracer.Tracer
	// Workload is the replayed scenario.
	Workload workload.Workload
	// Topology is the virtual SoC (default Phone12).
	Topology sim.Topology
	// Mode selects core-level or thread-level replay.
	Mode Mode
	// Level caps enabled categories (default Level3).
	Level uint8
	// WindowNs is the virtual capture window (default 30 s).
	WindowNs uint64
	// RateScale scales event rates so tests and benchmarks can run the
	// same schedule shape at a fraction of the full volume (default 1).
	RateScale float64
	// PreemptProb is the probability of mid-write preemption at each
	// preemption point in thread-level mode.
	PreemptProb float64
	// MeasureLatency records per-write wall-clock latencies.
	MeasureLatency bool
	// Epochs divides the virtual window into synchronization epochs: all
	// producer threads align on epoch boundaries, so the global stamp
	// order tracks the events' virtual timestamps at epoch granularity
	// (the paper replays "based on timing"; without pacing, cores with
	// fewer events would finish wall-clock early and the interleaving
	// would not resemble the device's). Default 120 (250 ms at 30 s).
	Epochs int
	// Schedule, when set, replays this exact pre-materialized schedule
	// (see workload.Schedule) instead of generating events from Workload;
	// Level/WindowNs/RateScale are taken from the schedule, and Topology
	// must match its core count (or be zero to derive it).
	Schedule *workload.Schedule
}

func (c Config) defaults() Config {
	if c.Topology.Cores() == 0 {
		c.Topology = sim.Phone12()
	}
	if c.Level == 0 {
		c.Level = workload.Level3
	}
	if c.WindowNs == 0 {
		c.WindowNs = workload.DefaultWindowNs
	}
	if c.RateScale == 0 {
		c.RateScale = 1
	}
	if c.Epochs == 0 {
		c.Epochs = 120
	}
	return c
}

// barrier is a reusable cyclic barrier for n participants.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants have called await for this round.
func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for b.round == round {
		b.cond.Wait()
	}
}

// Result is the outcome of a replay.
type Result struct {
	// Truth maps stamp-1 to the event's wire size: the ground-truth
	// write log the analysis compares readouts against. It includes
	// events the tracer dropped (they were offered and carry stamps).
	Truth []uint32
	// TruthCores maps stamp-1 to the producing core, for per-core
	// retention analysis (the Fig. 5 skew).
	TruthCores []uint8
	// Written counts successful writes; Dropped counts ErrDropped.
	Written, Dropped uint64
	// PerCoreWritten counts successful writes per core.
	PerCoreWritten []uint64
	// LatenciesNs holds one wall-clock sample per write attempt (only
	// when Config.MeasureLatency).
	LatenciesNs []int64
	// Elapsed is the wall-clock duration of the replay.
	Elapsed time.Duration
	// DistinctThreads counts distinct producing threads per core.
	DistinctThreads []int
}

// threadLog is one producer thread's private record of its activity,
// merged into Result afterwards so recording never contends.
type threadLog struct {
	stamps  []uint64
	sizes   []uint32
	lats    []int64
	written uint64
	dropped uint64
}

// Run executes the replay and returns the ground truth and measurements.
// The tracer is NOT reset first; callers compose multi-phase runs.
func Run(cfg Config) (*Result, error) {
	if cfg.Schedule != nil {
		if cfg.Topology.Cores() == 0 {
			cfg.Topology = cfg.Schedule.Topology()
		}
		if cfg.Topology.Cores() != len(cfg.Schedule.PerCore) {
			return nil, fmt.Errorf("replay: topology has %d cores, schedule %d",
				cfg.Topology.Cores(), len(cfg.Schedule.PerCore))
		}
		cfg.WindowNs = cfg.Schedule.WindowNs
	}
	cfg = cfg.defaults()
	if cfg.Tracer == nil {
		return nil, fmt.Errorf("replay: nil tracer")
	}
	m, err := sim.NewMachine(cfg.Topology)
	if err != nil {
		return nil, err
	}
	cores := cfg.Topology.Cores()

	// Partition each core's event stream among its producer threads.
	type job struct {
		core   int
		events []workload.Event
	}
	var jobs []job
	distinct := make([]int, cores)
	for c := 0; c < cores; c++ {
		var events []workload.Event
		tids := map[uint32]bool{}
		if cfg.Schedule != nil {
			events = cfg.Schedule.PerCore[c]
			for _, e := range events {
				tids[e.TID] = true
			}
		} else {
			g, err := cfg.Workload.Gen(workload.GenOptions{
				Topology: cfg.Topology, Core: c, Level: cfg.Level,
				WindowNs: cfg.WindowNs, RateScale: cfg.RateScale,
			})
			if err != nil {
				return nil, err
			}
			for {
				e, ok := g.Next()
				if !ok {
					break
				}
				tids[e.TID] = true
				events = append(events, e)
			}
		}
		distinct[c] = len(tids)
		if len(events) == 0 {
			continue
		}
		if cfg.Mode == CoreLevel {
			jobs = append(jobs, job{core: c, events: events})
			continue
		}
		// Thread-level: split by TID among the concurrently active pool.
		pool := cfg.Workload.ThreadsPerSec
		if pool < 1 {
			// Schedule-only replay: approximate the pool from the
			// distinct thread count (Fig. 6's per-second/total ratio is
			// roughly 1/12 across the workload set).
			pool = distinct[c]/12 + 1
		}
		parts := make([][]workload.Event, pool)
		for _, e := range events {
			k := int(e.TID) % pool
			parts[k] = append(parts[k], e)
		}
		for _, part := range parts {
			if len(part) > 0 {
				jobs = append(jobs, job{core: c, events: part})
			}
		}
	}

	var (
		stamp   atomic.Uint64
		wg      sync.WaitGroup
		logs    = make([]*threadLog, len(jobs))
		runErr  atomic.Value
		started = time.Now()
		bar     = newBarrier(len(jobs))
	)
	for i, jb := range jobs {
		prob := cfg.PreemptProb
		if cfg.Mode == CoreLevel {
			prob = 0
		}
		th, err := m.NewThread(sim.ThreadConfig{
			ID: i, Core: jb.core, PreemptProb: prob, Seed: cfg.Workload.Seed ^ int64(i*2711+1),
		})
		if err != nil {
			return nil, err
		}
		lg := &threadLog{}
		logs[i] = lg
		wg.Add(1)
		go worker(&cfg, jb.core, jb.events, th, lg, bar, &stamp, &runErr, &wg)
	}
	wg.Wait()
	if err, _ := runErr.Load().(error); err != nil {
		return nil, err
	}

	res := &Result{
		Truth:           make([]uint32, stamp.Load()),
		TruthCores:      make([]uint8, stamp.Load()),
		PerCoreWritten:  make([]uint64, cores),
		DistinctThreads: distinct,
		Elapsed:         time.Since(started),
	}
	for i, lg := range logs {
		for j, s := range lg.stamps {
			res.Truth[s-1] = lg.sizes[j]
			res.TruthCores[s-1] = uint8(jobs[i].core)
		}
		res.Written += lg.written
		res.Dropped += lg.dropped
		res.PerCoreWritten[jobs[i].core] += lg.written
		res.LatenciesNs = append(res.LatenciesNs, lg.lats...)
	}
	return res, nil
}

// worker drives one producer thread's event list epoch by epoch: it
// acquires its virtual core, writes the epoch's events (offering
// preemption between and inside writes), releases the core and aligns with
// every other producer at the epoch barrier, so stamps track virtual time.
func worker(cfg *Config, coreID int, events []workload.Event, th *sim.Thread,
	lg *threadLog, bar *barrier, stamp *atomic.Uint64, runErr *atomic.Value, wg *sync.WaitGroup) {
	defer wg.Done()
	payload := make([]byte, tracer.MaxPayload)
	epochNs := cfg.WindowNs / uint64(cfg.Epochs)
	if epochNs == 0 {
		epochNs = 1
	}
	next := 0
	failed := false
	for ep := 0; ep < cfg.Epochs; ep++ {
		limit := uint64(ep+1) * epochNs
		if ep == cfg.Epochs-1 {
			limit = cfg.WindowNs
		}
		if !failed && next < len(events) && events[next].TS < limit {
			th.Acquire()
			for next < len(events) && events[next].TS < limit {
				ev := events[next]
				next++
				e := tracer.Entry{
					Stamp:    stamp.Add(1),
					TS:       ev.TS,
					Core:     uint8(coreID),
					TID:      ev.TID & 0xFFFFFF,
					Category: uint8(ev.Cat),
					Level:    ev.Level,
					Payload:  payload[:ev.PayloadLen],
				}
				var t0 time.Time
				if cfg.MeasureLatency {
					t0 = time.Now()
				}
				err := cfg.Tracer.Write(th, &e)
				if cfg.MeasureLatency {
					lg.lats = append(lg.lats, time.Since(t0).Nanoseconds())
				}
				switch {
				case err == nil:
					lg.written++
				case errors.Is(err, tracer.ErrDropped):
					lg.dropped++
				default:
					runErr.Store(fmt.Errorf("replay: core %d tid %d: %w", coreID, ev.TID, err))
					failed = true
				}
				if failed {
					break
				}
				lg.stamps = append(lg.stamps, e.Stamp)
				lg.sizes = append(lg.sizes, uint32(e.WireSize()))
				// Between events the thread offers itself for rescheduling
				// (event gaps are where the OS runs other threads).
				th.MaybePreempt(tracer.PreemptOutside)
			}
			th.Release()
		}
		bar.await()
	}
}

// RetainedStamps reads the tracer back through its cursor and returns
// the retained stamps in ascending order. One batch is reused throughout:
// only the stamps are retained, never the full event slice.
func RetainedStamps(tr tracer.Tracer) ([]uint64, error) {
	cur := tr.NewCursor()
	defer cur.Close()
	batch := make([]tracer.Entry, 512)
	var out []uint64
	for {
		n, _, err := cur.Next(batch)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for i := 0; i < n; i++ {
			out = append(out, batch[i].Stamp)
		}
	}
}
