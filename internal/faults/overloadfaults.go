// Overload-storm faults: an oversubscribed producer and a flaky durable
// store. Together they form the chaos suite's overload schedule — calm
// phases where the pipeline keeps up alternating with storm phases where
// the source floods it and the store's write path fails — so the ingest
// path's adaptive overload control (internal/ingest over
// internal/overload) can be driven through whole engage → degrade →
// recover cycles deterministically.
package faults

import (
	"fmt"
	"sync"

	"btrace/internal/distributor"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// BurstConfig shapes a BurstSource's deterministic load schedule.
type BurstConfig struct {
	// CalmPerPoll / StormPerPoll are the events per batch in the
	// respective phase (defaults 4 and 64).
	CalmPerPoll  int
	StormPerPoll int
	// CalmPolls / StormPolls are the phase lengths in batches (defaults
	// 16 each). A cycle is one calm phase followed by one storm phase.
	CalmPolls  int
	StormPolls int
	// Cycles is the number of calm→storm cycles; after the last the
	// source goes quiet (empty batches) forever (default 1).
	Cycles int
	// StormMissed is the per-batch missed count reported during storms —
	// the overwrite loss an oversubscribed ring exhibits (default
	// 3×StormPerPoll, so the storm loss rate reads 0.75).
	StormMissed uint64
	// Categories cycles the generated events' categories (default {1}).
	Categories []uint8
	// PayloadBytes attaches a payload of that size to every event.
	PayloadBytes int
	// StartTS and TSStepNs shape the virtual clock: the first event is
	// stamped StartTS and each subsequent one advances TSStepNs
	// (defaults 1 and 1000).
	StartTS  uint64
	TSStepNs uint64
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.CalmPerPoll <= 0 {
		c.CalmPerPoll = 4
	}
	if c.StormPerPoll <= 0 {
		c.StormPerPoll = 64
	}
	if c.CalmPolls <= 0 {
		c.CalmPolls = 16
	}
	if c.StormPolls <= 0 {
		c.StormPolls = 16
	}
	if c.Cycles <= 0 {
		c.Cycles = 1
	}
	if c.StormMissed == 0 {
		c.StormMissed = 3 * uint64(c.StormPerPoll)
	}
	if len(c.Categories) == 0 {
		c.Categories = []uint8{1}
	}
	if c.StartTS == 0 {
		c.StartTS = 1
	}
	if c.TSStepNs == 0 {
		c.TSStepNs = 1000
	}
	return c
}

// BurstSource is a deterministic batch producer alternating calm and
// storm phases per its BurstConfig — the shape of an oversubscribed
// client posting to a server. Every entry it produces is well-formed for
// the admission Verifier — unique globally increasing stamps, monotonic
// timestamps, non-zero everything — so any loss observed downstream is
// the overload machinery's own doing, never the source's. Phase
// transitions are recorded in the injector's "burst" schedule.
type BurstSource struct {
	in  *Injector
	cfg BurstConfig

	mu       sync.Mutex
	polls    int
	stamp    uint64
	ts       uint64
	produced uint64
	storming bool
}

// BurstSource creates a burst source following cfg's schedule.
func (in *Injector) BurstSource(cfg BurstConfig) *BurstSource {
	cfg = cfg.withDefaults()
	return &BurstSource{in: in, cfg: cfg, stamp: 1, ts: cfg.StartTS}
}

// phaseAt maps a batch index to (storming, quiet).
func (s *BurstSource) phaseAt(poll int) (storm, quiet bool) {
	cycle := s.cfg.CalmPolls + s.cfg.StormPolls
	if poll >= s.cfg.Cycles*cycle {
		return false, true
	}
	return poll%cycle >= s.cfg.CalmPolls, false
}

// Batch returns the schedule's next batch — freshly allocated, the
// caller's to filter in place — and the events the source lost to
// overwrite while producing it.
func (s *BurstSource) Batch() ([]tracer.Entry, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	storm, quiet := s.phaseAt(s.polls)
	s.polls++
	if quiet {
		if s.storming {
			s.storming = false
			s.in.record("burst", fmt.Sprintf("quiet#%d", s.polls-1))
		}
		return nil, 0
	}
	if storm != s.storming {
		s.storming = storm
		phase := "calm"
		if storm {
			phase = "storm"
		}
		s.in.record("burst", fmt.Sprintf("%s#%d", phase, s.polls-1))
	}
	n, missed := s.cfg.CalmPerPoll, uint64(0)
	if storm {
		n, missed = s.cfg.StormPerPoll, s.cfg.StormMissed
	}
	es := make([]tracer.Entry, n)
	for i := range es {
		es[i] = tracer.Entry{
			Stamp:    s.stamp,
			TS:       s.ts,
			TID:      uint32(200 + s.stamp%8),
			Category: s.cfg.Categories[int(s.stamp)%len(s.cfg.Categories)],
			Level:    uint8(1 + s.stamp%3),
		}
		if s.cfg.PayloadBytes > 0 {
			es[i].Payload = make([]byte, s.cfg.PayloadBytes)
		}
		s.stamp++
		s.ts += s.cfg.TSStepNs
	}
	s.produced += uint64(n)
	return es, missed
}

// Storming reports whether the next batch falls in a storm phase.
func (s *BurstSource) Storming() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	storm, _ := s.phaseAt(s.polls)
	return storm
}

// Quiet reports whether the schedule is exhausted.
func (s *BurstSource) Quiet() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, quiet := s.phaseAt(s.polls)
	return quiet
}

// Produced returns the total events emitted so far.
func (s *BurstSource) Produced() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.produced
}

// FlakyStore wraps a shard's store, as its deliveries see it, with
// injected append failures: probabilistic ones via ErrProb and a
// deterministic Wedge/Heal switch — the flaky disk under an overload
// storm. It is the LocalConfig.WrapStore seam, so the faults land on the
// append production deliveries make. Injected failures are transient:
// WriteErr reports only the wrapped store's own sticky failure, and the
// next append may succeed. No caller retries one: a cluster delivery
// goes straight to its hedge candidate, and a single-store /ingest
// handler counts the batch dropped.
type FlakyStore struct {
	in  *Injector
	dst distributor.Replica

	// ErrProb is the probability that an append fails.
	ErrProb float64

	mu       sync.Mutex
	wedged   bool
	appends  uint64
	events   uint64
	failures uint64
}

// FlakyStore wraps dst with the given failure probability.
func (in *Injector) FlakyStore(dst distributor.Replica, errProb float64) *FlakyStore {
	return &FlakyStore{in: in, dst: dst, ErrProb: errProb}
}

// Wedge makes every subsequent append fail until Heal. Idempotent; only
// state changes are recorded in the schedule.
func (f *FlakyStore) Wedge() {
	f.mu.Lock()
	changed := !f.wedged
	f.wedged = true
	f.mu.Unlock()
	if changed {
		f.in.record("store", "wedge")
	}
}

// Heal clears a Wedge.
func (f *FlakyStore) Heal() {
	f.mu.Lock()
	changed := f.wedged
	f.wedged = false
	f.mu.Unlock()
	if changed {
		f.in.record("store", "heal")
	}
}

// AppendBatch implements distributor.Replica. A failed append consumes
// nothing.
func (f *FlakyStore) AppendBatch(b *store.Batch, rows []int32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appends++
	if f.wedged {
		f.failures++
		return fmt.Errorf("%w: store wedged", ErrInjected)
	}
	if f.in.decide("store/err", f.ErrProb) {
		f.failures++
		return fmt.Errorf("%w: append error", ErrInjected)
	}
	if err := f.dst.AppendBatch(b, rows); err != nil {
		return err
	}
	if rows == nil {
		f.events += uint64(b.Len())
	} else {
		f.events += uint64(len(rows))
	}
	return nil
}

// WriteErr implements distributor.Replica: the wrapped store's sticky
// failure.
func (f *FlakyStore) WriteErr() error { return f.dst.WriteErr() }

// Stats returns (append attempts, events appended, injected failures).
func (f *FlakyStore) Stats() (appends, events, failures uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends, f.events, f.failures
}

var _ distributor.Replica = (*FlakyStore)(nil)
