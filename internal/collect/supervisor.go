// Supervisor: the self-healing collector pipeline. The plain Collector
// assumes a healthy source and sink; production deployments (§2.1, §6 of
// the paper) cannot — polls fail or return torn batches, dump sinks stall
// or die, and the daemon itself must degrade gracefully rather than crash
// or silently drop data. The Supervisor wraps the Collector with:
//
//   - retry with exponential backoff + deterministic jitter and a bounded
//     retry budget for both the source and the sink;
//   - a self-watchdog that declares the source wedged after the retry
//     budget is exhausted (or after a configurable run of empty polls);
//   - readout verification (Verifier) that quarantines inconsistent
//     entries into the next Dump instead of panicking;
//   - graceful degradation: sustained loss pressure grows the traced
//     buffer via Resize and shrinks it back when pressure subsides, and a
//     failed sink spills dumps to a bounded in-memory ring instead of
//     dropping them.
package collect

import (
	"bytes"
	"errors"
	"io"
	"math/rand"

	"btrace/internal/tracer"
)

// ErrPermanent marks a sink error as unrecoverable: the Supervisor spills
// the dump immediately instead of burning its retry budget. Sinks signal
// it by returning an error wrapping ErrPermanent.
var ErrPermanent = errors.New("collect: permanent sink failure")

// Resizer is the traced buffer's resize surface (satisfied by
// core.Buffer): Ratio reports the current data-blocks-per-metadata-block
// ratio and Resize changes it.
type Resizer interface {
	Ratio() int
	Resize(newRatio int) error
}

// SupervisorConfig configures a Supervisor. Zero values select the
// documented defaults.
type SupervisorConfig struct {
	// Cursor is the trace source (required): each step consumes at most
	// BatchSize events through the cursor's reusable arena, so the
	// pipeline's per-step memory stays bounded no matter how far the
	// source runs ahead. Batches are borrowed per the tracer.Cursor
	// contract; the supervisor deep-copies only what it retains (window
	// and quarantine). A failed Next consumes nothing from the source.
	Cursor tracer.Cursor
	// BatchSize bounds the events consumed per step (default 512).
	BatchSize int
	// Triggers fire dumps, as in Config. A LossDetector among them also
	// receives per-poll missed counts and sets the loss tolerance the
	// adaptive resize policy uses.
	Triggers []Trigger
	// MaxWindowEvents bounds the rolling context window (default 65536).
	MaxWindowEvents int

	// Sink receives serialized dumps. Nil means dumps are only returned
	// from Step (and never spill).
	Sink io.Writer

	// PollRetryBudget is the number of consecutive poll failures after
	// which the source is declared wedged (default 8). Polling continues
	// at the capped backoff so recovery is still detected.
	PollRetryBudget int
	// WedgeEmptyPolls, when positive, additionally declares the source
	// wedged after that many consecutive successful polls returning no
	// events and no loss — a frozen tracer looks exactly like that.
	WedgeEmptyPolls int
	// SinkRetryBudget is the number of write attempts per dump before it
	// is spilled to memory (default 8).
	SinkRetryBudget int
	// BackoffBase and BackoffMax bound the exponential backoff, measured
	// in Step calls (defaults 1 and 64). Jitter of up to one base step is
	// added, drawn deterministically from Seed.
	BackoffBase int
	BackoffMax  int
	// Seed makes the backoff jitter deterministic.
	Seed int64

	// Resizer, when set, enables adaptive buffer sizing.
	Resizer Resizer
	// MaxRatio is the grow ceiling (default: the resizer's ratio at
	// construction, i.e. no growth).
	MaxRatio int
	// GrowAfter is the number of consecutive polls with loss above the
	// LossDetector tolerance before the buffer grows (default 2).
	GrowAfter int
	// ShrinkAfter is the number of consecutive loss-free polls before the
	// buffer shrinks back toward its original ratio (default 64).
	ShrinkAfter int

	// SpillCapacity bounds the in-memory spill ring (default 16 dumps);
	// beyond it the oldest spilled dump is dropped and counted.
	SpillCapacity int
}

// SupervisorStats counts everything the pipeline absorbed.
type SupervisorStats struct {
	Polls            uint64 // successful polls
	PollErrors       uint64 // failed polls
	PollBackoffSteps uint64 // steps skipped waiting out poll backoff
	EventsMissed     uint64 // events lost to overwrite between polls

	Dumps        uint64 // dumps produced by triggers
	DumpsWritten uint64 // dumps fully delivered to the sink
	SinkErrors   uint64 // failed sink writes
	SinkBackoff  uint64 // steps skipped waiting out sink backoff
	Spilled      uint64 // dumps diverted to the spill ring
	SpillDropped uint64 // spilled dumps evicted by the ring bound and lost
	// SpillDroppedEvents counts the events (quarantined included) inside
	// dropped dumps, making loss accounting event-exact: every event the
	// pipeline accepted is eventually delivered or counted here.
	SpillDroppedEvents uint64

	Grows   uint64 // adaptive Resize grow operations
	Shrinks uint64 // adaptive Resize shrink operations

	Quarantined     uint64 // entries rejected by the verifier
	WedgeDetections uint64 // false->true transitions of the wedge verdict
}

// HealthReport is the supervisor's self-diagnosis.
type HealthReport struct {
	// SourceWedged is the self-watchdog verdict: the poll retry budget is
	// exhausted or the source has been silent past WedgeEmptyPolls.
	SourceWedged bool
	// SinkFailed reports a permanent sink failure was observed.
	SinkFailed bool
	// PollBackoff and SinkBackoff are the steps remaining before the next
	// poll / sink attempt.
	PollBackoff int
	SinkBackoff int
	// PendingDumps is the number of dumps awaiting sink delivery.
	PendingDumps int
	// SpilledDumps is the number of dumps held in the spill ring.
	SpilledDumps int
}

// pendingDump is a dump awaiting sink delivery, its wire encoding cached
// so retries resend identical bytes.
type pendingDump struct {
	dump     *Dump
	wire     []byte
	attempts int
}

// Supervisor is the supervised, self-healing collector pipeline. It is
// driven by a single goroutine calling Step.
type Supervisor struct {
	cfg SupervisorConfig
	col *Collector
	ver *Verifier
	rng *rand.Rand
	// batch is the reusable read buffer handed to the cursor.
	batch []tracer.Entry

	// Quarantine accumulated since the last dump, attached to the next one.
	quarantined []tracer.Entry
	violations  []string

	consecPollErrs int
	consecEmpty    int
	pollBackoff    int
	sourceWedged   bool

	pending     []*pendingDump
	sinkBackoff int
	sinkFailed  bool
	spill       []*Dump

	baseRatio    int
	lossTol      uint64
	lossyStreak  int
	cleanStreak  int
	resizeErrors []error

	stats SupervisorStats
	// obs republishes stats and Health once per Step/Flush.
	obs *statsMirror
}

// NewSupervisor creates a supervised pipeline.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 512
	}
	if cfg.PollRetryBudget == 0 {
		cfg.PollRetryBudget = 8
	}
	if cfg.SinkRetryBudget == 0 {
		cfg.SinkRetryBudget = 8
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 1
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 64
	}
	if cfg.GrowAfter == 0 {
		cfg.GrowAfter = 2
	}
	if cfg.ShrinkAfter == 0 {
		cfg.ShrinkAfter = 64
	}
	if cfg.SpillCapacity == 0 {
		cfg.SpillCapacity = 16
	}
	// The inner Collector validates the source and is only ever driven
	// through Ingest: the supervisor reads the cursor itself, with its own
	// retry policy.
	col, err := New(Config{
		Source:          cfg.Cursor,
		Triggers:        cfg.Triggers,
		MaxWindowEvents: cfg.MaxWindowEvents,
	})
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:   cfg,
		col:   col,
		ver:   NewVerifier(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		batch: make([]tracer.Entry, cfg.BatchSize),
		obs:   newStatsMirror(),
	}
	if col.loss != nil {
		s.lossTol = col.loss.Tolerance
	}
	if cfg.Resizer != nil {
		s.baseRatio = cfg.Resizer.Ratio()
		if s.cfg.MaxRatio == 0 {
			s.cfg.MaxRatio = s.baseRatio
		}
	}
	return s, nil
}

// backoffAfter computes the backoff (in steps) after the n-th consecutive
// failure: base*2^(n-1) capped at max, plus up to one base step of
// deterministic jitter.
func (s *Supervisor) backoffAfter(n int) int {
	d := s.cfg.BackoffBase
	for i := 1; i < n && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d + s.rng.Intn(s.cfg.BackoffBase+1)
}

// Step runs one supervised iteration: wait out or attempt a poll, verify
// and ingest its events, apply the adaptive resize policy, and drain
// pending dumps to the sink. It returns the dump produced by this step's
// ingest, if any (delivery to the sink may complete on a later step).
func (s *Supervisor) Step() *Dump {
	dump := s.stepPoll()
	s.stepSink()
	s.publishObs()
	return dump
}

// stepPoll performs the poll half of a step.
func (s *Supervisor) stepPoll() *Dump {
	if s.pollBackoff > 0 {
		s.pollBackoff--
		s.stats.PollBackoffSteps++
		return nil
	}
	// es is borrowed from the cursor's arena (valid only until the next
	// Next call): everything retained below is a deep copy.
	n, missed, err := s.cfg.Cursor.Next(s.batch)
	es := s.batch[:n]
	if err != nil {
		s.stats.PollErrors++
		s.consecPollErrs++
		s.pollBackoff = s.backoffAfter(s.consecPollErrs)
		if s.consecPollErrs >= s.cfg.PollRetryBudget && !s.sourceWedged {
			s.sourceWedged = true // self-watchdog: source declared wedged
			s.stats.WedgeDetections++
		}
		return nil
	}
	s.consecPollErrs = 0
	s.stats.Polls++
	s.stats.EventsMissed += missed

	// Empty-poll half of the self-watchdog.
	if len(es) == 0 && missed == 0 {
		s.consecEmpty++
		if s.cfg.WedgeEmptyPolls > 0 && s.consecEmpty >= s.cfg.WedgeEmptyPolls {
			if !s.sourceWedged {
				s.stats.WedgeDetections++
			}
			s.sourceWedged = true
		}
	} else {
		s.consecEmpty = 0
		s.sourceWedged = false
	}

	clean, quarantined, violations := s.ver.Check(es)
	s.quarantined = tracer.CloneEntries(s.quarantined, quarantined)
	s.violations = append(s.violations, violations...)
	s.stats.Quarantined += uint64(len(quarantined))

	s.adaptCapacity(missed)

	dump := s.col.Ingest(clean, missed)
	if dump == nil {
		return nil
	}
	dump.Quarantined = s.quarantined
	dump.Violations = s.violations
	s.quarantined = nil
	s.violations = nil
	s.stats.Dumps++
	if s.cfg.Sink != nil {
		s.pending = append(s.pending, &pendingDump{dump: dump})
	}
	return dump
}

// adaptCapacity implements graceful degradation under loss pressure:
// missed events above the LossDetector tolerance on GrowAfter consecutive
// polls double the traced buffer's ratio (up to MaxRatio); ShrinkAfter
// consecutive loss-free polls halve it back (down to the original ratio).
func (s *Supervisor) adaptCapacity(missed uint64) {
	if s.cfg.Resizer == nil {
		return
	}
	if missed > s.lossTol {
		s.lossyStreak++
		s.cleanStreak = 0
	} else {
		s.cleanStreak++
		s.lossyStreak = 0
	}
	ratio := s.cfg.Resizer.Ratio()
	switch {
	case s.lossyStreak >= s.cfg.GrowAfter && ratio < s.cfg.MaxRatio:
		next := ratio * 2
		if next > s.cfg.MaxRatio {
			next = s.cfg.MaxRatio
		}
		if err := s.cfg.Resizer.Resize(next); err != nil {
			s.resizeErrors = append(s.resizeErrors, err)
			return
		}
		s.stats.Grows++
		s.lossyStreak = 0
	case s.cleanStreak >= s.cfg.ShrinkAfter && ratio > s.baseRatio:
		next := ratio / 2
		if next < s.baseRatio {
			next = s.baseRatio
		}
		if err := s.cfg.Resizer.Resize(next); err != nil {
			s.resizeErrors = append(s.resizeErrors, err)
			return
		}
		s.stats.Shrinks++
		s.cleanStreak = 0
	}
}

// stepSink drains pending dumps to the sink, honoring backoff, the retry
// budget and permanent-failure spilling.
func (s *Supervisor) stepSink() {
	if s.cfg.Sink == nil || len(s.pending) == 0 {
		return
	}
	if s.sinkBackoff > 0 {
		s.sinkBackoff--
		s.stats.SinkBackoff++
		return
	}
	for len(s.pending) > 0 {
		p := s.pending[0]
		if p.wire == nil {
			var buf bytes.Buffer
			if _, err := p.dump.WriteTo(&buf); err != nil {
				// Unencodable dump: spill it rather than wedging the queue.
				s.spillDump(p.dump)
				s.pending = s.pending[1:]
				continue
			}
			p.wire = buf.Bytes()
		}
		p.attempts++
		if _, err := s.cfg.Sink.Write(p.wire); err != nil {
			s.stats.SinkErrors++
			if errors.Is(err, ErrPermanent) {
				// Permanent failure: spill everything pending; keep the
				// pipeline alive on the in-memory ring.
				s.sinkFailed = true
				for _, q := range s.pending {
					s.spillDump(q.dump)
				}
				s.pending = s.pending[:0]
				return
			}
			if p.attempts >= s.cfg.SinkRetryBudget {
				s.spillDump(p.dump)
				s.pending = s.pending[1:]
			}
			s.sinkBackoff = s.backoffAfter(p.attempts)
			return
		}
		s.sinkFailed = false
		s.stats.DumpsWritten++
		s.pending = s.pending[1:]
	}
}

// spillDump appends a dump to the bounded in-memory spill ring, evicting
// the oldest when full. Each evicted dump is counted dropped exactly
// once, and its events event-exact in SpillDroppedEvents.
func (s *Supervisor) spillDump(d *Dump) {
	s.spill = append(s.spill, d)
	s.stats.Spilled++
	if over := len(s.spill) - s.cfg.SpillCapacity; over > 0 {
		for _, old := range s.spill[:over] {
			s.stats.SpillDropped++
			s.stats.SpillDroppedEvents += uint64(len(old.Events) + len(old.Quarantined))
		}
		s.spill = append(s.spill[:0], s.spill[over:]...)
	}
}

// Flush synchronously attempts to deliver every pending and spilled dump
// to the sink, ignoring backoff — the shutdown / sink-healed path. It
// returns the first delivery error (spilled dumps stay in the ring on
// failure).
func (s *Supervisor) Flush() error {
	if s.cfg.Sink == nil {
		return nil
	}
	defer s.publishObs()
	for len(s.pending) > 0 {
		p := s.pending[0]
		if p.wire == nil {
			var buf bytes.Buffer
			if _, err := p.dump.WriteTo(&buf); err != nil {
				return err
			}
			p.wire = buf.Bytes()
		}
		if _, err := s.cfg.Sink.Write(p.wire); err != nil {
			s.stats.SinkErrors++
			return err
		}
		s.stats.DumpsWritten++
		s.pending = s.pending[1:]
	}
	for len(s.spill) > 0 {
		var buf bytes.Buffer
		if _, err := s.spill[0].WriteTo(&buf); err != nil {
			return err
		}
		if _, err := s.cfg.Sink.Write(buf.Bytes()); err != nil {
			s.stats.SinkErrors++
			return err
		}
		s.stats.DumpsWritten++
		s.spill = s.spill[1:]
	}
	s.sinkFailed = false
	return nil
}

// Spill returns the dumps currently held by the in-memory spill ring,
// oldest first, without draining it.
func (s *Supervisor) Spill() []*Dump { return append([]*Dump(nil), s.spill...) }

// Health returns the supervisor's self-diagnosis.
func (s *Supervisor) Health() HealthReport {
	return HealthReport{
		SourceWedged: s.sourceWedged,
		SinkFailed:   s.sinkFailed,
		PollBackoff:  s.pollBackoff,
		SinkBackoff:  s.sinkBackoff,
		PendingDumps: len(s.pending),
		SpilledDumps: len(s.spill),
	}
}

// Stats returns a snapshot of the pipeline counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

// publishObs republishes the counters and health gauges for /metrics.
func (s *Supervisor) publishObs() { s.obs.publish(s.stats, s.Health()) }

// ResizeErrors returns errors from adaptive Resize attempts (surfaced
// rather than retried blindly; the policy re-evaluates on later polls).
func (s *Supervisor) ResizeErrors() []error { return append([]error(nil), s.resizeErrors...) }
