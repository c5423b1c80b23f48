// Collection-pipeline faults: flaky trace cursors and dump sinks. These
// wrap the real source/sink and inject the transport failures a daemon
// collector sees in production — failed reads, torn (partial) batches,
// transiently or permanently failing dump writes — without ever losing
// events themselves: everything held back by a fault is delivered once
// the fault clears, so any loss observed downstream is the pipeline's.
package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"btrace/internal/collect"
	"btrace/internal/tracer"
)

// ErrInjected marks every transient error produced by this package.
var ErrInjected = errors.New("faults: injected failure")

// FlakyCursor wraps a tracer.Cursor whose reads fail with probability
// ErrProb and, when they succeed, are torn (only a prefix of the batch
// is delivered; the rest arrives on the next successful read) with
// probability TearProb. Wedge switches the source to permanent failure
// until Heal — the frozen-source scenario the supervisor's self-watchdog
// must detect. Its hooks are named "poller", "poller/err" and
// "poller/tear"; a hook's name seeds its schedule, so the names are part
// of what a seed reproduces.
type FlakyCursor struct {
	in  *Injector
	src tracer.Cursor

	// ErrProb is the probability that a read fails.
	ErrProb float64
	// TearProb is the probability that a successful read is torn.
	TearProb float64

	mu     sync.Mutex
	wedged bool
	// pending is what a tear held back: deep copies, since the source
	// reuses its arena on the next read (the cursor ownership contract).
	pending  []tracer.Entry
	polls    uint64
	failures uint64
	tears    uint64
}

// FlakyCursor wraps src with the given fault probabilities.
func (in *Injector) FlakyCursor(src tracer.Cursor, errProb, tearProb float64) *FlakyCursor {
	return &FlakyCursor{in: in, src: src, ErrProb: errProb, TearProb: tearProb}
}

// Wedge makes every subsequent read fail until Heal.
func (f *FlakyCursor) Wedge() {
	f.mu.Lock()
	f.wedged = true
	f.mu.Unlock()
	f.in.record("poller", "wedge")
}

// Heal clears a Wedge.
func (f *FlakyCursor) Heal() {
	f.mu.Lock()
	f.wedged = false
	f.mu.Unlock()
	f.in.record("poller", "heal")
}

// Next implements tracer.Cursor. A failed read consumes nothing from
// the underlying source.
func (f *FlakyCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.polls++
	if f.wedged {
		f.failures++
		return 0, 0, fmt.Errorf("%w: poller wedged", ErrInjected)
	}
	if f.in.decide("poller/err", f.ErrProb) {
		f.failures++
		return 0, 0, fmt.Errorf("%w: poll error", ErrInjected)
	}
	// What an earlier tear held back goes first; the source fills the
	// room that is left.
	n := copy(batch, f.pending)
	m, missed, err := f.src.Next(batch[n:])
	if err != nil {
		return 0, 0, err
	}
	f.pending = f.pending[n:]
	n += m
	if n > 1 && f.in.decide("poller/tear", f.TearProb) {
		f.tears++
		cut := n / 2
		f.pending = append(tracer.CloneEntries(nil, batch[cut:n]), f.pending...)
		n = cut
	}
	return n, missed, nil
}

// Close closes the underlying cursor.
func (f *FlakyCursor) Close() error { return f.src.Close() }

// Stats returns (reads attempted, injected failures, torn batches).
func (f *FlakyCursor) Stats() (polls, failures, tears uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.polls, f.failures, f.tears
}

// FlakySink wraps an io.Writer dump sink: the first FailFirst writes fail
// transiently, and once DieAfter (if positive) successful or failed
// writes have been attempted, every later write fails permanently
// (wrapping collect.ErrPermanent, so a supervisor spills instead of
// retrying forever).
type FlakySink struct {
	in  *Injector
	dst io.Writer

	// FailFirst is the number of initial writes that fail transiently.
	FailFirst int
	// DieAfter, when positive, is the number of write attempts after
	// which the sink fails permanently.
	DieAfter int

	mu       sync.Mutex
	writes   uint64
	failures uint64
}

// FlakySink wraps dst.
func (in *Injector) FlakySink(dst io.Writer, failFirst, dieAfter int) *FlakySink {
	return &FlakySink{in: in, dst: dst, FailFirst: failFirst, DieAfter: dieAfter}
}

// Write implements io.Writer.
func (s *FlakySink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if s.DieAfter > 0 && s.writes > uint64(s.DieAfter) {
		s.failures++
		s.in.record("sink", fmt.Sprintf("permanent#%d", s.writes))
		return 0, fmt.Errorf("faults: sink died: %w", collect.ErrPermanent)
	}
	if s.writes <= uint64(s.FailFirst) {
		s.failures++
		s.in.record("sink", fmt.Sprintf("transient#%d", s.writes))
		return 0, fmt.Errorf("%w: transient sink failure", ErrInjected)
	}
	return s.dst.Write(p)
}

// Stats returns (write attempts, injected failures).
func (s *FlakySink) Stats() (writes, failures uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.failures
}

var _ tracer.Cursor = (*FlakyCursor)(nil)
var _ io.Writer = (*FlakySink)(nil)
