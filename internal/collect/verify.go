// Readout verification: DESIGN.md's quiescence invariants, promoted to
// runtime checks over a live stream. The tracer core panics on protocol
// violations it can prove are its own accounting bugs; a verifier's
// caller, by contrast, consumes batches that may be torn by faulty
// transports or malformed by clients, so Check hands inconsistent
// entries back to it, quarantined with one violation each, rather than
// panicking.

package collect

import (
	"fmt"

	"btrace/internal/tracer"
)

// Verifier checks the stream invariants of a polled readout:
//
//   - the stream is totally ordered by logic stamp and stamps are unique
//     (DESIGN.md invariant 5, first half);
//   - stamps within one producer thread are strictly increasing
//     (invariant 5, second half);
//   - every entry is structurally sound (non-zero stamp, payload within
//     the wire format's bounds — a torn batch decodes as garbage here).
//
// Entries failing a check are quarantined, not dropped silently, and the
// verifier's cursors do not advance past them, so one corrupt entry
// cannot poison the stream that follows it.
//
// In unordered mode the first invariant is waived: a multiplexed source
// (independent clients POSTing to /ingest) has no cross-thread order to
// verify, only the per-thread and structural invariants.
//
// A Verifier is not safe for concurrent use: ingest.Admission calls it
// under its own lock.
type Verifier struct {
	lastStamp uint64
	perThread map[uint32]uint64
	// unordered drops the cross-thread total-order checks: the stream is
	// a multiplex of independent producers (NewUnorderedVerifier), where
	// batches interleave arbitrarily and only per-thread order is an
	// invariant.
	unordered bool
}

// NewVerifier creates a Verifier with empty cursors.
func NewVerifier() *Verifier {
	return &Verifier{perThread: map[uint32]uint64{}}
}

// NewUnorderedVerifier creates a Verifier in unordered mode, for a
// source that multiplexes independent producers.
func NewUnorderedVerifier() *Verifier {
	v := NewVerifier()
	v.unordered = true
	return v
}

// Check splits a polled batch into clean entries and quarantined ones,
// with one violation description per quarantined entry. It filters in
// place: clean is a prefix of es's backing array (the caller hands es
// over), so a batch with nothing to quarantine — every batch of a
// healthy source — allocates nothing.
// Quarantined entries are copied out before their slot is reused.
func (v *Verifier) Check(es []tracer.Entry) (clean, quarantined []tracer.Entry, violations []string) {
	clean = es[:0]
	for i := range es {
		e := &es[i]
		if reason := v.check(e); reason != "" {
			quarantined = append(quarantined, *e)
			violations = append(violations, reason)
			continue
		}
		v.lastStamp = e.Stamp
		v.perThread[e.TID] = e.Stamp
		clean = append(clean, *e)
	}
	return clean, quarantined, violations
}

// check returns a non-empty violation description if e is inconsistent
// with the stream so far.
func (v *Verifier) check(e *tracer.Entry) string {
	if e.Stamp == 0 {
		return "zero logic stamp"
	}
	if len(e.Payload) > tracer.MaxPayload {
		return fmt.Sprintf("stamp %d: payload %d exceeds wire maximum %d", e.Stamp, len(e.Payload), tracer.MaxPayload)
	}
	if !v.unordered {
		if e.Stamp == v.lastStamp {
			return fmt.Sprintf("stamp %d: duplicate of previous entry", e.Stamp)
		}
		if e.Stamp < v.lastStamp {
			return fmt.Sprintf("stamp %d: out of order after %d", e.Stamp, v.lastStamp)
		}
	}
	if last, ok := v.perThread[e.TID]; ok && e.Stamp <= last {
		return fmt.Sprintf("stamp %d: thread %d not strictly increasing after %d", e.Stamp, e.TID, last)
	}
	return ""
}
