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

// Verifier checks the stream invariants of a multiplexed source
// (independent clients POSTing to /ingest), where batches interleave
// arbitrarily and there is no cross-thread order to verify:
//
//   - stamps within one producer thread are strictly increasing
//     (DESIGN.md invariant 5, second half);
//   - every entry is structurally sound (non-zero stamp, payload within
//     the wire format's bounds — a torn batch decodes as garbage here).
//
// Entries failing a check are quarantined, not dropped silently, and the
// verifier's per-thread cursors do not advance past them, so one corrupt
// entry cannot poison the stream that follows it.
//
// A Verifier is not safe for concurrent use: ingest.Admission calls it
// under its own lock.
type Verifier struct {
	perThread map[uint32]uint64
}

// NewVerifier creates a Verifier with empty cursors.
func NewVerifier() *Verifier {
	return &Verifier{perThread: map[uint32]uint64{}}
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
	if last, ok := v.perThread[e.TID]; ok && e.Stamp <= last {
		return fmt.Sprintf("stamp %d: thread %d not strictly increasing after %d", e.Stamp, e.TID, last)
	}
	return ""
}
