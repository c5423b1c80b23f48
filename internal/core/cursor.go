package core

import (
	"btrace/internal/tracer"
)

// Cursor is the BTrace core's native streaming consumer: an arena-backed
// tracer.Cursor over one registered Reader. Each refill runs the same
// speculative copy-then-revalidate snapshot as Reader.Snapshot but
// decodes into a persistent arena reused across refills, so steady-state
// polling of a busy buffer performs zero per-poll heap allocations once
// the arena has warmed up to the buffer's retained size.
//
// Delivery is incremental: events are handed out oldest first by logic
// stamp, each event exactly once (per this cursor), and
// the missed count is the stamp gap between the last delivered event and
// the first newly visible one — events that were overwritten before the
// cursor could observe them.
//
// Ownership follows the tracer.Cursor contract: batch contents (payloads
// point into the arena) are valid only until the next Next or Close.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	r  *Reader
	ar arena
	// idx is the next undelivered entry in ar.entries.
	idx int
	// last is the highest stamp delivered.
	last uint64
	// missed accumulates the gap detected by the latest refill until a
	// Next call delivers it.
	missed uint64
	closed bool
}

// NewCursor registers a reader on b and returns a streaming cursor over
// it. Close the cursor to unregister the reader.
func (b *Buffer) NewCursor() *Cursor {
	return &Cursor{r: b.NewReader()}
}

// Next implements tracer.Cursor. It fills batch with up to len(batch)
// new events (stamp order) and reports events lost to overwrite since
// the previous call.
func (c *Cursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if c.closed {
		return 0, 0, tracer.ErrClosed
	}
	if len(batch) == 0 {
		return 0, 0, nil
	}
	if c.idx >= len(c.ar.entries) {
		c.refill()
		if c.idx >= len(c.ar.entries) {
			return 0, 0, nil
		}
	}
	n := copy(batch, c.ar.entries[c.idx:])
	c.idx += n
	c.last = c.ar.entries[c.idx-1].Stamp
	missed := c.missed
	c.missed = 0
	c.r.b.ctrs.read(n, missed)
	return n, missed, nil
}

// refill re-snapshots the buffer into the arena and positions idx at the
// first event newer than the delivery watermark. Entries at or below the
// watermark were already delivered (the ring still retains them); a gap
// above it means the buffer wrapped past undelivered events.
func (c *Cursor) refill() {
	c.r.snapshotInto(&c.ar)
	es := c.ar.entries
	// Binary search the resume point: entries are stamp-sorted.
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].Stamp <= c.last {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.idx = lo
	if lo < len(es) && c.last != 0 && es[lo].Stamp > c.last+1 {
		c.missed += es[lo].Stamp - c.last - 1
	}
}

// Infos returns the per-position block information gathered by the most
// recent refill. The slice is owned by the cursor's arena and valid only
// until the next Next or Close.
func (c *Cursor) Infos() []BlockInfo {
	return c.ar.infos
}

// Close unregisters the underlying reader and releases the arena.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.r.Close()
	c.ar = arena{}
	return nil
}

var _ tracer.Cursor = (*Cursor)(nil)
