package tracer

import (
	"iter"
	"sort"
)

// Cursor is the streaming consumption interface every tracer in this
// repository implements: a bounded, incremental read of the retained
// trace that never materializes the whole buffer as one slice. Each call
// to Next fills the caller-supplied batch with the events recorded since
// the previous call (oldest first by logic stamp) and reports how many
// events were lost to overwrite in between.
//
// Ownership: the entries written into batch — including their Payload
// bytes, which may point into a reusable arena owned by the cursor — are
// valid only until the next Next or Close call. Callers that retain
// events across calls must copy them (see CloneEntries). This is the
// contract that lets the BTrace core reuse its decode arenas across
// polls instead of allocating O(events) per poll.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor interface {
	// Next fills batch with up to len(batch) new events and returns the
	// count, the number of events lost to overwrite since the previous
	// call (attributed to the call that observes the loss), and an error.
	// n == 0 with a nil error means no new events are currently
	// available. A zero-length batch returns (0, 0, nil).
	Next(batch []Entry) (n int, missed uint64, err error)

	// Close releases the cursor's resources (e.g. unregisters the
	// underlying reader). After Close, Next must not be called.
	Close() error
}

// Renderer formats entries as text, a row each. A row's text depends on
// its entry and the format alone, so rows rendered once may be kept and
// handed out again in place of their entries (RenderCursor).
type Renderer interface {
	// Format names the rendering: renderers of one name render every
	// entry alike.
	Format() string
	// AppendRows appends the rows of es to dst, and to ends the offset
	// in dst at which each row ends.
	AppendRows(dst []byte, ends []uint32, es []Entry) ([]byte, []uint32)
}

// RenderCursor is a Cursor that may hand over stretches of rows already
// rendered, as text, instead of as entries.
type RenderCursor interface {
	Cursor
	// NextRendered is Next for a consumer that renders with r, the same
	// r on every call: it fills batch as Next does, or hands over the
	// text r makes of the next n rows (text non-nil, batch untouched).
	// The text is read-only and valid until the next call or Close.
	NextRendered(r Renderer, batch []Entry) (n int, text []byte, missed uint64, err error)
}

// Events returns a Go iterator over c, reading through batch (which
// sizes the per-call read; it must be non-empty). The yielded *Entry is
// borrowed — valid only for that iteration step — per the Cursor
// ownership contract. Iteration stops at the first exhausted read
// (n == 0), at the first error (yielded with a nil entry), or when the
// consumer breaks.
func Events(c Cursor, batch []Entry) iter.Seq2[*Entry, error] {
	return func(yield func(*Entry, error) bool) {
		for {
			n, _, err := c.Next(batch)
			if err != nil {
				yield(nil, err)
				return
			}
			if n == 0 {
				return
			}
			for i := 0; i < n; i++ {
				if !yield(&batch[i], nil) {
					return
				}
			}
		}
	}
}

// Drain reads c to exhaustion and returns owned copies of every event
// (payloads included), oldest first by stamp. It is the bridge from the
// streaming world back to the slice-snapshot world: ReadAll
// implementations wrap it, and tests use it to compare cursor and
// snapshot readouts.
func Drain(c Cursor, batchSize int) ([]Entry, error) {
	if batchSize <= 0 {
		batchSize = 512
	}
	batch := make([]Entry, batchSize)
	var out []Entry
	for {
		n, _, err := c.Next(batch)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = CloneEntries(out, batch[:n])
	}
}

// CloneEntries appends deep copies of src to dst: the entry structs and
// their payload bytes, so the copies survive arena reuse by the cursor
// that produced src. Payloads of one call are packed into a single
// backing allocation.
func CloneEntries(dst []Entry, src []Entry) []Entry {
	total := 0
	for i := range src {
		total += len(src[i].Payload)
	}
	var backing []byte
	if total > 0 {
		backing = make([]byte, 0, total)
	}
	for i := range src {
		e := src[i]
		if len(e.Payload) > 0 {
			off := len(backing)
			backing = append(backing, e.Payload...)
			e.Payload = backing[off:len(backing):len(backing)]
		}
		dst = append(dst, e)
	}
	return dst
}

// SnapshotCursor adapts a quiescent snapshot function (the ReadAll shape
// every baseline tracer already has) into a Cursor using stamp-based
// resume: each refill re-snapshots, drops everything at or below the
// highest stamp already delivered, and reports the stamp gap ahead of
// the first new event as missed. The refilled batch is buffered
// internally, so a refill's events are handed out across Next calls
// without re-snapshotting.
//
// The baselines use it because their read paths are quiescent by design;
// the BTrace core has a native arena-backed cursor instead (see
// internal/core).
type SnapshotCursor struct {
	read    func() ([]Entry, error)
	pending []Entry
	idx     int
	last    uint64
	closed  bool
}

// NewSnapshotCursor wraps read (which must return entries sorted by
// stamp, the ReadAll contract) as a Cursor.
func NewSnapshotCursor(read func() ([]Entry, error)) *SnapshotCursor {
	return &SnapshotCursor{read: read}
}

// Next implements Cursor.
func (c *SnapshotCursor) Next(batch []Entry) (int, uint64, error) {
	if c.closed {
		return 0, 0, ErrClosed
	}
	if len(batch) == 0 {
		return 0, 0, nil
	}
	var missed uint64
	if c.idx >= len(c.pending) {
		es, err := c.read()
		if err != nil {
			return 0, 0, err
		}
		// Binary-search the resume point (entries are stamp-sorted).
		lo := sort.Search(len(es), func(i int) bool { return es[i].Stamp > c.last })
		es = es[lo:]
		if len(es) == 0 {
			return 0, 0, nil
		}
		if c.last != 0 && es[0].Stamp > c.last+1 {
			missed = es[0].Stamp - c.last - 1
		}
		c.pending, c.idx = es, 0
	}
	n := copy(batch, c.pending[c.idx:])
	c.idx += n
	c.last = c.pending[c.idx-1].Stamp
	if c.idx >= len(c.pending) {
		c.pending, c.idx = nil, 0
	}
	return n, missed, nil
}

// Close implements Cursor.
func (c *SnapshotCursor) Close() error {
	c.closed = true
	c.pending = nil
	return nil
}

var _ Cursor = (*SnapshotCursor)(nil)
