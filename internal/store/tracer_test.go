// Tracer adapter: exposes a Store through the tracer.Tracer interface so
// the tracertest conformance suite — the contract every in-memory tracer
// in this repository satisfies — also runs against disk
// (TestStoreTracerConformance on a directory, and
// TestStoreParallelTracerConformance on the object backend). It has no
// other caller, so it lives with them.
// Retention by MaxBytes stands in for overwrite-oldest: deleting whole
// oldest segments keeps the newest records and never opens interior
// gaps for a single stamp-ordered producer.
package store

import (
	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// Tracer adapts a Store to tracer.Tracer. Unlike the in-memory tracers
// it persists every write; ReadAll and cursors read back from disk.
type Tracer struct {
	st     *Store
	cfg    Config
	budget int
}

// NewTracer opens a store-backed tracer in dir with a total on-disk
// budget of totalBytes (enforced by retention, whole segments at a
// time).
func NewTracer(dir string, totalBytes int) (*Tracer, error) {
	be, err := local.New(dir)
	if err != nil {
		return nil, err
	}
	return newTracer(be, totalBytes)
}

// newTracer is NewTracer over an explicit backend.
func newTracer(be backend.Backend, totalBytes int) (*Tracer, error) {
	cfg := Config{
		SegmentBytes: int64(totalBytes) / 8,
		MaxBytes:     int64(totalBytes),
	}
	st, err := OpenBackend(be, cfg)
	if err != nil {
		return nil, err
	}
	return &Tracer{st: st, cfg: cfg, budget: totalBytes}, nil
}

// Store returns the underlying store.
func (t *Tracer) Store() *Store { return t.st }

// Name implements tracer.Tracer.
func (t *Tracer) Name() string { return "store" }

// Write implements tracer.Tracer; the Proc is unused (the entry already
// carries its core and thread identity).
func (t *Tracer) Write(_ tracer.Proc, e *tracer.Entry) error {
	return t.st.AppendEntries([]tracer.Entry{*e})
}

// ReadAll implements tracer.Tracer: a full drain of the store, in stamp
// order. It first waits for retention to catch up with the writes
// (Sync): retention runs on the maintenance goroutine, and a drain
// racing it loses a segment mid-pass — a `missed` to a cursor, an
// interior gap to the conformance suite, on a loaded machine only.
func (t *Tracer) ReadAll() ([]tracer.Entry, error) {
	if err := t.st.Sync(); err != nil {
		return nil, err
	}
	cur := t.NewCursor()
	defer cur.Close()
	return tracer.Drain(cur, 1024)
}

// NewCursor implements tracer.Tracer. It reads the store the way
// a polling client does: through snapshot passes, a new one above the
// last stamp delivered whenever the current pass is over. For a store
// fed in stamp order that composes into the following cursor the
// conformance suite expects.
func (t *Tracer) NewCursor() tracer.Cursor {
	return &pollingCursor{st: t.st, cur: t.st.Query(Query{})}
}

type pollingCursor struct {
	st   *Store
	cur  *PCursor
	last uint64
}

func (c *pollingCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n, missed, err := c.cur.Next(batch)
	if n == 0 && err == nil {
		c.cur.Close()
		c.cur = c.st.Query(Query{Pred: where(btql.Between(btql.FStamp, c.last+1, 0))})
		var m uint64
		n, m, err = c.cur.Next(batch)
		missed += m
	}
	if n > 0 {
		c.last = batch[n-1].Stamp
	}
	return n, missed, err
}

func (c *pollingCursor) Close() error { return c.cur.Close() }

// TotalBytes implements tracer.Tracer.
func (t *Tracer) TotalBytes() int { return t.budget }

// Stats implements tracer.Tracer.
func (t *Tracer) Stats() tracer.Stats {
	ss := t.st.Stats()
	return tracer.Stats{
		Writes:       ss.Appends,
		BytesWritten: ss.BytesAppended,
		Overwritten:  ss.EventsRetired,
	}
}

// Reset implements tracer.Tracer: it closes the store, deletes its
// files and opens a fresh store over the same backend. Should that
// fail, the closed store stays and every later call reports it.
func (t *Tracer) Reset() {
	t.st.Close()
	be := t.st.Backend()
	names, _ := be.List("")
	for _, name := range names {
		be.Remove(name)
	}
	if st, err := OpenBackend(be, t.cfg); err == nil {
		t.st = st
	}
}

// Close seals and closes the underlying store.
func (t *Tracer) Close() error { return t.st.Close() }

var _ tracer.Tracer = (*Tracer)(nil)
