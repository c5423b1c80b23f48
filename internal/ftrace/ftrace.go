// Package ftrace implements the per-core baseline tracer modeled on the
// Linux kernel's ftrace ring buffer (kernel/trace/ring_buffer.c).
//
// Each core owns a private ring of pages. A writer first disables
// preemption (in the kernel this guarantees no other thread can run on the
// core mid-write; here the Proc provides the same guarantee and a spinlock
// backstops direct library use), then appends the event to the core's
// current page, encoding the timestamp as a delta from the page's previous
// event the way ftrace does. When a page fills, the writer moves to the
// next page of the ring, overwriting the oldest page wholesale.
//
// The per-core design gives low, uncontended latency, but utilization is
// 1/C in the worst case and skewed per-core production speeds fragment the
// retained trace (§2.2 Observation 2, Fig. 5) — the weaknesses BTrace is
// built to fix.
//
// Contract: it passes the tracer conformance suite (TestConformance),
// keeps cores isolated (TestPerCoreIsolation), and holds preemption off
// for the duration of a write (TestPreemptionDisabledDuringWrite).
package ftrace

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"btrace/internal/tracer"
)

// TracerName is the registry name of the ftrace baseline.
const TracerName = "ftrace"

const (
	defaultPageSize = 4096
	// maxTSDelta is the largest timestamp delta representable without an
	// extend record (27 bits, as in the ftrace ring buffer format).
	maxTSDelta = 1<<27 - 1
	// extendRecordSize models ftrace's RINGBUF_TYPE_TIME_EXTEND record.
	extendRecordSize = 8
)

// page is one ring page with its fill state.
type page struct {
	data []byte
	// filled is how many bytes of data hold valid records.
	filled int
	// events counts the event records in the page, so rotation can
	// account overwritten events without re-parsing (real ftrace keeps
	// the same per-page counter).
	events int
	// seq is the global fill sequence; higher seq pages are newer.
	seq uint64
	// firstTS is the absolute timestamp base for the page's deltas.
	firstTS uint64
}

// ring is one core's page ring. All fields are guarded by lock.
type ring struct {
	lock    atomic.Bool // spinlock (preemption is disabled while held)
	pages   []page
	cur     int
	seq     uint64
	lastTS  uint64
	extends uint64
	_       [4]uint64
}

func (r *ring) acquire() {
	for !r.lock.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

func (r *ring) release() { r.lock.Store(false) }

// Tracer is the per-core ftrace-like tracer.
type Tracer struct {
	pageSize int
	rings    []*ring

	writes       atomic.Uint64
	bytesWritten atomic.Uint64
	overwritten  atomic.Uint64
	dummyBytes   atomic.Uint64
}

// New creates a tracer with the total budget split evenly across cores,
// each core's share divided into pages of pageSize (0 selects 4 KiB).
func New(totalBytes, cores, pageSize int) (*Tracer, error) {
	if pageSize == 0 {
		pageSize = defaultPageSize
	}
	if cores <= 0 {
		return nil, fmt.Errorf("ftrace: cores must be positive, got %d", cores)
	}
	if pageSize < 64 || pageSize%tracer.Align != 0 {
		return nil, fmt.Errorf("ftrace: invalid page size %d", pageSize)
	}
	perCore := totalBytes / cores
	nPages := perCore / pageSize
	if nPages < 2 {
		return nil, fmt.Errorf("ftrace: budget %d B gives %d pages/core of %d B, need >= 2",
			totalBytes, nPages, pageSize)
	}
	t := &Tracer{pageSize: pageSize, rings: make([]*ring, cores)}
	for c := range t.rings {
		r := &ring{pages: make([]page, nPages)}
		for i := range r.pages {
			r.pages[i].data = make([]byte, pageSize)
		}
		t.rings[c] = r
	}
	return t, nil
}

// Name implements tracer.Tracer.
func (t *Tracer) Name() string { return TracerName }

// TotalBytes implements tracer.Tracer.
func (t *Tracer) TotalBytes() int {
	return len(t.rings) * len(t.rings[0].pages) * t.pageSize
}

// Stats implements tracer.Tracer.
func (t *Tracer) Stats() tracer.Stats {
	return tracer.Stats{
		Writes:       t.writes.Load(),
		BytesWritten: t.bytesWritten.Load(),
		Overwritten:  t.overwritten.Load(),
		DummyBytes:   t.dummyBytes.Load(),
	}
}

// Reset implements tracer.Tracer.
func (t *Tracer) Reset() {
	for _, r := range t.rings {
		r.acquire()
		for i := range r.pages {
			r.pages[i].filled = 0
			r.pages[i].events = 0
			r.pages[i].seq = 0
		}
		r.cur, r.seq, r.lastTS, r.extends = 0, 0, 0, 0
		r.release()
	}
	t.writes.Store(0)
	t.bytesWritten.Store(0)
	t.overwritten.Store(0)
	t.dummyBytes.Store(0)
}

// Write implements tracer.Tracer: preemption-disabled append to the
// calling core's ring.
func (t *Tracer) Write(p tracer.Proc, e *tracer.Entry) error {
	size := e.WireSize()
	if size > t.pageSize {
		return fmt.Errorf("%w: entry %d B, page %d B", tracer.ErrTooLarge, size, t.pageSize)
	}
	restore := p.DisablePreemption()
	defer restore()
	r := t.rings[p.Core()]
	r.acquire()
	defer r.release()

	pg := &r.pages[r.cur]
	// Timestamp delta handling, as the ftrace format does: deltas beyond
	// 27 bits require an extend record before the event.
	delta := e.TS - r.lastTS
	need := size
	if delta > maxTSDelta {
		need += extendRecordSize
	}
	if pg.filled+need > t.pageSize {
		t.rotate(r)
		pg = &r.pages[r.cur]
		// A fresh page stores an absolute base, no extend needed.
		pg.firstTS = e.TS
		delta = 0
		need = size
	}
	if delta > maxTSDelta {
		// Model the extend record with a dummy.
		tracer.EncodeDummy(pg.data[pg.filled:pg.filled+extendRecordSize], extendRecordSize)
		pg.filled += extendRecordSize
		t.dummyBytes.Add(extendRecordSize)
		r.extends++
	}
	if _, err := tracer.EncodeEvent(pg.data[pg.filled:pg.filled+size], e); err != nil {
		return err
	}
	pg.filled += size
	pg.events++
	r.lastTS = e.TS
	t.writes.Add(1)
	t.bytesWritten.Add(uint64(size))
	return nil
}

// rotate advances the ring to the next page, discarding its old content
// (overwrite-oldest, page granularity).
func (t *Tracer) rotate(r *ring) {
	r.seq++
	r.cur = (r.cur + 1) % len(r.pages)
	pg := &r.pages[r.cur]
	if pg.events > 0 {
		t.overwritten.Add(uint64(pg.events))
	}
	pg.filled = 0
	pg.events = 0
	pg.seq = r.seq
}

// ReadAll implements tracer.Tracer: a quiescent snapshot merging all
// per-core rings, ordered by logic stamp.
func (t *Tracer) ReadAll() ([]tracer.Entry, error) {
	var out []tracer.Entry
	for _, r := range t.rings {
		r.acquire()
		idxs := make([]int, 0, len(r.pages))
		for i := range r.pages {
			if r.pages[i].filled > 0 {
				idxs = append(idxs, i)
			}
		}
		sort.Slice(idxs, func(a, b int) bool { return r.pages[idxs[a]].seq < r.pages[idxs[b]].seq })
		for _, i := range idxs {
			pg := &r.pages[i]
			recs, _ := tracer.DecodeAll(pg.data[:pg.filled])
			for _, rec := range recs {
				if rec.Kind == tracer.KindEvent {
					ev := rec.Event
					if ev.Payload != nil {
						ev.Payload = append([]byte(nil), ev.Payload...)
					}
					out = append(out, ev)
				}
			}
		}
		r.release()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out, nil
}

func init() {
	tracer.Register(TracerName, func(totalBytes, cores, threads int) (tracer.Tracer, error) {
		return New(totalBytes, cores, 0)
	})
}

// NewCursor implements tracer.Tracer. ftrace's read path is a
// quiescent snapshot, so the generic stamp-resume adapter applies.
func (t *Tracer) NewCursor() tracer.Cursor { return tracer.NewSnapshotCursor(t.ReadAll) }
