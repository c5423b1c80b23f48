// Package vtrace implements the per-thread baseline tracer modeled on
// VampirTrace: every producing thread owns a private buffer carved out of
// the shared total budget, and events are materialized in VampirTrace's
// verbose ASCII OTF record format.
//
// Per-thread buffers need no synchronization at all on the write path, but
// with the thousands of short-lived threads a smartphone runs, the budget
// fragments into slivers: worst-case utilization is 1/T (Table 1) and the
// measured latest fragment is the smallest of all tracers (Table 2,
// average 0.3 MB of 12 MB). The per-event ASCII formatting — OTF is a
// text format — is also the dominant recording cost, giving VTrace the
// second-highest latency in the paper's evaluation.
//
// Contract: it passes the tracer conformance suite (TestConformance),
// fragments per thread (TestPerThreadFragmentation), and materialises
// buffers per thread within the budget (TestManyThreadsLazyAllocation).
package vtrace

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"btrace/internal/tracer"
)

// TracerName is the registry name of the VampirTrace baseline.
const TracerName = "vtrace"

const defaultPageSize = 4096

// page is one ring page of a thread buffer.
type page struct {
	data   []byte
	filled int
	seq    uint64
}

// threadBuf is one thread's private ring. Only its owner thread writes it;
// ReadAll synchronizes through the tracer's registry lock plus quiescence.
type threadBuf struct {
	pages []page
	cur   int
	seq   uint64
	// otfScratch is the reusable ASCII formatting buffer.
	otfScratch []byte
}

// Tracer is the per-thread VampirTrace-like tracer.
type Tracer struct {
	perThread int
	pageSize  int

	mu   sync.Mutex
	bufs map[int]*threadBuf

	writes       atomic.Uint64
	bytesWritten atomic.Uint64
	otfBytes     atomic.Uint64
	overwritten  atomic.Uint64
}

// New creates a tracer whose total budget is divided among maxThreads
// per-thread buffers (the reservation a per-thread tracer must make up
// front). Buffers materialize lazily on a thread's first write.
func New(totalBytes, maxThreads, pageSize int) (*Tracer, error) {
	if pageSize == 0 {
		pageSize = defaultPageSize
	}
	if maxThreads <= 0 {
		return nil, fmt.Errorf("vtrace: maxThreads must be positive, got %d", maxThreads)
	}
	if pageSize < 64 || pageSize%tracer.Align != 0 {
		return nil, fmt.Errorf("vtrace: invalid page size %d", pageSize)
	}
	per := totalBytes / maxThreads
	if per < pageSize {
		// Threads get at least one page; with very high thread counts the
		// real VampirTrace would simply run out of memory, which we model
		// by shrinking to a single page per thread.
		per = pageSize
	}
	return &Tracer{perThread: per, pageSize: pageSize, bufs: map[int]*threadBuf{}}, nil
}

// Name implements tracer.Tracer.
func (t *Tracer) Name() string { return TracerName }

// TotalBytes implements tracer.Tracer.
func (t *Tracer) TotalBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perThread * max(1, len(t.bufs))
}

// Stats implements tracer.Tracer.
func (t *Tracer) Stats() tracer.Stats {
	return tracer.Stats{
		Writes:       t.writes.Load(),
		BytesWritten: t.bytesWritten.Load(),
		Overwritten:  t.overwritten.Load(),
	}
}

// OTFBytes returns the total ASCII OTF bytes formatted — the footprint the
// binary entries would occupy in VampirTrace's real on-disk format.
func (t *Tracer) OTFBytes() uint64 { return t.otfBytes.Load() }

// Reset implements tracer.Tracer.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.bufs = map[int]*threadBuf{}
	t.mu.Unlock()
	t.writes.Store(0)
	t.bytesWritten.Store(0)
	t.otfBytes.Store(0)
	t.overwritten.Store(0)
}

// buf returns (creating if needed) the calling thread's buffer.
func (t *Tracer) buf(tid int) *threadBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.bufs[tid]
	if !ok {
		nPages := t.perThread / t.pageSize
		if nPages < 1 {
			nPages = 1
		}
		b = &threadBuf{pages: make([]page, nPages)}
		for i := range b.pages {
			b.pages[i].data = make([]byte, t.pageSize)
		}
		t.bufs[tid] = b
	}
	return b
}

// formatOTF renders the event in an OTF-like ASCII record, the per-event
// work VampirTrace actually performs. The returned length determines the
// record's footprint in the thread buffer.
func formatOTF(dst []byte, e *tracer.Entry) []byte {
	dst = dst[:0]
	dst = append(dst, "E:"...)
	dst = strconv.AppendUint(dst, e.TS, 10)
	dst = append(dst, ";P:"...)
	dst = strconv.AppendUint(dst, uint64(e.Core), 10)
	dst = append(dst, ";T:"...)
	dst = strconv.AppendUint(dst, uint64(e.TID), 10)
	dst = append(dst, ";F:"...)
	dst = strconv.AppendUint(dst, uint64(e.Category), 16)
	dst = append(dst, ";L:"...)
	dst = strconv.AppendUint(dst, uint64(e.Level), 10)
	dst = append(dst, ";S:"...)
	dst = strconv.AppendUint(dst, e.Stamp, 10)
	dst = append(dst, ";D:"...)
	// OTF hex-encodes binary payloads.
	const hexdigits = "0123456789abcdef"
	for _, b := range e.Payload {
		dst = append(dst, hexdigits[b>>4], hexdigits[b&0xf])
	}
	dst = append(dst, '\n')
	return dst
}

// Write implements tracer.Tracer: an unsynchronized append to the calling
// thread's private ring. The record occupies the footprint of its ASCII
// OTF rendering (at least the binary wire size), so retention honestly
// reflects the format's verbosity.
func (t *Tracer) Write(p tracer.Proc, e *tracer.Entry) error {
	b := t.buf(p.Thread())
	b.otfScratch = formatOTF(b.otfScratch, e)
	t.otfBytes.Add(uint64(len(b.otfScratch)))

	wire := e.WireSize()
	size := (len(b.otfScratch) + tracer.Align - 1) / tracer.Align * tracer.Align
	if size < wire {
		size = wire
	}
	if size > t.pageSize {
		return fmt.Errorf("%w: record %d B, page %d B", tracer.ErrTooLarge, size, t.pageSize)
	}
	pg := &b.pages[b.cur]
	if pg.filled+size > t.pageSize {
		b.seq++
		b.cur = (b.cur + 1) % len(b.pages)
		pg = &b.pages[b.cur]
		if pg.filled > 0 {
			recs, _ := tracer.DecodeAll(pg.data[:pg.filled])
			n := 0
			for _, rec := range recs {
				if rec.Kind == tracer.KindEvent {
					n++
				}
			}
			t.overwritten.Add(uint64(n))
		}
		pg.filled = 0
		pg.seq = b.seq
	}
	// Store the binary record followed by dummy padding up to the OTF
	// footprint, so the decoder can recover the event while occupancy
	// matches the ASCII format.
	if _, err := tracer.EncodeEvent(pg.data[pg.filled:pg.filled+wire], e); err != nil {
		return err
	}
	if size > wire {
		tracer.EncodeDummy(pg.data[pg.filled+wire:pg.filled+size], size-wire)
	}
	pg.filled += size
	t.writes.Add(1)
	t.bytesWritten.Add(uint64(size))
	return nil
}

// ReadAll implements tracer.Tracer: a quiescent snapshot merging all
// thread buffers, ordered by logic stamp.
func (t *Tracer) ReadAll() ([]tracer.Entry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []tracer.Entry
	for _, b := range t.bufs {
		idxs := make([]int, 0, len(b.pages))
		for i := range b.pages {
			if b.pages[i].filled > 0 {
				idxs = append(idxs, i)
			}
		}
		sort.Slice(idxs, func(x, y int) bool { return b.pages[idxs[x]].seq < b.pages[idxs[y]].seq })
		for _, i := range idxs {
			pg := &b.pages[i]
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
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func init() {
	tracer.Register(TracerName, func(totalBytes, cores, threads int) (tracer.Tracer, error) {
		if threads <= 0 {
			threads = cores
		}
		return New(totalBytes, threads, 0)
	})
}

// NewCursor implements tracer.Tracer. vtrace's read path is a
// quiescent snapshot, so the generic stamp-resume adapter applies.
func (t *Tracer) NewCursor() tracer.Cursor { return tracer.NewSnapshotCursor(t.ReadAll) }
