package btrace

import (
	"fmt"
	"iter"
	"sync/atomic"
	"time"

	"btrace/internal/core"
	"btrace/internal/tracer"
)

// Proc is the execution-context abstraction producers write under: it
// names the current core and exposes the preemption points simulated
// schedulers hook. Library users normally use Tracer.Writer, which
// supplies a fixed Proc; integrations with custom schedulers (see
// internal/sim) may implement Proc themselves.
type Proc = tracer.Proc

// Event is a trace event: the Stamp, Core, and TID fields are assigned
// by the tracer at write time and reported on read; TS, Category, Level,
// and Payload are caller-provided. It is an alias of the internal wire
// entry, so slices returned by the read path are the decoder's output
// with no per-event conversion or copy.
type Event = tracer.Entry

// MaxPayload is the largest payload a single event may carry.
const MaxPayload = tracer.MaxPayload

// Config configures Open.
type Config struct {
	// Cores is the number of cores (or stable shard ids) that will
	// produce traces. Required.
	Cores int
	// BufferBytes is the tracing buffer capacity. Required.
	BufferBytes int
	// MaxBufferBytes reserves address space for growth via Resize; it
	// defaults to BufferBytes (no growth headroom). The paper reserves
	// the maximum size up front and maps/unmaps physical memory (§4.4).
	MaxBufferBytes int
	// BlockSize is the data block size (default 4 KiB, the paper's
	// choice).
	BlockSize int
	// ActivePerCore sets the number of active blocks per core (A =
	// ActivePerCore x Cores); default 16, the §5.1 sweet spot.
	ActivePerCore int
	// StampBatch makes each Writer reserve logic stamps in ranges of
	// this size with a single atomic add, instead of one contended add
	// per write. Stamps stay globally unique and strictly increasing per
	// Writer, but writes by different Writers may commit with
	// out-of-order stamps, so global stamp order no longer matches
	// cross-thread write order. Leave at 0 or 1 (the default, one add
	// per write) when consumers rely on global stamp order — Poll's
	// missed accounting does.
	StampBatch int
	// PoisonOnReclaim overwrites memory reclaimed by a shrink with a
	// poison pattern, turning use-after-reclaim bugs into loud decode
	// failures. Intended for tests.
	PoisonOnReclaim bool
	// DisableStats opts this tracer out of the self-observability layer:
	// no counters are registered and nothing appears in Metrics(). The
	// record fast path is identical either way (event counting rides the
	// confirmation CAS the protocol already performs — see the package
	// doc of internal/core); this exists for baseline measurements and
	// for embedders that want zero metrics surface.
	DisableStats bool
}

// Tracer is an open BTrace instance.
type Tracer struct {
	buf        *core.Buffer
	stamp      atomic.Uint64
	stampBatch uint64
	epoch      time.Time
	filterState
}

// Open creates a tracer.
func Open(cfg Config) (*Tracer, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("btrace: Cores must be positive")
	}
	if cfg.BufferBytes <= 0 {
		return nil, fmt.Errorf("btrace: BufferBytes must be positive")
	}
	if cfg.MaxBufferBytes == 0 {
		cfg.MaxBufferBytes = cfg.BufferBytes
	}
	if cfg.MaxBufferBytes < cfg.BufferBytes {
		return nil, fmt.Errorf("btrace: MaxBufferBytes (%d) < BufferBytes (%d)",
			cfg.MaxBufferBytes, cfg.BufferBytes)
	}
	if cfg.StampBatch < 0 {
		return nil, fmt.Errorf("btrace: StampBatch must be non-negative")
	}
	opt, err := core.OptionsForBudget(cfg.BufferBytes, cfg.Cores, cfg.BlockSize, cfg.ActivePerCore)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBufferBytes > cfg.BufferBytes {
		maxRatio := cfg.MaxBufferBytes / (opt.ActiveBlocks * opt.BlockSize)
		if maxRatio > opt.Ratio {
			opt.MaxRatio = maxRatio
		}
	}
	opt.PoisonOnReclaim = cfg.PoisonOnReclaim
	opt.DisableStats = cfg.DisableStats
	buf, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	sb := uint64(cfg.StampBatch)
	if sb == 0 {
		sb = 1
	}
	return &Tracer{buf: buf, stampBatch: sb, epoch: time.Now()}, nil
}

// Capacity returns the current live buffer capacity in bytes.
func (t *Tracer) Capacity() int { return t.buf.Capacity() }

// MaxEntryPayload returns the largest payload Write accepts under the
// configured block size.
func (t *Tracer) MaxEntryPayload() int { return t.buf.MaxEntryPayload() }

// Resize changes the buffer capacity to approximately bytes (rounded down
// to a whole number of block rounds, minimum one). Growing is immediate;
// shrinking blocks until the reclaimed memory is provably unreachable by
// producers (implicit reclaiming, §3.3) and consumers (epoch-based
// reclamation, §4.4), without adding any synchronization to the producer
// fast path.
func (t *Tracer) Resize(bytes int) error {
	opt := t.buf.Options()
	perRound := opt.ActiveBlocks * opt.BlockSize
	ratio := bytes / perRound
	if ratio < 1 {
		ratio = 1
	}
	if ratio > opt.MaxRatio {
		return fmt.Errorf("btrace: %d B exceeds reserved maximum %d B", bytes, opt.MaxRatio*perRound)
	}
	return t.buf.Resize(ratio)
}

// Stats returns a snapshot of internal counters.
func (t *Tracer) Stats() tracer.Stats { return t.buf.Stats() }

// BlocksAcquired returns, per core, how many data blocks each core has
// drawn from the shared pool — the observable form of the dynamic block
// assignment in the paper's title: demanding cores acquire proportionally
// more blocks.
func (t *Tracer) BlocksAcquired() []uint64 { return t.buf.BlocksAcquired() }

// Reset discards all recorded events. It must not run concurrently with
// writers.
func (t *Tracer) Reset() { t.buf.Reset() }

// Writer returns a write handle for a thread running on the given core.
// The Writer is not safe for concurrent use; create one per thread (they
// are small and allocation-free to use).
func (t *Tracer) Writer(core, tid int) (*Writer, error) {
	if core < 0 || core >= t.buf.Options().Cores {
		return nil, fmt.Errorf("btrace: core %d out of range [0,%d)", core, t.buf.Options().Cores)
	}
	return &Writer{t: t, proc: tracer.FixedProc{CoreID: core, TID: tid}}, nil
}

// Writer is a per-thread write handle. With Config.StampBatch > 1 it
// holds the thread's current reservation of logic stamps.
type Writer struct {
	t    *Tracer
	proc tracer.FixedProc
	// nextStamp..endStamp (inclusive) is the unconsumed remainder of the
	// Writer's stamp reservation; empty when nextStamp > endStamp.
	nextStamp uint64
	endStamp  uint64
}

// takeStamp returns the Writer's next logic stamp, reserving a fresh
// range of StampBatch stamps with one atomic add when the current
// reservation is exhausted. With StampBatch == 1 this is exactly one add
// per write — the globally ordered default.
func (w *Writer) takeStamp() uint64 {
	if w.nextStamp > w.endStamp || w.nextStamp == 0 {
		n := w.t.stampBatch
		hi := w.t.stamp.Add(n)
		w.nextStamp, w.endStamp = hi-n+1, hi
	}
	s := w.nextStamp
	w.nextStamp++
	return s
}

// Write records e. The event receives the Writer's next logic stamp; the
// write is wait-free with respect to other threads except for the bounded
// block-advancement slow path.
func (w *Writer) Write(e Event) error {
	t := w.t
	if f := unpackFilter(t.filter.Load()); !f.Allows(e.Category, e.Level) {
		t.filtered.Add(1)
		return nil
	}
	return t.writeStamped(&w.proc, &e, w.takeStamp())
}

// WriteNow records e with TS set to the tracer's monotonic clock (nanoseconds
// since Open), the convenient form for live instrumentation; use Write when
// the caller supplies its own timebase.
func (w *Writer) WriteNow(e Event) error {
	e.TS = uint64(time.Since(w.t.epoch).Nanoseconds())
	return w.Write(e)
}

// WriteProc records e under an explicit execution context; simulated
// schedulers use this to inject preemption at the algorithm's preemption
// points. It always allocates the stamp with a single global add
// (StampBatch applies only to Writers, which can hold a reservation).
func (t *Tracer) WriteProc(p Proc, e Event) error {
	if f := unpackFilter(t.filter.Load()); !f.Allows(e.Category, e.Level) {
		t.filtered.Add(1)
		return nil
	}
	return t.writeStamped(p, &e, t.stamp.Add(1))
}

// writeStamped stamps e with the tracer-assigned fields and records it.
func (t *Tracer) writeStamped(p Proc, e *Event, stamp uint64) error {
	e.Stamp = stamp
	e.Core = uint8(p.Core())
	e.TID = uint32(p.Thread()) & 0xFFFFFF
	return t.buf.Write(p, e)
}

// Reader is a registered consumer. Reads never block producers; a block
// being overwritten during a read is detected and dropped (§4.3).
//
// Next is the streaming batch API (arena-backed, allocation-free at
// steady state); Snapshot and Poll are one-shot wrappers returning
// caller-owned slices. A Reader is not safe for concurrent use.
type Reader struct {
	buf *core.Buffer
	r   *core.Reader
	cur *core.Cursor
}

// NewReader registers a consumer.
func (t *Tracer) NewReader() *Reader {
	return &Reader{buf: t.buf, r: t.buf.NewReader()}
}

// Close unregisters the reader.
func (r *Reader) Close() {
	r.r.Close()
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
}

// Next fills batch with up to len(batch) events recorded since the
// previous call (oldest first by logic stamp) and returns the count and
// how many events were lost to overwrite in between. n == 0 means no new
// events are currently available. The filled events — including their
// Payload slices, which point into a reused decode arena — are valid
// only until the next call to Next or Close; copy what must be retained.
func (r *Reader) Next(batch []Event) (n int, missed uint64, err error) {
	if r.cur == nil {
		r.cur = r.buf.NewCursor()
	}
	return r.cur.Next(batch)
}

// Events returns a Go iterator over the events recorded after the
// iterator starts draining, reading through batch (which must be
// non-empty and sizes each underlying read). The yielded *Event is
// borrowed per the Next contract: valid only for that iteration step.
func (r *Reader) Events(batch []Event) iter.Seq2[*Event, error] {
	if r.cur == nil {
		r.cur = r.buf.NewCursor()
	}
	return tracer.Events(r.cur, batch)
}

// Snapshot returns every currently recoverable event, oldest first by
// logic stamp. The slice and its payloads are freshly allocated and
// owned by the caller.
func (r *Reader) Snapshot() []Event {
	es, _ := r.r.Snapshot()
	return es
}

// Poll returns the events recorded since the previous Poll (oldest
// first) and how many were lost to overwrite in between — the incremental
// mode a collector daemon uses to follow a live trace without ever
// blocking producers. The slice is freshly allocated and caller-owned;
// steady-state collectors should prefer Next, which reuses its arena.
//
// Poll drains the same cursor Next and Events read through, so the three
// share one delivery watermark.
func (r *Reader) Poll() (events []Event, missed uint64) {
	batch := make([]Event, 1024)
	for {
		n, m, _ := r.Next(batch)
		events, missed = tracer.CloneEntries(events, batch[:n]), missed+m
		if n < len(batch) {
			return events, missed
		}
	}
}
