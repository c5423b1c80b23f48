// Write path: the appender encodes its batch outside the store lock and
// writes it itself under st.mu, one WriteAt per segment stretch
// (writeLocked), as a BTrace writer records straight into its own
// block; no goroutine writes on another's behalf. A commit fsyncs the
// active file under st.mu, noting how many segments have rotated out so
// far, then waits for those finalizations only, not for the queue to go
// idle, which a steady stream of appends could put off for good. Seal
// finalization (header rewrite, preallocation trim, fsync, close,
// retention) runs on the maintenance goroutine, so rotation costs the
// append path a queue push.
//
// Durability has one rule: a sealed segment is durable once its seal
// finalizes, whatever the commit policy; the active segment is durable
// at the next commit (Sync, Seal, Close or the CommitEvery timer).
// Segment files are preallocated to SegmentBytes so that appends land in
// reserved extents instead of allocating blocks inside a journal
// transaction per extension; the seal trims the unused tail, and
// recovery treats a zero tail as the end.
//
// A failed write, commit or seal finalization latches a sticky error.
// WriteErr and Pressure read it, and closed, through atomics, so
// neither ever waits on a write or an fsync.
//
// Lock order: commitMu → st.mu → maint.mu (rotateActiveLocked enqueues;
// commit reads the rotation count). The maintenance loop releases
// maint.mu before it takes st.mu, and an appender waits on the seal
// backlog with no lock held, so there is no cycle.

package store

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// maxSealBacklog caps how many rotated segments may await finalization
// before appenders stall. An appender waits on it before writing, with
// no lock held: the maintenance goroutine needs st.mu to make progress.
const maxSealBacklog = 64

// frameMeta is what writeLocked needs of one encoded frame to fold it
// into segment metadata without re-decoding it, and where the frame
// sits in its batch's buffer. size 0 marks a row that was not framed.
type frameMeta struct {
	stamp uint64
	ts    uint64
	off   int
	size  uint32
	core  uint8
	cat   uint8
}

// Batch is a batch of events framed once — each record followed by its
// CRC tail, back to back in one buffer — for any number of appends:
// AppendBatch writes all of its frames or the rows a caller picks, so
// the replicas of one batch share a single encoding. The zero Batch is
// ready to use, and Encode reuses its buffers.
type Batch struct {
	buf      []byte
	metas    []frameMeta // one per row Encode was given
	unframed int         // rows Encode could not frame
}

// A pooled Batch is sized for a 512-event batch (the collector's cursor
// batch) of small payloads, so it rarely grows at all. The pool serves
// AppendEntries' encodings and AppendBatch's gathers, so a steady
// append path allocates nothing.
var batchPool = sync.Pool{New: func() any {
	return &Batch{buf: make([]byte, 0, 64<<10), metas: make([]frameMeta, 0, 512)}
}}

// Encode frames es, replacing the batch's contents; row i of the batch
// is es[i]. A row that cannot be framed (an oversized payload) is left
// out of every append: Framed reports it, and Encode returns the first
// such failure.
func (b *Batch) Encode(es []tracer.Entry) error {
	buf, metas := b.buf[:0], b.metas[:0]
	b.unframed = 0
	var encErr error
	for i := range es {
		e := &es[i]
		off := len(buf)
		var err error
		if buf, err = encodeFrame(buf, e); err != nil {
			encErr = cmp.Or(encErr, err)
			b.unframed++
		}
		metas = append(metas, frameMeta{
			stamp: e.Stamp,
			ts:    e.TS,
			off:   off,
			size:  uint32(len(buf) - off),
			core:  e.Core,
			cat:   e.Category,
		})
	}
	b.buf, b.metas = buf, metas
	return encErr
}

// Len returns the number of rows the batch was encoded from.
func (b *Batch) Len() int { return len(b.metas) }

// Framed reports whether row i was framed, and so can be appended.
func (b *Batch) Framed(i int) bool { return b.metas[i].size != 0 }

// Stamp returns row i's stamp.
func (b *Batch) Stamp(i int) uint64 { return b.metas[i].stamp }

// gather replaces g's contents with src's framed rows — every one when
// rows is nil, else those named, in the order given — copying their
// frames into g's buffer.
func (g *Batch) gather(src *Batch, rows []int32) {
	g.buf, g.metas, g.unframed = g.buf[:0], g.metas[:0], 0
	n := len(rows)
	if rows == nil {
		n = len(src.metas)
	}
	for k := range n {
		m := src.metas[k]
		if rows != nil {
			m = src.metas[rows[k]]
		}
		if m.size == 0 {
			continue
		}
		off := len(g.buf)
		g.buf = append(g.buf, src.buf[m.off:m.off+int(m.size)]...)
		m.off = off
		g.metas = append(g.metas, m)
	}
}

// AppendEntries appends a batch of events with one write per segment
// stretch — the bulk path the single-store ingest path and the replay
// dump use: it frames es into a pooled Batch and appends all of it. The
// batch is readable by cursors when it returns; it is durable at the
// next commit (Sync, Seal, Close or the CommitEvery timer).
//
// An entry that cannot be framed (oversized payload) is left out and
// its error returned; the rest of the batch is still written.
func (st *Store) AppendEntries(es []tracer.Entry) error {
	if len(es) == 0 {
		return nil
	}
	start := time.Now()
	b := batchPool.Get().(*Batch)
	encErr := b.Encode(es)
	err := st.appendBatch(b, nil, start)
	batchPool.Put(b)
	return cmp.Or(encErr, err)
}

// AppendBatch writes b's frames — every framed row when rows is nil,
// else the rows named, in the order given — with one WriteAt per
// segment stretch: the rows b holds as encoded when it is written whole,
// and a gather of the chosen frames into a pooled buffer otherwise. The
// rows are readable by cursors when it returns and durable at the next
// commit. A row that was not framed is skipped. b is only read, so
// concurrent AppendBatch calls, on this store or others, may share it.
func (st *Store) AppendBatch(b *Batch, rows []int32) error {
	return st.appendBatch(b, rows, time.Now())
}

// appendBatch is AppendBatch with the start of the append's latency
// supplied, so that AppendEntries' encoding counts toward it.
func (st *Store) appendBatch(b *Batch, rows []int32, start time.Time) error {
	w := b
	if rows != nil || b.unframed > 0 {
		w = batchPool.Get().(*Batch)
		defer batchPool.Put(w)
		w.gather(b, rows)
	}
	if len(w.metas) == 0 {
		return nil
	}
	if err := st.WriteErr(); err != nil {
		return err
	}
	st.maint.waitBelow(maxSealBacklog)
	st.mu.Lock()
	err := st.WriteErr()
	if err == nil {
		if err = st.writeLocked(w.buf, w.metas); err != nil {
			st.fail(err)
		}
	}
	st.mu.Unlock()
	if err == nil && st.cfg.CommitEvery > 0 && st.commitArmed.CompareAndSwap(false, true) {
		time.AfterFunc(st.cfg.CommitEvery, st.commitTick)
	}
	n := uint64(len(w.metas))
	elapsed := uint64(time.Since(start))
	st.obs.appendNs.Observe(elapsed)
	// The pressure EWMA normalizes per event: the overload gate's append
	// budget is per event, and a call's latency grows with its batch
	// size — one large append is throughput, not overload.
	st.ewmaAppend.observe(max(elapsed/n, 1))
	st.obs.batchEvents.Observe(n)
	return err
}

// sealJob hands one rotated segment to the maintenance goroutine. The
// segment is already marked sealed and its frames are fully written;
// only the header rewrite, fsync, close and retention remain.
type sealJob struct {
	seg *segment
	f   backend.File
}

// maintenance is the background seal/retention worker's queue. Jobs
// finish in the order they were enqueued, so finalized >= n means the
// first n rotations are finalized.
type maintenance struct {
	mu        sync.Mutex
	cond      sync.Cond
	queue     []sealJob
	enqueued  uint64 // rotations ever handed over
	finalized uint64 // of those, the ones finalized
	stopped   bool
}

func (m *maintenance) enqueue(j sealJob) {
	m.mu.Lock()
	m.queue = append(m.queue, j)
	m.enqueued++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// rotations returns how many rotations have been enqueued so far.
func (m *maintenance) rotations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enqueued
}

// waitFinalized blocks until the first n rotations are finalized.
func (m *maintenance) waitFinalized(n uint64) {
	m.mu.Lock()
	for m.finalized < n {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// waitIdle blocks until every enqueued seal has been finalized.
func (m *maintenance) waitIdle() { m.waitFinalized(m.rotations()) }

// waitBelow blocks until the backlog is under n jobs.
func (m *maintenance) waitBelow(n uint64) {
	m.mu.Lock()
	for m.enqueued-m.finalized >= n {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// fail latches err as the write path's sticky error; the first one wins.
func (st *Store) fail(err error) { st.werr.CompareAndSwap(nil, &err) }

// commit makes every byte written before it began durable. Under st.mu
// it fsyncs the active file and notes how many rotations precede it:
// every earlier byte is then in that file or in a segment rotated out
// before, so the commit waits for those rotations' finalizations, each
// of which fsyncs its file. Rotations after that point are the next
// commit's, so a steady stream of appends cannot hold a commit off.
// commitMu serializes commits.
func (st *Store) commit() error {
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	if err := st.WriteErr(); err != nil {
		return err
	}
	var err error
	st.mu.Lock()
	if st.active != nil {
		err = st.syncActive()
	}
	rotated := st.maint.rotations()
	st.mu.Unlock()
	st.maint.waitFinalized(rotated)
	st.obs.groupCommits.Add(1)
	if err != nil {
		st.fail(err)
	}
	// A failed finalization on the maintenance goroutine is latched
	// before it counts as done, so it is seen here.
	if p := st.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// commitTick is the CommitEvery timer callback, armed by the first
// write after the previous tick.
func (st *Store) commitTick() {
	st.commitArmed.Store(false)
	st.commit() // a failure is sticky: the next append returns it
}

// writeLocked writes one append's encoded frames to the segment files:
// the longest run of frames that fits the active segment goes out in a
// single WriteAt, rotating between runs. Called with st.mu held.
func (st *Store) writeLocked(buf []byte, metas []frameMeta) error {
	pos := 0
	for i := 0; i < len(metas); {
		seg := st.activeSeg()
		if seg == nil {
			var err error
			if seg, err = st.newSegmentLocked(); err != nil {
				return err
			}
		}
		// Take the longest run of frames that fits the active segment; a
		// frame that fits no segment on its own still goes out alone.
		runBytes := 0
		j := i
		for j < len(metas) {
			fs := int(metas[j].size)
			over := seg.size+int64(runBytes+fs) > st.cfg.SegmentBytes
			if over && (seg.meta.count > 0 || runBytes > 0) {
				break
			}
			runBytes += fs
			j++
		}
		if runBytes == 0 {
			// Nothing fit: rotate and retry the same frame.
			st.rotateActiveLocked()
			continue
		}
		n, err := st.active.WriteAt(buf[pos:pos+runBytes], seg.size)
		if n < runBytes {
			// Torn in-process write: cut the partial frame immediately so
			// readers (and a later reopen) only ever see whole frames.
			st.active.Truncate(seg.size)
			if err == nil {
				err = fmt.Errorf("store: short write (%d of %d bytes)", n, runBytes)
			}
			return err
		}
		t := &st.tiers[seg.tier]
		t.bytes += int64(runBytes)
		t.events += uint64(j - i)
		off := seg.size
		for ; i < j; i++ {
			m := &metas[i]
			if seg.meta.count%indexStride == 0 {
				seg.sparse = append(seg.sparse, indexEntry{stamp: m.stamp, off: off})
			}
			seg.meta.observe(m.stamp, m.ts, m.core, m.cat)
			off += int64(m.size)
			st.stats.Appends++
			st.stats.BytesAppended += uint64(m.size)
		}
		pos += runBytes
		seg.size = off
		seg.rawSize = off
		if seg.size >= st.cfg.SegmentBytes {
			st.rotateActiveLocked()
		}
	}
	st.publishObsLocked()
	return nil
}

// rotateActiveLocked retires the active segment from the write path:
// mark it sealed (it will never grow again, and cursors may treat its
// size as final) and hand the header rewrite + fsync + close + retention
// to the maintenance goroutine. Called with st.mu held.
func (st *Store) rotateActiveLocked() {
	seg := st.activeSeg()
	if seg == nil {
		return
	}
	f := st.active
	st.active = nil
	seg.sealed = true
	st.stats.Seals++
	st.maint.enqueue(sealJob{seg: seg, f: f})
}

// maintLoop finalizes rotated segments off the append path.
func (st *Store) maintLoop() {
	defer st.maintWG.Done()
	m := &st.maint
	m.mu.Lock()
	for {
		for len(m.queue) == 0 && !m.stopped {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		job := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		if err := st.finalizeSeal(job); err != nil {
			st.fail(err)
		}
		m.mu.Lock()
		m.finalized++
		m.cond.Broadcast()
	}
}

// finalizeSeal completes one rotation: rewrite the header with the real
// metadata, trim the preallocated tail, fsync and close the file and run
// retention. Once it returns the segment is durable.
func (st *Store) finalizeSeal(j sealJob) error {
	hdr := make([]byte, headerSize)
	// The metadata is final once sealed, but it was written under st.mu;
	// snapshot it under the same lock for the race detector's benefit.
	st.mu.Lock()
	encodeHeader(hdr, &j.seg.meta, j.seg.coversThrough, true)
	size := j.seg.size
	st.mu.Unlock()
	var err error
	if _, werr := j.f.WriteAt(hdr, 0); werr != nil {
		err = werr
	}
	if terr := j.f.Truncate(size); err == nil && terr != nil {
		err = terr
	}
	// The contents are final: latch the backend seal (the object
	// backend's put-on-seal commit; a write-bug tripwire on local).
	if serr := j.f.Seal(); err == nil && serr != nil {
		err = serr
	}
	start := time.Now()
	serr := j.f.Sync()
	st.noteFsync(uint64(time.Since(start)))
	if err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	st.mu.Lock()
	st.enforceRetentionLocked()
	st.publishObsLocked()
	st.mu.Unlock()
	return err
}

// stopMaintenance drains the maintenance queue and joins the goroutine.
// Must only be called once the store is marked closed (nothing may
// enqueue concurrently).
func (st *Store) stopMaintenance() {
	m := &st.maint
	m.mu.Lock()
	m.stopped = true
	m.cond.Broadcast()
	m.mu.Unlock()
	st.maintWG.Wait()
}
