// Write pipeline: the staging arena, the dedicated writer goroutine and
// the background maintenance goroutine that together take the write
// syscall, fsync and retention off the producers' critical path.
//
// Producers (Append/AppendEntries) encode frames into a double-buffered
// staging arena under a short lock and wait for the writer to apply
// them — visibility still means "readable by cursors" — while the
// writer goroutine swaps the arena out (producers refill the spare
// immediately) and drains it with one WriteAt per segment stretch.
// Durability is a group commit: one fsync covers every byte applied
// since the previous commit window. Sync callers and CommitEvery ticks
// piggyback on the same fsync instead of paying one each. Seal
// finalization — header rewrite, preallocation trim, retention — runs
// on the maintenance goroutine, so rotation costs the append path
// nothing but a queue push; the sealed file's own fsync is deferred to
// the next commit window too (parked, bounded by maxParkedSeals), so a
// store with no durability demand pays no fsync at all in steady state.
//
// Lock order: the writer takes pipe.mu, releases it, then takes st.mu
// (writeChunk) — never both. rotateActiveLocked enqueues under st.mu →
// maint.mu; the maintenance loop releases maint.mu before taking st.mu,
// so there is no cycle.
package store

import (
	"fmt"
	"sync"
	"time"

	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// maxSealBacklog caps how many rotated segments may await finalization
// before the writer stalls. It bounds the maintenance queue without
// ever making a producer wait on it directly (the writer waits, between
// chunks, with no locks held).
const maxSealBacklog = 64

// maxParkedSeals caps how many sealed files may sit with their fsync
// deferred to the next commit window. Past the cap the maintenance
// goroutine drains them itself, so the window of sealed-but-not-durable
// data stays bounded even when no commit policy is configured.
const maxParkedSeals = 64

// maxStagedBytes bounds the staging arena: producers block once this
// many encoded bytes await the writer goroutine.
const maxStagedBytes = 8 << 20

// parkedSeal is a sealed segment file awaiting its deferred fsync.
type parkedSeal struct {
	seg *segment
	f   backend.File
}

// stagedEntry is the per-frame metadata the writer needs to fold a
// staged frame into segment metadata without re-decoding it.
type stagedEntry struct {
	stamp uint64
	ts    uint64
	size  uint32
	core  uint8
	cat   uint8
}

// pipeline is the staging half of the write path. All fields are
// guarded by mu.
type pipeline struct {
	mu    sync.Mutex
	cond  sync.Cond // producers and waiters: tickets advanced / space freed
	wcond sync.Cond // writer: work arrived

	// buf/metas is the arena producers stage into; spare* is the drained
	// pair the writer hands back after each swap (double buffering).
	buf        []byte
	metas      []stagedEntry
	spareBuf   []byte
	spareMetas []stagedEntry

	// Tickets. Each staged batch takes staged+1; a batch is visible once
	// written >= its ticket and durable once synced >= its ticket.
	staged  uint64
	written uint64
	synced  uint64

	syncWant   uint64 // newest ticket a Sync caller demands durability for
	forceSync  bool   // Sync(): run a commit even with no new bytes
	flushNow   bool   // CommitEvery timer fired with bytes outstanding
	timerArmed bool
	unsynced   int64 // bytes applied since the last group commit

	sealReqs  uint64 // rotations requested by Seal()
	sealsDone uint64

	err    error // sticky write-path failure; fails all later appends
	closed bool
}

// appendPipelined is the producer side of the write path: encode es
// into the staging arena under pipe.mu, wake the writer, and block until
// the batch is applied.
//
// An entry that cannot encode (oversized payload) fails the batch at
// that entry; the frames staged before it still go out, matching the
// historical partial-batch semantics.
func (st *Store) appendPipelined(es []tracer.Entry) error {
	if len(es) == 0 {
		return nil
	}
	start := time.Now()
	p := &st.pipe
	p.mu.Lock()
	for len(p.buf) >= maxStagedBytes && p.err == nil && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	var encErr error
	staged := 0
	for i := range es {
		var err error
		if p.buf, err = encodeFrame(p.buf, &es[i]); err != nil {
			encErr = err
			break
		}
		p.metas = append(p.metas, stagedEntry{
			stamp: es[i].Stamp,
			ts:    es[i].TS,
			size:  uint32(FrameSize(&es[i])),
			core:  es[i].Core,
			cat:   es[i].Category,
		})
		staged++
	}
	if staged == 0 {
		p.mu.Unlock()
		return encErr
	}
	p.staged++
	t := p.staged
	st.obs.stagedBytes.Set(int64(len(p.buf)))
	p.wcond.Signal()
	var err error
	for p.written < t && p.err == nil {
		p.cond.Wait()
	}
	if p.written < t {
		err = p.err
	}
	p.mu.Unlock()
	elapsed := uint64(time.Since(start))
	st.obs.appendNs.Observe(elapsed)
	// The pressure EWMA normalizes per event: the overload gate's append
	// budget is per event, and a call's latency grows with its batch
	// size — one large AppendEntries is throughput, not overload.
	if n := uint64(len(es)); n > 0 {
		per := elapsed / n
		if per == 0 {
			per = 1
		}
		st.ewmaAppend.observe(per)
	}
	st.obs.batchEvents.Observe(uint64(len(es)))
	if encErr != nil {
		return encErr
	}
	return err
}

// sealJob hands one rotated segment to the maintenance goroutine. The
// segment is already marked sealed and its frames are fully written;
// only the header rewrite, fsync, close and retention remain.
type sealJob struct {
	seg *segment
	f   backend.File
}

// maintenance is the background seal/retention worker's queue.
type maintenance struct {
	mu      sync.Mutex
	cond    sync.Cond
	queue   []sealJob
	pending int // queued jobs plus the one mid-finalize
	err     error
	stopped bool
}

func (m *maintenance) enqueue(j sealJob) {
	m.mu.Lock()
	m.queue = append(m.queue, j)
	m.pending++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// waitIdle blocks until every enqueued seal has been finalized.
func (m *maintenance) waitIdle() {
	m.mu.Lock()
	for m.pending > 0 {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// waitBelow blocks until the backlog is under n jobs.
func (m *maintenance) waitBelow(n int) {
	m.mu.Lock()
	for m.pending >= n {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

func (m *maintenance) firstErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

func (m *maintenance) clearErr() {
	m.mu.Lock()
	m.err = nil
	m.mu.Unlock()
}

// startPipeline wires the condition variables and launches the writer
// and maintenance goroutines. Called by Open after the directory lock
// is held and before recovery (the goroutines idle until work arrives,
// so recovery's lock-free segment mutation cannot race them).
func (st *Store) startPipeline() {
	st.pipe.cond.L = &st.pipe.mu
	st.pipe.wcond.L = &st.pipe.mu
	st.maint.cond.L = &st.maint.mu
	st.writerWG.Add(1)
	st.maintWG.Add(1)
	go st.writerLoop()
	go st.maintLoop()
}

// hasWorkLocked reports whether the writer has anything to do. Called
// with pipe.mu held.
func (st *Store) hasWorkLocked() bool {
	p := &st.pipe
	return len(p.metas) > 0 || p.sealsDone < p.sealReqs || st.wantSyncLocked()
}

// wantSyncLocked reports whether a group commit should run now. Called
// with pipe.mu held, only considered once the staging arena is drained.
func (st *Store) wantSyncLocked() bool {
	p := &st.pipe
	if p.err != nil {
		return false
	}
	if p.forceSync || p.flushNow {
		return true
	}
	return p.syncWant > p.synced
}

// writerLoop drains the staging arena, executes rotation requests and
// runs group commits, in that priority order (a commit only runs once
// everything staged before it has been applied, which is what lets a
// single fsync cover every waiter's ticket).
func (st *Store) writerLoop() {
	defer st.writerWG.Done()
	p := &st.pipe
	p.mu.Lock()
	for {
		for !p.closed && !st.hasWorkLocked() {
			p.wcond.Wait()
		}
		if p.err != nil {
			// Dead write path: drop staged work so waiters fail fast
			// rather than queueing behind a disk that is gone.
			p.buf, p.metas = p.buf[:0], p.metas[:0]
			p.sealsDone = p.sealReqs
			p.forceSync, p.flushNow = false, false
			p.cond.Broadcast()
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.wcond.Wait()
			continue
		}
		if len(p.metas) > 0 {
			buf, metas, t := p.buf, p.metas, p.staged
			p.buf, p.metas = p.spareBuf[:0], p.spareMetas[:0]
			st.obs.stagedBytes.Set(0)
			p.cond.Broadcast() // arena empty again: unblock backpressured producers
			p.mu.Unlock()
			// Throttle on the seal backlog with no locks held; the
			// maintenance goroutine needs st.mu to make progress.
			st.maint.waitBelow(maxSealBacklog)
			err := st.writeChunk(buf, metas)
			p.mu.Lock()
			p.spareBuf, p.spareMetas = buf, metas
			if err != nil {
				if p.err == nil {
					p.err = err
				}
			} else {
				p.written = t
				p.unsynced += int64(len(buf))
				if st.cfg.CommitEvery > 0 && !p.timerArmed {
					p.timerArmed = true
					time.AfterFunc(st.cfg.CommitEvery, st.commitTick)
				}
			}
			p.cond.Broadcast()
			continue
		}
		if p.sealsDone < p.sealReqs {
			p.mu.Unlock()
			st.mu.Lock()
			err := st.rotateActiveLocked()
			st.publishObsLocked()
			st.mu.Unlock()
			p.mu.Lock()
			if err != nil && p.err == nil {
				p.err = err
			}
			p.sealsDone++
			p.cond.Broadcast()
			continue
		}
		if st.wantSyncLocked() {
			w := p.written
			p.forceSync, p.flushNow = false, false
			p.unsynced = 0
			p.mu.Unlock()
			// The commit must cover every byte applied so far: wait for
			// in-flight seal finalizations, fsync the sealed files parked
			// since the last window, then the active remainder with one
			// fsync here.
			st.maint.waitIdle()
			err := st.drainParked()
			if serr := st.syncActiveFile(); err == nil {
				err = serr
			}
			if merr := st.maint.firstErr(); err == nil {
				err = merr
			}
			st.obs.groupCommits.Add(1)
			p.mu.Lock()
			if err != nil && p.err == nil {
				p.err = err
			}
			if p.synced < w {
				p.synced = w
			}
			p.cond.Broadcast()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
	}
}

// commitTick is the CommitEvery timer callback: request a commit if
// bytes accumulated since the last one.
func (st *Store) commitTick() {
	p := &st.pipe
	p.mu.Lock()
	p.timerArmed = false
	if p.unsynced > 0 && !p.closed && p.err == nil {
		p.flushNow = true
		p.wcond.Signal()
	}
	p.mu.Unlock()
}

// syncActiveFile fsyncs the active segment (if any) under st.mu.
func (st *Store) syncActiveFile() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active == nil {
		return nil
	}
	return st.syncActive()
}

// writeChunk applies one drained staging arena to the segment files:
// the longest run of frames that fits the active segment goes out in a
// single WriteAt (the vectored write), rotating between runs exactly
// like the historical locked append path did.
func (st *Store) writeChunk(buf []byte, metas []stagedEntry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
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
			if err := st.rotateActiveLocked(); err != nil {
				return err
			}
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
		off := seg.size
		for ; i < j; i++ {
			m := &metas[i]
			if seg.meta.count%indexStride == 0 {
				seg.sparse = append(seg.sparse, indexEntry{stamp: m.stamp, off: off})
			}
			seg.meta.observeStaged(m)
			off += int64(m.size)
			st.stats.Appends++
			st.stats.BytesAppended += uint64(m.size)
		}
		pos += runBytes
		seg.size = off
		seg.rawSize = off
		if seg.size >= st.cfg.SegmentBytes {
			if err := st.rotateActiveLocked(); err != nil {
				return err
			}
		}
	}
	st.publishObsLocked()
	return nil
}

// rotateActiveLocked retires the active segment from the write path:
// mark it sealed (it will never grow again, and cursors may treat its
// size as final) and hand the header rewrite + fsync + close + retention
// to the maintenance goroutine. Called with st.mu held.
func (st *Store) rotateActiveLocked() error {
	seg := st.activeSeg()
	if seg == nil {
		return nil
	}
	f := st.active
	st.active = nil
	seg.sealed = true
	st.stats.Seals++
	st.maint.enqueue(sealJob{seg: seg, f: f})
	return nil
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
		err := st.finalizeSeal(job)
		m.mu.Lock()
		m.pending--
		if err != nil && m.err == nil {
			m.err = err
		}
		m.cond.Broadcast()
	}
}

// finalizeSeal completes one rotation: rewrite the header with the real
// metadata, trim the preallocated tail, park the file for its deferred
// fsync and run retention. The fsync itself belongs to the next commit
// window (group commit covers sealed and active bytes alike); past
// maxParkedSeals the maintenance goroutine drains the backlog here.
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
	if st.cfg.CommitEvery > 0 {
		// A commit timer is running: fsync the sealed file here, off the
		// writer's critical path, so commit windows find it already
		// durable instead of paying the fsync serially. Without one its
		// fsync is parked until a commit window (Sync, Seal, Close) or the
		// maxParkedSeals cap asks for durability.
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
	st.mu.Lock()
	st.parked = append(st.parked, parkedSeal{seg: j.seg, f: j.f})
	overCap := len(st.parked) > maxParkedSeals
	st.enforceRetentionLocked()
	st.publishObsLocked()
	st.mu.Unlock()
	if overCap {
		if derr := st.drainParked(); err == nil {
			err = derr
		}
	}
	return err
}

// drainParked fsyncs and closes every sealed file parked since the last
// commit window. Retired segments (deleted by retention or Reset) are
// closed without the fsync — their data is gone. Callers may race; the
// snapshot-and-clear under st.mu hands each file to exactly one drainer.
func (st *Store) drainParked() error {
	st.mu.Lock()
	parked := st.parked
	st.parked = nil
	skip := make([]bool, len(parked))
	for i, ps := range parked {
		skip[i] = ps.seg.retired
	}
	st.mu.Unlock()
	var err error
	for i, ps := range parked {
		if !skip[i] {
			start := time.Now()
			serr := ps.f.Sync()
			st.noteFsync(uint64(time.Since(start)))
			if err == nil {
				err = serr
			}
		}
		if cerr := ps.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// stopMaintenance drains the maintenance queue and joins the goroutine.
// Must only be called after the writer goroutine has exited (nothing
// may enqueue concurrently).
func (st *Store) stopMaintenance() {
	m := &st.maint
	m.mu.Lock()
	m.stopped = true
	m.cond.Broadcast()
	m.mu.Unlock()
	st.maintWG.Wait()
}
