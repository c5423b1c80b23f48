// Package lttng implements the per-core userspace baseline tracer modeled
// on LTTng-UST's ring buffer (libringbuffer): per-core buffers divided
// into sub-buffers, space reservation through a compare-and-swap loop on
// the buffer's write offset, and per-sub-buffer commit counters.
//
// Being a userspace tracer, LTTng cannot disable preemption. When a
// writer is scheduled out between reserve and commit, the sub-buffer it
// occupies never fully commits; a producer wrapping around onto such a
// sub-buffer cannot reuse it and — rather than blocking — LTTng loses the
// newest events (§2.2: "other tracers, such as LTTng, sacrifice buffer
// availability by discarding the newest data"). The paper's Fig. 1b shows
// the resulting extra gaps under oversubscription.
//
// Contract: it passes the tracer conformance suite (TestConformance),
// keeps cores isolated (TestPerCoreIsolation), and drops the newest
// events behind a straggler (TestDropsNewestOnStraggler).
package lttng

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"btrace/internal/tracer"
)

// TracerName is the registry name of the LTTng baseline.
const TracerName = "lttng"

const defaultSubBufSize = 4096

func pack(vsn, val uint32) uint64      { return uint64(vsn)<<32 | uint64(val) }
func unpack(w uint64) (uint32, uint32) { return uint32(w >> 32), uint32(w) }

// subbuf is one sub-buffer's commit state.
type subbuf struct {
	// committed packs (round, committed byte count). The sub-buffer is
	// deliverable when the count reaches the sub-buffer size.
	committed atomic.Uint64
	_         [15]uint64
}

// ring is one core's buffer: nSub sub-buffers of sbSize bytes.
type ring struct {
	data []byte
	subs []subbuf
	// woff is the monotonic write offset in bytes; woff / sbSize is the
	// current sub-buffer position. Reservation CASes this word (the
	// LTTng-UST reserve path uses the same cmpxchg loop).
	woff atomic.Uint64
	_    [8]uint64
}

// Tracer is the per-core LTTng-like tracer.
type Tracer struct {
	sbSize int
	nSub   int
	rings  []*ring

	writes       atomic.Uint64
	bytesWritten atomic.Uint64
	dropped      atomic.Uint64
	dummyBytes   atomic.Uint64
	casRetries   atomic.Uint64
}

// New creates a tracer with the total budget split across cores, each
// core's share divided into sub-buffers of sbSize bytes (0 selects 4 KiB).
func New(totalBytes, cores, sbSize int) (*Tracer, error) {
	if sbSize == 0 {
		sbSize = defaultSubBufSize
	}
	if cores <= 0 {
		return nil, fmt.Errorf("lttng: cores must be positive, got %d", cores)
	}
	if sbSize < 64 || sbSize%tracer.Align != 0 {
		return nil, fmt.Errorf("lttng: invalid sub-buffer size %d", sbSize)
	}
	perCore := totalBytes / cores
	nSub := perCore / sbSize
	if nSub < 2 {
		return nil, fmt.Errorf("lttng: budget %d B gives %d sub-buffers/core of %d B, need >= 2",
			totalBytes, nSub, sbSize)
	}
	t := &Tracer{sbSize: sbSize, nSub: nSub, rings: make([]*ring, cores)}
	for c := range t.rings {
		r := &ring{
			data: make([]byte, nSub*sbSize),
			subs: make([]subbuf, nSub),
		}
		t.initRing(r)
		t.rings[c] = r
	}
	return t, nil
}

func (t *Tracer) initRing(r *ring) {
	for i := range r.subs {
		r.subs[i].committed.Store(pack(0, uint32(t.sbSize)))
	}
	r.woff.Store(uint64(t.nSub * t.sbSize)) // round 1 starts at wrap
}

// Name implements tracer.Tracer.
func (t *Tracer) Name() string { return TracerName }

// TotalBytes implements tracer.Tracer.
func (t *Tracer) TotalBytes() int { return len(t.rings) * t.nSub * t.sbSize }

// Stats implements tracer.Tracer.
func (t *Tracer) Stats() tracer.Stats {
	return tracer.Stats{
		Writes:       t.writes.Load(),
		BytesWritten: t.bytesWritten.Load(),
		Dropped:      t.dropped.Load(),
		DummyBytes:   t.dummyBytes.Load(),
		CASRetries:   t.casRetries.Load(),
	}
}

// Reset implements tracer.Tracer.
func (t *Tracer) Reset() {
	for _, r := range t.rings {
		for i := range r.data {
			r.data[i] = 0
		}
		t.initRing(r)
	}
	t.writes.Store(0)
	t.bytesWritten.Store(0)
	t.dropped.Store(0)
	t.dummyBytes.Store(0)
	t.casRetries.Store(0)
}

// sbPos decomposes a monotonic byte offset into sub-buffer index, round
// and offset within the sub-buffer.
func (t *Tracer) sbPos(off uint64) (idx int, round uint32, in int) {
	sb := off / uint64(t.sbSize)
	return int(sb % uint64(t.nSub)), uint32(sb / uint64(t.nSub)), int(off % uint64(t.sbSize))
}

// Write implements tracer.Tracer: CAS-loop space reservation in the
// calling core's buffer, dropping the event when the target sub-buffer is
// still held by a straggling (preempted) writer.
func (t *Tracer) Write(p tracer.Proc, e *tracer.Entry) error {
	size := e.WireSize()
	if size > t.sbSize {
		return fmt.Errorf("%w: entry %d B, sub-buffer %d B", tracer.ErrTooLarge, size, t.sbSize)
	}
	r := t.rings[p.Core()]

	// Reserve: CAS loop on the write offset (lib_ring_buffer_reserve).
	var (
		resOff uint64
		padOff uint64 // where boundary padding starts (0 = none)
		padLen int
	)
	for {
		old := r.woff.Load()
		idx, round, in := t.sbPos(old)
		start := old
		padOff, padLen = 0, 0
		if in+size > t.sbSize {
			// The record does not fit the current sub-buffer: pad the
			// tail and start at the next sub-buffer boundary.
			padOff, padLen = old, t.sbSize-in
			start = old + uint64(padLen)
			idx, round, _ = t.sbPos(start)
		}
		// If the target sub-buffer's previous round is not fully
		// committed, a straggler still owns it: discard the event
		// (drop-newest) rather than corrupt or block.
		if in == 0 || padLen > 0 {
			cRnd, cCnt := unpack(r.subs[idx].committed.Load())
			switch {
			case cRnd == round && cCnt <= uint32(t.sbSize):
				// Already reinitialized by a concurrent reserver; fine.
			case cRnd+1 == round && cCnt == uint32(t.sbSize):
				// Fully committed previous round: reusable.
			default:
				t.dropped.Add(1)
				return tracer.ErrDropped
			}
		}
		if r.woff.CompareAndSwap(old, start+uint64(size)) {
			resOff = start
			break
		}
		t.casRetries.Add(1)
	}

	// Pad the abandoned tail of the previous sub-buffer.
	if padLen > 0 {
		pIdx, pRound, pIn := t.sbPos(padOff)
		if padLen >= tracer.Align {
			tracer.EncodeDummy(r.data[pIdx*t.sbSize+pIn:pIdx*t.sbSize+pIn+padLen], padLen)
		}
		t.dummyBytes.Add(uint64(padLen))
		t.commit(r, pIdx, pRound, uint32(padLen))
	}

	idx, round, in := t.sbPos(resOff)
	if in == 0 {
		// First reserver of a sub-buffer reinitializes its commit state
		// (switch_new_start): CAS from the fully committed old round.
		sb := &r.subs[idx]
		for {
			c := sb.committed.Load()
			cRnd, _ := unpack(c)
			if cRnd >= round {
				break
			}
			if sb.committed.CompareAndSwap(c, pack(round, 0)) {
				break
			}
			t.casRetries.Add(1)
		}
	}
	base := idx * t.sbSize
	p.MaybePreempt(tracer.PreemptBeforeCopy)
	if _, err := tracer.EncodeEvent(r.data[base+in:base+in+size], e); err != nil {
		return err
	}
	p.MaybePreempt(tracer.PreemptBeforeConfirm)
	t.commit(r, idx, round, uint32(size))
	t.writes.Add(1)
	t.bytesWritten.Add(uint64(size))
	return nil
}

// commit adds n committed bytes to the sub-buffer's round counter. The
// sub-buffer is reinitialized by the thread whose reservation starts at
// its first byte; a commit arriving before that reinitialization waits for
// it (the window is a few instructions in the reserver).
func (t *Tracer) commit(r *ring, idx int, round uint32, n uint32) {
	sb := &r.subs[idx]
	for {
		c := sb.committed.Load()
		cRnd, cCnt := unpack(c)
		if cRnd > round {
			return // sub-buffer already moved past our round
		}
		if cRnd < round {
			runtime.Gosched() // reserver has not reinitialized yet
			continue
		}
		if sb.committed.CompareAndSwap(c, pack(round, cCnt+n)) {
			return
		}
		t.casRetries.Add(1)
	}
}

// ReadAll implements tracer.Tracer: a quiescent snapshot of all cores'
// fully or partially committed sub-buffers, ordered by logic stamp.
func (t *Tracer) ReadAll() ([]tracer.Entry, error) {
	var out []tracer.Entry
	sbs := uint64(t.sbSize)
	for _, r := range t.rings {
		woff := r.woff.Load()
		curSB := woff / sbs
		start := uint64(t.nSub)
		if curSB > uint64(t.nSub) && curSB-uint64(t.nSub) > start {
			start = curSB - uint64(t.nSub)
		}
		for sb := start; sb <= curSB; sb++ {
			idx := int(sb % uint64(t.nSub))
			round := uint32(sb / uint64(t.nSub))
			cRnd, cCnt := unpack(r.subs[idx].committed.Load())
			if cRnd != round {
				continue
			}
			limit := int(cCnt)
			if sb == curSB {
				limit = int(woff % sbs)
				if uint32(limit) != cCnt {
					continue // uncommitted writer in the current sub-buffer
				}
			} else if cCnt != uint32(t.sbSize) {
				continue // never fully committed (straggler hole)
			} else {
				limit = t.sbSize
			}
			recs, _ := tracer.DecodeAll(r.data[idx*t.sbSize : idx*t.sbSize+limit])
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

func init() {
	tracer.Register(TracerName, func(totalBytes, cores, threads int) (tracer.Tracer, error) {
		return New(totalBytes, cores, 0)
	})
}

// NewCursor implements tracer.Tracer. LTTng's read path is a
// quiescent snapshot, so the generic stamp-resume adapter applies.
func (t *Tracer) NewCursor() tracer.Cursor { return tracer.NewSnapshotCursor(t.ReadAll) }
