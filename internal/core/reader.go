package core

import (
	"slices"
	"sync/atomic"

	"btrace/internal/tracer"
)

// Reader is a registered consumer of a Buffer. Readers never block
// producers: a filled block is copied speculatively and the copy is
// discarded if the metadata shows the block was reclaimed for a newer
// round during the read (§4.3). Readers participate in epoch-based
// reclamation so a concurrent shrink can tell when they have left the
// reclaimed memory (§4.4); producers need no epochs thanks to implicit
// reclaiming.
//
// A Reader is not safe for concurrent use by multiple goroutines.
type Reader struct {
	b *Buffer
	// epoch is even when idle, odd while inside a snapshot.
	epoch atomic.Uint64
	// scratch is the reusable block copy buffer.
	scratch []byte
}

// NewReader registers and returns a consumer for b.
func (b *Buffer) NewReader() *Reader {
	r := &Reader{b: b, scratch: make([]byte, b.opt.BlockSize)}
	b.readersMu.Lock()
	b.readers = append(b.readers, r)
	b.readersMu.Unlock()
	return r
}

// Close unregisters the reader.
func (r *Reader) Close() {
	b := r.b
	b.readersMu.Lock()
	for i, rr := range b.readers {
		if rr == r {
			b.readers = append(b.readers[:i], b.readers[i+1:]...)
			break
		}
	}
	b.readersMu.Unlock()
}

// BlockInfo describes one position of the ring as seen by a snapshot; the
// analysis pipeline and cmd/btrace-inspect use it to explain gaps.
type BlockInfo struct {
	// Pos is the global block position.
	Pos uint64
	// State classifies what the snapshot found at Pos.
	State BlockState
	// Entries is the number of events recovered from the block.
	Entries int
	// Bytes is the number of payload-carrying bytes recovered.
	Bytes int
}

// BlockState classifies a block position during a snapshot.
type BlockState uint8

// Block states reported in BlockInfo.
const (
	// BlockRead means the block's events were recovered.
	BlockRead BlockState = iota
	// BlockActive means the block is the core's current block and was
	// readable (all entries confirmed).
	BlockActive
	// BlockBusy means the block had unconfirmed entries and was not read.
	BlockBusy
	// BlockSkipped means the position was sacrificed by block skipping.
	BlockSkipped
	// BlockOverwritten means a newer round reclaimed the block during or
	// before the read.
	BlockOverwritten
	// BlockInvalid means the block's content did not validate (stale or
	// reclaimed data).
	BlockInvalid
)

// String returns the state name.
func (s BlockState) String() string {
	switch s {
	case BlockRead:
		return "read"
	case BlockActive:
		return "active"
	case BlockBusy:
		return "busy"
	case BlockSkipped:
		return "skipped"
	case BlockOverwritten:
		return "overwritten"
	default:
		return "invalid"
	}
}

// arena is the reusable decode storage of a snapshot: the entry slice,
// one packed byte buffer holding every payload, and the per-position
// block infos. Reusing an arena across snapshots turns the read path's
// per-poll cost from O(events) allocations into zero steady-state
// allocations (the streaming-cursor design this repo's read pipeline is
// built on).
//
// Payloads are appended to buf during the fill, which may reallocate it;
// entries therefore record offsets (spans) and the Payload slice headers
// are fixed up only once the fill is complete (fixPayloads).
type arena struct {
	entries []tracer.Entry
	spans   []span // parallel to entries; start<0 means nil payload
	buf     []byte
	infos   []BlockInfo
}

type span struct{ start, end int }

// reset empties the arena for the next snapshot, keeping capacity.
func (a *arena) reset() {
	a.entries = a.entries[:0]
	a.spans = a.spans[:0]
	a.buf = a.buf[:0]
	a.infos = a.infos[:0]
}

// fixPayloads rewrites each entry's Payload to point into buf. Must run
// after the fill (buf no longer grows) and before sorting (spans are
// parallel to entries by index).
func (a *arena) fixPayloads() {
	for i := range a.entries {
		sp := a.spans[i]
		if sp.start < 0 {
			a.entries[i].Payload = nil
			continue
		}
		a.entries[i].Payload = a.buf[sp.start:sp.end:sp.end]
	}
}

// Snapshot reads every event currently recoverable from the buffer,
// oldest position first, together with per-position block information.
// It is safe to run concurrently with producers. The returned slices are
// freshly allocated and owned by the caller; the streaming read path
// (Buffer.NewCursor) reuses an arena instead and is what steady-state
// consumers should poll.
func (r *Reader) Snapshot() ([]tracer.Entry, []BlockInfo) {
	var ar arena
	r.snapshotInto(&ar)
	return ar.entries, ar.infos
}

// snapshotInto resets ar and fills it with every recoverable event,
// sorted by stamp, plus per-position infos. It is the shared engine
// behind Snapshot (fresh arena) and Cursor (persistent arena).
func (r *Reader) snapshotInto(ar *arena) {
	r.epoch.Add(1)
	defer r.epoch.Add(1)
	ar.reset()

	b := r.b
	gw := b.global.Load()
	ratio, g := unpackGlobal(gw)
	a := uint64(b.opt.ActiveBlocks)
	n := uint64(ratio) * a

	start := a // positions 0..A-1 are pseudo-round placeholders
	if g > n && g-n > start {
		start = g - n
	}

	for pos := start; pos < g; pos++ {
		info := BlockInfo{Pos: pos}
		from := len(ar.entries)
		info.State = r.readPosInto(ar, pos, ratio, n)
		info.Entries = len(ar.entries) - from
		for i := from; i < len(ar.entries); i++ {
			info.Bytes += ar.entries[i].WireSize()
		}
		ar.infos = append(ar.infos, info)
	}
	ar.fixPayloads()
	sortByStamp(ar.entries)
	b.ctrs.snapshotted()
}

// readPosInto recovers the events of global position pos into ar,
// classifying the outcome. ratio and n are the snapshot's ratio and live
// block count. On any non-read outcome nothing is appended.
func (r *Reader) readPosInto(ar *arena, pos uint64, ratio int, n uint64) BlockState {
	b := r.b
	bs := uint32(b.opt.BlockSize)
	m, rr := b.metaOf(pos)
	cRnd, cCnt := unpackMeta(m.confirmed.Load())

	switch {
	case cRnd == rr && b.cBytes(cCnt) == bs:
		// Current, filled round: validate via blockOff after the copy.
		boRnd, boIdx := unpackMeta(m.blockOff.Load())
		if boRnd != rr {
			return BlockOverwritten
		}
		speculativeCopy(r.scratch, b.block(boIdx))
		if bo2 := m.blockOff.Load(); bo2 != packMeta(rr, boIdx) {
			// A newer round claimed the metadata mid-copy; the data may
			// be torn (§4.3: abandon and move on).
			return BlockOverwritten
		}
		if !parseBlockInto(ar, r.scratch[:bs], pos) {
			return BlockInvalid
		}
		return BlockRead

	case cRnd == rr:
		// Current, still-open round: readable only if every allocated
		// byte is confirmed (§4.3).
		aw := m.allocated.Load()
		aRnd, aPos := unpackMeta(aw)
		if aRnd != rr || aPos != b.cBytes(cCnt) || aPos > bs {
			return BlockBusy
		}
		boRnd, boIdx := unpackMeta(m.blockOff.Load())
		if boRnd != rr {
			return BlockOverwritten
		}
		speculativeCopy(r.scratch[:aPos], b.block(boIdx)[:aPos])
		if m.allocated.Load() != aw || m.confirmed.Load() != packMeta(rr, cCnt) {
			return BlockBusy // a writer appended mid-copy; skip
		}
		if !parseBlockInto(ar, r.scratch[:aPos], pos) {
			return BlockInvalid
		}
		return BlockActive

	case cRnd > rr:
		// The metadata moved past rr. With ratio > 1 the round's data
		// block may still be intact (it is only reused every ratio
		// rounds); recover it if the global position proves no reuse
		// could have been granted yet.
		idx := b.dataIdx(pos, ratio)
		speculativeCopy(r.scratch, b.block(idx))
		gw2 := b.global.Load()
		ratio2, g2 := unpackGlobal(gw2)
		if ratio2 != ratio || pos+n < g2 {
			return BlockOverwritten
		}
		if !parseBlockInto(ar, r.scratch[:bs], pos) {
			return BlockInvalid
		}
		return BlockRead

	default:
		// cRnd < rr: the position was granted but never locked — the
		// skipping mechanism sacrificed it (§3.4) — or it is simply
		// beyond the writers' progress.
		return BlockSkipped
	}
}

// parseBlockInto decodes the records of one block copy into ar,
// validating that the block header belongs to pos. It returns false
// (appending nothing) when the content does not belong to pos (stale or
// reclaimed data). Payload bytes are copied out of the scratch block
// into the arena's packed buffer; only spans are recorded here, the
// slice headers are fixed up by the caller after the fill.
func parseBlockInto(ar *arena, blk []byte, pos uint64) bool {
	first, err := tracer.DecodeRecord(blk)
	if err != nil {
		return false
	}
	switch first.Kind {
	case tracer.KindBlockHeader:
		if first.Pos != pos {
			return false
		}
	case tracer.KindSkip:
		return true // sacrificed block, legitimately empty
	default:
		return false
	}
	// Decode records in place (no intermediate []Record), salvaging the
	// parseable prefix the way DecodeAll does.
	src := blk[first.Size:]
	for len(src) >= tracer.Align {
		rec, err := tracer.DecodeRecord(src)
		if err != nil {
			break
		}
		if rec.Kind == tracer.KindEvent {
			e := rec.Event
			sp := span{start: -1}
			if e.Payload != nil {
				sp.start = len(ar.buf)
				ar.buf = append(ar.buf, e.Payload...)
				sp.end = len(ar.buf)
			}
			e.Payload = nil // rewritten by fixPayloads
			ar.entries = append(ar.entries, e)
			ar.spans = append(ar.spans, sp)
		}
		src = src[rec.Size:]
	}
	return true
}

// sortByStamp orders entries by logic stamp: block granting order already
// gives a coarse oldest-to-newest order, but entries of concurrently
// active blocks interleave. slices.SortFunc keeps the steady-state read
// path allocation-free (sort.Slice allocates its reflect-based swapper).
func sortByStamp(es []tracer.Entry) {
	slices.SortFunc(es, func(a, b tracer.Entry) int {
		switch {
		case a.Stamp < b.Stamp:
			return -1
		case a.Stamp > b.Stamp:
			return 1
		default:
			return 0
		}
	})
}

// ReadAll implements the quiescent snapshot used by the tracer.Tracer
// interface: it registers a temporary reader, snapshots, and unregisters.
func (b *Buffer) ReadAll() ([]tracer.Entry, error) {
	r := b.NewReader()
	defer r.Close()
	es, _ := r.Snapshot()
	return es, nil
}
