// Package bbq implements the global-buffer baseline tracer: a block-based
// bounded queue (BBQ, USENIX ATC'22 [45]) used in overwrite mode as a
// single shared trace buffer, the way the paper's Fig. 1 baseline uses it.
//
// All producers on all cores share one allocation cursor, so BBQ achieves
// ~100% buffer utilization and a near-ideal latest fragment, but every
// write contends on the same cache lines, giving it the highest recording
// latency of all tracers (§5.2, Table 2) — and a producer advancing onto a
// block still held by a preempted writer must wait (Table 1:
// "Availability: Blocking").
//
// Contract: it passes the tracer conformance suite (TestConformance),
// uses the whole buffer (TestGlobalBufferFullUtilization), and waits on a
// straggler instead of skipping it (TestBlockingOnStraggler).
package bbq

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"btrace/internal/tracer"
)

// TracerName is the registry name of the BBQ baseline.
const TracerName = "bbq"

const (
	headerSize       = tracer.BlockHeaderSize
	defaultBlockSize = 4096
)

// block is one BBQ data block. Like BTrace's metadata, allocated and
// committed pack (version, offset/count); unlike BTrace there is exactly
// one metadata word pair per data block and a single global head shared by
// every producer.
type block struct {
	allocated atomic.Uint64 // version<<32 | byte offset
	committed atomic.Uint64 // version<<32 | committed byte count
	_         [14]uint64
}

func pack(vsn, val uint32) uint64      { return uint64(vsn)<<32 | uint64(val) }
func unpack(w uint64) (uint32, uint32) { return uint32(w >> 32), uint32(w) }

// Queue is a BBQ in overwrite mode holding variable-size trace records.
type Queue struct {
	blockSize int
	nBlocks   int
	buf       []byte
	blocks    []block
	// head is the global position (monotonic); head % nBlocks is the
	// block every producer currently allocates from. This single word is
	// the contention point that distinguishes BBQ from BTrace.
	head atomic.Uint64

	writes       atomic.Uint64
	bytesWritten atomic.Uint64
	dummyBytes   atomic.Uint64
	blocked      atomic.Uint64 // spin episodes waiting for stragglers
	casRetries   atomic.Uint64
}

// New creates a BBQ with the given total budget split into blockSize
// blocks. blockSize 0 selects the 4 KiB default.
func New(totalBytes, blockSize int) (*Queue, error) {
	if blockSize == 0 {
		blockSize = defaultBlockSize
	}
	if blockSize < 64 || blockSize%tracer.Align != 0 {
		return nil, fmt.Errorf("bbq: invalid block size %d", blockSize)
	}
	n := totalBytes / blockSize
	if n < 2 {
		return nil, fmt.Errorf("bbq: budget %d B too small for two blocks of %d B", totalBytes, blockSize)
	}
	q := &Queue{
		blockSize: blockSize,
		nBlocks:   n,
		buf:       make([]byte, n*blockSize),
		blocks:    make([]block, n),
	}
	q.init()
	return q, nil
}

func (q *Queue) init() {
	bs := uint32(q.blockSize)
	for i := range q.blocks {
		q.blocks[i].allocated.Store(pack(0, bs))
		q.blocks[i].committed.Store(pack(0, bs))
	}
	q.head.Store(uint64(q.nBlocks)) // version 1 begins at wrap
}

func (q *Queue) blockData(i int) []byte {
	off := i * q.blockSize
	return q.buf[off : off+q.blockSize : off+q.blockSize]
}

// Name implements tracer.Tracer.
func (q *Queue) Name() string { return TracerName }

// TotalBytes implements tracer.Tracer.
func (q *Queue) TotalBytes() int { return q.nBlocks * q.blockSize }

// Stats implements tracer.Tracer.
func (q *Queue) Stats() tracer.Stats {
	return tracer.Stats{
		Writes:       q.writes.Load(),
		BytesWritten: q.bytesWritten.Load(),
		DummyBytes:   q.dummyBytes.Load(),
		CASRetries:   q.casRetries.Load(),
	}
}

// Blocked returns how many times a producer had to spin-wait for a
// straggling writer while advancing the shared head.
func (q *Queue) Blocked() uint64 { return q.blocked.Load() }

// Reset implements tracer.Tracer.
func (q *Queue) Reset() {
	for i := range q.buf {
		q.buf[i] = 0
	}
	q.init()
	q.writes.Store(0)
	q.bytesWritten.Store(0)
	q.dummyBytes.Store(0)
	q.blocked.Store(0)
	q.casRetries.Store(0)
}

// Write implements tracer.Tracer. Every producer allocates from the single
// shared head block with a fetch-and-add; when the block is exhausted the
// producer advances the head, waiting (blocking) for any straggling writer
// on the next block before reusing it — BBQ in overwrite mode never drops
// the newest entry, it stalls instead.
func (q *Queue) Write(p tracer.Proc, e *tracer.Entry) error {
	size := uint32(e.WireSize())
	bs := uint32(q.blockSize)
	if size > bs-headerSize {
		return fmt.Errorf("%w: entry %d B, block capacity %d B", tracer.ErrTooLarge, size, bs-headerSize)
	}
	for {
		head := q.head.Load()
		idx := int(head % uint64(q.nBlocks))
		vsn := uint32(head / uint64(q.nBlocks))
		blk := &q.blocks[idx]

		w := blk.allocated.Add(uint64(size))
		aVsn, aEnd := unpack(w)
		aPos := aEnd - size
		switch {
		case aVsn == vsn && aEnd <= bs:
			data := q.blockData(idx)
			p.MaybePreempt(tracer.PreemptBeforeCopy)
			if _, err := tracer.EncodeEvent(data[aPos:aEnd], e); err != nil {
				return err
			}
			p.MaybePreempt(tracer.PreemptBeforeConfirm)
			q.commit(blk, vsn, size)
			q.writes.Add(1)
			q.bytesWritten.Add(uint64(size))
			return nil
		case aVsn == vsn && aPos < bs:
			// Straddle: this producer owns the tail; dummy-fill, commit,
			// then advance the shared head.
			tracer.EncodeDummy(q.blockData(idx)[aPos:bs], int(bs-aPos))
			q.dummyBytes.Add(uint64(bs - aPos))
			q.commit(blk, vsn, bs-aPos)
			q.advanceHead(p, head)
		default:
			// Block already full (or a stale version raced us): advance.
			if aVsn != vsn && aPos < bs {
				// We stole space in a reinitialized block (our FAA landed
				// after a wrap producer reset it). Repair it so the block
				// can still fill; otherwise head advancement would wait
				// forever for the stolen bytes.
				n := aEnd
				if n > bs {
					n = bs
				}
				tracer.EncodeDummy(q.blockData(idx)[aPos:n], int(n-aPos))
				q.dummyBytes.Add(uint64(n - aPos))
				q.commit(blk, aVsn, n-aPos)
			}
			q.advanceHead(p, head)
		}
	}
}

// commit adds n committed bytes to version vsn of blk.
func (q *Queue) commit(blk *block, vsn, n uint32) {
	for {
		c := blk.committed.Load()
		cVsn, cCnt := unpack(c)
		if cVsn != vsn {
			panic(fmt.Sprintf("bbq: commit version moved %d -> %d", vsn, cVsn))
		}
		if blk.committed.CompareAndSwap(c, pack(vsn, cCnt+n)) {
			return
		}
		q.casRetries.Add(1)
	}
}

// advanceHead moves the shared head from oldHead to the next block,
// blocking until the next block's previous occupancy is fully committed
// (BBQ's overwrite mode waits for stragglers rather than dropping data).
func (q *Queue) advanceHead(p tracer.Proc, oldHead uint64) {
	if q.head.Load() != oldHead {
		return // someone advanced already
	}
	bs := uint32(q.blockSize)
	next := oldHead + 1
	idx := int(next % uint64(q.nBlocks))
	vsn := uint32(next / uint64(q.nBlocks))
	blk := &q.blocks[idx]

	// Wait for the previous occupancy of the next block to be fully
	// committed: the Blocking availability of Table 1. Blocks may lag by
	// several versions when indices were passed over, so the lock CAS
	// starts from whatever fully committed version is observed.
	var prevVsn uint32
	spun := false
	for {
		cVsn, cCnt := unpack(blk.committed.Load())
		if cVsn >= vsn {
			// Another producer already reinitialized it; retry from the
			// top with a fresh head.
			return
		}
		if cCnt >= bs {
			prevVsn = cVsn
			break
		}
		if !spun {
			spun = true
			q.blocked.Add(1)
		}
		p.MaybePreempt(tracer.PreemptOutside)
		runtime.Gosched()
	}

	// Reinitialize the block for the new version: lock via committed,
	// write the header, reset allocated.
	if !blk.committed.CompareAndSwap(pack(prevVsn, bs), pack(vsn, 0)) {
		q.casRetries.Add(1)
		return
	}
	tracer.EncodeBlockHeader(q.blockData(idx), next)
	for {
		a := blk.allocated.Load()
		if blk.allocated.CompareAndSwap(a, pack(vsn, headerSize)) {
			break
		}
		q.casRetries.Add(1)
	}
	q.commit(blk, vsn, headerSize)
	if !q.head.CompareAndSwap(oldHead, next) {
		q.casRetries.Add(1)
	}
}

// ReadAll implements tracer.Tracer: a quiescent snapshot ordered oldest to
// newest.
func (q *Queue) ReadAll() ([]tracer.Entry, error) {
	head := q.head.Load()
	bs := uint32(q.blockSize)
	start := uint64(q.nBlocks)
	n := uint64(q.nBlocks)
	if head > n && head-n > start {
		start = head - n
	}
	var out []tracer.Entry
	for pos := start; pos <= head; pos++ {
		idx := int(pos % n)
		vsn := uint32(pos / n)
		blk := &q.blocks[idx]
		cVsn, cCnt := unpack(blk.committed.Load())
		aVsn, aPos := unpack(blk.allocated.Load())
		if cVsn != vsn || aVsn != vsn || cCnt != min32(aPos, bs) {
			continue // overwritten, or still racing
		}
		limit := min32(aPos, bs)
		recs, _ := tracer.DecodeAll(q.blockData(idx)[:limit])
		for _, r := range recs {
			if r.Kind == tracer.KindEvent {
				ev := r.Event
				if ev.Payload != nil {
					ev.Payload = append([]byte(nil), ev.Payload...)
				}
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stamp < out[j].Stamp })
	return out, nil
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func init() {
	tracer.Register(TracerName, func(totalBytes, cores, threads int) (tracer.Tracer, error) {
		return New(totalBytes, 0)
	})
}

// NewCursor implements tracer.Tracer. BBQ's read path is a
// quiescent snapshot, so the generic stamp-resume adapter applies.
func (q *Queue) NewCursor() tracer.Cursor { return tracer.NewSnapshotCursor(q.ReadAll) }
