// Background compaction pipeline: ages data through the three tiers.
//
//	hot   — row segments as rotation sealed them
//	compacted — adjacent small sealed segments merged into one (Compact,
//	        compact.go)
//	cold  — row segments compressed into block files (CompactCold,
//	        cold.go)
//
// selectMergeRunLocked and selectFreezeRunLocked pick what moves; the
// compactor goroutine runs a merge + freeze pass every
// Config.CompactInterval. Every transition is
// atomic: the result is written to a .tmp name, fsynced, renamed in
// (the commit point), and only then are the sources deleted. A crash at
// any boundary leaves either the sources or the committed result, never
// both live — recovery deletes the duplicate copy by seq coverage.
//
// Freezing does its compression I/O outside st.mu over the sealed,
// immutable sources, then re-takes the lock and verifies the run is
// still intact (retention may have raced it) before committing.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"btrace/internal/tracer"
)

// selectMergeRunLocked picks the next run st.segs[start:start+n], at or
// after from, of row segments to merge into one (hot/compacted →
// compacted): adjacent sealed segments, each under SegmentBytes/2, whose
// merged body stays within SegmentBytes. n < 2 means nothing to merge.
func (st *Store) selectMergeRunLocked(from int) (start, n int) {
	small := st.cfg.SegmentBytes / 2
	for i := from; i < len(st.segs); i++ {
		var total int64
		run := 0
		for _, s := range st.segs[i:] {
			if !s.sealed || s.isCold() || s.size >= small {
				break
			}
			body := s.size - headerSize
			if run > 0 && total+body+headerSize > st.cfg.SegmentBytes {
				break
			}
			total += body
			run++
		}
		if run >= 2 {
			return i, run
		}
	}
	return 0, 0
}

// selectFreezeRunLocked picks the next sealed row segments to compress
// into one cold file: the leftmost run of non-empty ones whose newest
// timestamp trails the store's newest (virtual time, like retention) by
// more than ColdAfterNs, extended while the run's raw bytes fit
// ColdFileBytes. ColdAfterNs == 0 disables freezing.
func (st *Store) selectFreezeRunLocked() []*segment {
	after := st.cfg.ColdAfterNs
	if after == 0 {
		return nil
	}
	var newest uint64
	for _, s := range st.segs {
		if s.meta.count > 0 && s.meta.maxTS > newest {
			newest = s.meta.maxTS
		}
	}
	eligible := func(s *segment) bool {
		return s.sealed && !s.isCold() && s.meta.count > 0 && s.meta.maxTS+after <= newest
	}
	for i, s := range st.segs {
		if !eligible(s) {
			continue
		}
		var raw int64
		run := 0
		for _, s := range st.segs[i:] {
			if !eligible(s) || run > 0 && raw+s.rawSize > st.cfg.ColdFileBytes {
				break
			}
			raw += s.rawSize
			run++
		}
		return append([]*segment(nil), st.segs[i:i+run]...)
	}
	return nil
}

// TierStat aggregates one tier of the store's segments.
type TierStat struct {
	Tier     string `json:"tier"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	RawBytes int64  `json:"raw_bytes"`
	Blocks   int    `json:"blocks"`
	Events   uint64 `json:"events"`
}

// TierStats returns per-tier aggregates (hot, compacted, cold — always
// three entries, in lifecycle order).
func (st *Store) TierStats() []TierStat {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := []TierStat{{Tier: TierHot.String()}, {Tier: TierCompacted.String()}, {Tier: TierCold.String()}}
	for _, s := range st.segs {
		t := &out[s.tier]
		t.Segments++
		t.Bytes += s.size
		t.RawBytes += s.rawSize
		t.Blocks += len(s.blocks)
		t.Events += s.meta.count
	}
	return out
}

// CompactTick runs one full compactor pass: merge small sealed
// segments, then freeze aged ones. The background goroutine calls it
// every CompactInterval; tests and tooling call it directly.
func (st *Store) CompactTick() error {
	if _, err := st.Compact(); err != nil {
		return err
	}
	_, err := st.CompactCold()
	return err
}

// CompactCold freezes aged sealed row segments into compressed cold
// block files (selectFreezeRunLocked). It returns the number of
// row segments consumed. Passes are serialized: run selection and the
// commit happen under st.mu but the compression I/O between them does
// not, so concurrent passes could otherwise freeze the same run twice.
func (st *Store) CompactCold() (int, error) {
	st.freezeMu.Lock()
	defer st.freezeMu.Unlock()
	frozen := 0
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return frozen, ErrClosed
		}
		run := st.selectFreezeRunLocked()
		st.mu.Unlock()
		if len(run) == 0 {
			return frozen, nil
		}
		fn, err := st.freezeRun(run)
		frozen += fn
		if err != nil {
			return frozen, err
		}
		if fn == 0 {
			// The run was invalidated between selection and commit
			// (retention or a concurrent pass); don't spin on it.
			return frozen, nil
		}
	}
}

// freezeRun compresses the given sealed row segments into one cold
// file. The compression I/O runs without the store lock (the sources
// are sealed and immutable; retention may delete them, but our read
// handles keep working — backend Remove semantics); the commit re-takes
// the lock, verifies the run is still live and contiguous, and renames
// the file in. Returns the number of segments consumed (0 if the run
// was invalidated and nothing was committed).
func (st *Store) freezeRun(run []*segment) (int, error) {
	start := time.Now()
	for _, s := range run {
		if !s.sealed || s.isCold() {
			return 0, nil
		}
	}
	first, last := run[0], run[len(run)-1]
	name := coldName(first.seq)
	tmpName := name + ".tmp"
	tmp, err := st.be.Create(tmpName, 0)
	if err != nil {
		return 0, err
	}
	abort := func(e error) (int, error) {
		tmp.Close()
		st.be.Remove(tmpName)
		return 0, e
	}
	w := &st.coldW
	w.begin(tmp, st.cfg.ColdBlockBytes)
	defer func() { w.f = nil }() // the writer is kept for its buffers, not the file
	for _, s := range run {
		if err := st.freezeSource(w, s); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// Retention deleted the source before we opened it: the
				// run is gone, not broken. The commit-time intactness
				// check would reach the same verdict; fold it in early.
				tmp.Close()
				st.be.Remove(tmpName)
				return 0, nil
			}
			return abort(err)
		}
	}
	if err := w.finish(last.coversThrough); err != nil {
		return abort(err)
	}
	fileMeta, blocks, rawTotal := w.result()
	size, err := tmp.Size()
	if err != nil {
		return abort(err)
	}
	if err := tmp.Close(); err != nil {
		st.be.Remove(tmpName)
		return 0, err
	}

	st.mu.Lock()
	if st.closed || !st.runIntactLocked(run) {
		st.mu.Unlock()
		st.be.Remove(tmpName)
		return 0, nil
	}
	// Commit point: the cold file replaces the whole run.
	if err := st.be.Rename(tmpName, name); err != nil {
		st.mu.Unlock()
		st.be.Remove(tmpName)
		return 0, err
	}
	cold := &segment{
		seq:           first.seq,
		name:          name,
		coversThrough: last.coversThrough,
		size:          size,
		rawSize:       headerSize + rawTotal,
		tier:          TierCold,
		sealed:        true,
		meta:          fileMeta,
		blocks:        blocks,
	}
	i := st.segIndexLocked(run[0])
	st.segs[i] = cold
	st.segs = append(st.segs[:i+1], st.segs[i+len(run):]...)
	st.stats.ColdCompactions++
	st.stats.SegmentsFrozen += uint64(len(run))
	st.stats.ColdBlocksBuilt += uint64(len(blocks))
	st.stats.ColdBytesWritten += uint64(size)
	st.stats.ColdRawBytes += uint64(rawTotal)
	st.stats.FreezeNs += uint64(time.Since(start))
	st.publishObsLocked()
	names := make([]string, 0, len(run))
	for _, s := range run {
		if s.name != name {
			names = append(names, s.name)
		}
	}
	st.mu.Unlock()
	// The sources are shadowed by the committed cold file; a crash here
	// leaves them for recovery's leftover rule (coversThrough).
	for _, n := range names {
		st.be.Remove(n)
	}
	return len(run), nil
}

// freezeSource copies one source segment's frames into the cold sink,
// verifying every frame's checksum on the way: recovery can no longer
// frame-scan the bytes once they are compressed, so freezing is the
// last cheap moment to catch rot. Events are fully decoded before
// handoff — the columnar writer needs every field, and decode failures
// are freeze failures for the same reason checksum failures are.
func (st *Store) freezeSource(w *coldWriterV2, s *segment) error {
	src, err := st.be.OpenRead(s.name)
	if err != nil {
		return err
	}
	defer src.Close()
	rd := chunkReader{f: src, off: headerSize, bound: s.size}
	off := int64(headerSize)
	for off < s.size {
		head, err := rd.peek(tracer.Align)
		if err != nil {
			return err
		}
		if len(head) < tracer.Align {
			return fmt.Errorf("store: freeze: short read in %s at %d", s.name, off)
		}
		_, recSize, perr := tracer.PeekRecord(head)
		if perr != nil || recSize > maxRecordSize {
			return fmt.Errorf("store: freeze: bad frame in %s at %d", s.name, off)
		}
		frame := recSize + tailSize
		buf, err := rd.peek(frame)
		if err != nil || len(buf) < frame {
			return fmt.Errorf("store: freeze: torn frame in %s at %d", s.name, off)
		}
		if cerr := checkFrame(buf[:recSize], buf[recSize:frame]); cerr != nil {
			return fmt.Errorf("store: freeze: %s at %d: %w", s.name, off, cerr)
		}
		if recSize < tracer.EventHeaderSize {
			return fmt.Errorf("store: freeze: short event in %s at %d", s.name, off)
		}
		var e tracer.Entry
		if derr := decodeEventTo(buf[:recSize], &e); derr != nil {
			return fmt.Errorf("store: freeze: %s at %d: %w", s.name, off, derr)
		}
		if err := w.add(buf[:frame], &e); err != nil {
			return err
		}
		rd.advance(frame)
		off += int64(frame)
	}
	return nil
}

// runIntactLocked reports whether the run still sits, in order and
// uninterrupted, in the live segment list.
func (st *Store) runIntactLocked(run []*segment) bool {
	i := st.segIndexLocked(run[0])
	if i < 0 || i+len(run) > len(st.segs) {
		return false
	}
	for k, s := range run {
		if st.segs[i+k] != s {
			return false
		}
	}
	return true
}

// segIndexLocked returns the index of exactly this *segment, or -1.
func (st *Store) segIndexLocked(s *segment) int {
	i := st.findSeqLocked(s.seq)
	if i >= 0 && st.segs[i] == s {
		return i
	}
	return -1
}

// compactorLoop is the background compactor goroutine: one CompactTick
// per interval, failures counted and surfaced as stats/metrics (a tier
// transition that fails leaves the sources untouched; the next tick
// retries).
func (st *Store) compactorLoop() {
	defer st.compactWG.Done()
	t := time.NewTicker(st.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-st.compactStop:
			return
		case <-t.C:
			if err := st.CompactTick(); err != nil && err != ErrClosed {
				st.mu.Lock()
				st.stats.CompactorErrors++
				st.publishObsLocked()
				st.mu.Unlock()
			}
		}
	}
}

// stopCompactor joins the background compactor (idempotent; no-op when
// none is running).
func (st *Store) stopCompactor() {
	if st.compactStop == nil {
		return
	}
	st.compactOnce.Do(func() { close(st.compactStop) })
	st.compactWG.Wait()
}
