// Background compaction pipeline: ages data through the two tiers.
//
//	hot  — row segments as rotation (or Seal/Close) sealed them
//	cold — row segments compressed into block files (CompactCold,
//	       cold.go)
//
// selectFreezeRunLocked picks what moves; the compactor goroutine runs a
// freeze pass every Config.CompactInterval. The transition is atomic:
// the result is written to a .tmp name, fsynced, renamed in (the commit
// point), and only then are the sources deleted. A crash at any
// boundary leaves either the sources or the committed result, never
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

// TierStats returns per-tier aggregates (hot, cold — always two
// entries, in lifecycle order).
func (st *Store) TierStats() []TierStat {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := []TierStat{{Tier: TierHot.String()}, {Tier: TierCold.String()}}
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

// CompactTick runs one compactor pass: a freeze of aged sealed
// segments (CompactCold). The background goroutine calls it every
// CompactInterval; tests and tooling call it directly.
func (st *Store) CompactTick() error {
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
		if st.closed.Load() {
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
	if st.closed.Load() || !st.runIntactLocked(run) {
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
	for _, s := range run {
		st.addSegLocked(s, -1)
	}
	st.addSegLocked(cold, 1)
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
// walking them with the frame walker under a query that selects every
// frame, so that each frame's tail magic, checksum, record kind and
// record size are checked on the way: recovery can no longer
// frame-scan the bytes once they are compressed, so freezing is the
// last cheap moment to catch rot. A frame that fails a check, or a walk
// that ends short of the sealed size, fails the freeze.
func (st *Store) freezeSource(w *coldWriterV2, s *segment) error {
	src, err := st.be.OpenRead(s.name)
	if err != nil {
		return err
	}
	defer src.Close()
	sink := freezeSink{w: w, buf: newChunk(false)}
	defer globalChunks.Put(sink.buf)
	end, err := st.walk(&everyFrame, wholeSnap(s.size), src, &sink)
	switch {
	case err != nil:
		return fmt.Errorf("store: freeze: %s: %w", s.name, err)
	case sink.err != nil:
		return sink.err
	case end != s.size:
		return fmt.Errorf("%w: freeze: %s: frames end at %d of %d sealed bytes", tracer.ErrCorrupt, s.name, end, s.size)
	}
	return nil
}

// freezeSink hands the rows of a source segment's walk, payloads and
// all, to the cold writer, which copies them; its spans are read
// through buf. err is the writer's first failure; the rows after it are
// dropped.
type freezeSink struct {
	w   *coldWriterV2
	buf *pchunk
	err error
}

func (*freezeSink) payloads() bool { return true }

func (k *freezeSink) span(n int) []byte { return k.buf.span(n) }

func (k *freezeSink) row(stamp, ts uint64, core uint8, tid uint32, cat, level uint8, payload []byte) {
	if k.err == nil {
		k.err = k.w.add(&tracer.Entry{Stamp: stamp, TS: ts, Core: core, TID: tid, Category: cat, Level: level, Payload: payload})
	}
}

func (*freezeSink) rows(*blockCols, []int32) {} // a row segment has no columnar block

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
