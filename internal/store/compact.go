// Compaction (hot → compacted): rotation under a small SegmentBytes (or
// frequent seals from the collector's spill path) leaves runs of small
// sealed segments, each costing a file handle and an index entry per
// query. Compact merges adjacent small sealed segments into one, copying
// the already checksummed frames verbatim.
//
// Crash safety: the merged file is written to a .tmp name, fsynced, then
// renamed over the first source segment (the backend guarantees the
// rename is atomic with respect to a crash), and only then are the
// remaining sources deleted. The merged header records the highest
// source seq it consumed (coversThrough), so a crash between the rename
// and the deletes leaves sources that Open can identify exactly — by
// seq, not by heuristic — and delete (see recoverSegment).
package store

import "fmt"

// Compact merges adjacent runs of small sealed segments
// (selectMergeRunLocked). It returns the number of source segments
// consumed.
func (st *Store) Compact() (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	merged := 0
	from := 0
	for {
		start, n := st.selectMergeRunLocked(from)
		if n < 2 {
			break
		}
		if err := st.mergeRunLocked(start, n); err != nil {
			if merged > 0 {
				st.stats.Compactions++
				st.stats.SegmentsCompacted += uint64(merged)
			}
			st.publishObsLocked()
			return merged, err
		}
		merged += n
		from = start + 1 // the merged segment now sits at start; look past it
	}
	if merged > 0 {
		st.stats.Compactions++
		st.stats.SegmentsCompacted += uint64(merged)
	}
	st.publishObsLocked()
	return merged, nil
}

// mergeRunLocked merges segs[i:i+run] into a single segment that keeps
// the first source's seq and name.
func (st *Store) mergeRunLocked(i, run int) error {
	first := st.segs[i]
	sources := st.segs[i : i+run]
	var total int64
	for _, s := range sources {
		total += s.size - headerSize
	}
	tmpName := first.name + ".tmp"
	tmp, err := st.be.Create(tmpName, headerSize+total)
	if err != nil {
		return err
	}
	cleanup := func(e error) error {
		tmp.Close()
		st.be.Remove(tmpName)
		return e
	}

	m := &segment{seq: first.seq, coversThrough: sources[run-1].coversThrough,
		name: first.name, tier: TierCompacted, sealed: true}
	if _, err := tmp.WriteAt(make([]byte, headerSize), 0); err != nil {
		return cleanup(err)
	}
	off := int64(headerSize)
	for _, s := range sources {
		src, err := st.be.OpenRead(s.name)
		if err != nil {
			return cleanup(err)
		}
		// Copy the frames verbatim (they are already checksummed), then
		// merge the metadata and rebase the sparse index.
		err = copyRange(tmp, off, src, headerSize, s.size-headerSize)
		src.Close()
		if err != nil {
			return cleanup(fmt.Errorf("store: compact %s: %w", s.name, err))
		}
		for _, ie := range s.sparse {
			m.sparse = append(m.sparse, indexEntry{stamp: ie.stamp, off: ie.off - headerSize + off})
		}
		mergeMeta(&m.meta, &s.meta)
		off += s.size - headerSize
	}
	m.size = off
	m.rawSize = off
	hdr := make([]byte, headerSize)
	encodeHeader(hdr, &m.meta, m.coversThrough, true)
	if _, err := tmp.WriteAt(hdr, 0); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Seal(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	// Commit point: the merged segment replaces the first source.
	if err := st.be.Rename(tmpName, first.name); err != nil {
		st.be.Remove(tmpName)
		return err
	}
	for _, s := range sources[1:] {
		st.be.Remove(s.name)
	}
	st.segs = append(st.segs[:i+1], st.segs[i+run:]...)
	st.segs[i] = m
	return nil
}

// copyRange copies n bytes from src at srcOff to dst at dstOff through
// a bounded buffer (the backend contract has positional I/O only).
func copyRange(dst interface {
	WriteAt(p []byte, off int64) (int, error)
}, dstOff int64, src interface {
	ReadAt(p []byte, off int64) (int, error)
}, srcOff, n int64) error {
	buf := make([]byte, min(n, int64(chunkSize)))
	for n > 0 {
		want := int64(len(buf))
		if want > n {
			want = n
		}
		r, err := src.ReadAt(buf[:want], srcOff)
		if int64(r) < want {
			if err == nil {
				err = fmt.Errorf("short read (%d of %d bytes)", r, want)
			}
			return err
		}
		if _, err := dst.WriteAt(buf[:want], dstOff); err != nil {
			return err
		}
		srcOff += want
		dstOff += want
		n -= want
	}
	return nil
}

// mergeMeta folds src into dst (append order: dst precedes src).
func mergeMeta(dst, src *segmentMeta) {
	if src.count == 0 {
		return
	}
	if dst.count == 0 {
		*dst = *src
		return
	}
	// Ordered survives only if the concatenation stays non-decreasing.
	dst.ordered = dst.ordered && src.ordered && src.baseStamp >= dst.maxStamp
	if src.baseStamp < dst.baseStamp {
		dst.baseStamp = src.baseStamp
	}
	if src.maxStamp > dst.maxStamp {
		dst.maxStamp = src.maxStamp
	}
	if src.minTS < dst.minTS {
		dst.minTS = src.minTS
	}
	if src.maxTS > dst.maxTS {
		dst.maxTS = src.maxTS
	}
	dst.coreBits |= src.coreBits
	dst.catBits |= src.catBits
	dst.count += src.count
}
