package distributor

import "btrace/internal/tracer"

// mergeBatch is the per-source read granularity of the merge cursor.
const mergeBatch = 512

// mergeSource is one shard cursor and the batch the merge last read off
// it. The entries in buf borrow the cursor's memory until its next Next.
type mergeSource struct {
	cur  tracer.Cursor
	buf  []tracer.Entry
	i, n int   // buf[i:n] is unread
	done bool  // the cursor drained or failed; buf[i:n] is all that is left
	err  error // surfaces once the merged stream drains
}

// refill reads the source's next batch if the last one is used up.
func (s *mergeSource) refill(missed *uint64) {
	if s.i < s.n || s.done {
		return
	}
	n, m, err := s.cur.Next(s.buf)
	*missed += m
	s.i, s.n = 0, n
	// A failed source keeps the prefix it could read.
	s.err, s.done = err, err != nil || n == 0
}

// MergeCursor k-way-merges shard cursors, each a stamp-ordered run
// (Shard.Query), into one stamp-ordered stream, deduplicating equal
// stamps: with replication every event exists on RF shards, so
// duplicates are the normal case, and the globally-unique-stamp
// invariant (one stamp counter per trace) makes the stamp
// the identity to collapse on. Same-shard duplicates (a refused batch
// the client posted again, on a replica that had applied it the first
// time) are adjacent in their run, so they collapse too.
//
// The merge streams: it holds one mergeBatch of entries per source and
// nothing else, whatever the query matches. What a source holds to
// produce its run is the source's own cost (see LocalShard.Query).
type MergeCursor struct {
	srcs    []*mergeSource
	limit   int // 0 = unlimited
	emitted int

	last    uint64 // last emitted stamp (dedup key)
	started bool

	missed uint64
	closed bool
}

// NewMergeCursor merges the given cursors. limit bounds the total
// entries emitted (0 = unlimited). The merge takes ownership of the
// cursors and closes them with Close.
func NewMergeCursor(curs []tracer.Cursor, limit int) *MergeCursor {
	m := &MergeCursor{limit: limit}
	for _, c := range curs {
		m.srcs = append(m.srcs, &mergeSource{cur: c, buf: make([]tracer.Entry, mergeBatch)})
	}
	return m
}

// Next fills batch with the next merged entries. A source whose batch
// runs out ends the output batch early: it is read again only by the
// next call, so the payloads this call hands out — borrowed from the
// shard cursors — stay valid for as long as the contract promises.
func (m *MergeCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if m.closed || len(batch) == 0 {
		return 0, m.takeMissed(), nil
	}
	out := 0
	room := func() bool { return m.limit == 0 || m.emitted < m.limit }
	for dry := true; dry && out == 0 && room(); {
		// Nothing this call has handed out yet borrows from any source.
		for _, s := range m.srcs {
			s.refill(&m.missed)
		}
		dry = false
		for out < len(batch) && room() {
			src := m.minSource()
			if src == nil {
				break
			}
			e := src.buf[src.i]
			src.i++
			if !m.started || e.Stamp != m.last { // else a replica duplicate
				m.started, m.last = true, e.Stamp
				batch[out] = e
				out++
				m.emitted++
			}
			if src.i == src.n && !src.done {
				dry = true
				break
			}
		}
	}
	if out == 0 {
		for _, s := range m.srcs {
			if s.err != nil {
				return 0, m.takeMissed(), s.err
			}
		}
	}
	return out, m.takeMissed(), nil
}

// minSource returns the source whose head has the smallest stamp. A
// linear scan: the fan-in is the shard count, small by construction.
func (m *MergeCursor) minSource() *mergeSource {
	var best *mergeSource
	for _, s := range m.srcs {
		if s.i < s.n && (best == nil || s.buf[s.i].Stamp < best.buf[best.i].Stamp) {
			best = s
		}
	}
	return best
}

func (m *MergeCursor) takeMissed() uint64 {
	v := m.missed
	m.missed = 0
	return v
}

// Close closes every source cursor.
func (m *MergeCursor) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var first error
	for _, s := range m.srcs {
		if err := s.cur.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
