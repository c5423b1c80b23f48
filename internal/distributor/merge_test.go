package distributor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"btrace/internal/tracer"
)

// sliceCursor replays a fixed entry slice.
type sliceCursor struct {
	es     []tracer.Entry
	i      int
	missed uint64
	err    error
	closed bool
}

func (c *sliceCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if c.closed {
		return 0, 0, tracer.ErrClosed
	}
	m := c.missed
	c.missed = 0
	n := copy(batch, c.es[c.i:])
	c.i += n
	if n == 0 && c.err != nil {
		return 0, m, c.err
	}
	return n, m, nil
}

func (c *sliceCursor) Close() error {
	c.closed = true
	return nil
}

func mkEntries(stamps ...uint64) []tracer.Entry {
	es := make([]tracer.Entry, len(stamps))
	for i, s := range stamps {
		es[i] = tracer.Entry{Stamp: s, TS: s, Level: 1, Payload: []byte(fmt.Sprintf("p%d", s))}
	}
	return es
}

func drainMerge(t *testing.T, m *MergeCursor) []tracer.Entry {
	t.Helper()
	var out []tracer.Entry
	batch := make([]tracer.Entry, 7) // deliberately small: force refills
	for {
		n, _, err := m.Next(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = tracer.CloneEntries(out, batch[:n])
	}
}

func TestMergeDeduplicatesReplicas(t *testing.T) {
	// Two replicas of the same stream, each fully ordered.
	a := &sliceCursor{es: mkEntries(1, 2, 3, 4, 5)}
	b := &sliceCursor{es: mkEntries(1, 2, 3, 4, 5)}
	m := NewMergeCursor([]tracer.Cursor{a, b}, 0)
	defer m.Close()
	got := drainMerge(t, m)
	if len(got) != 5 {
		t.Fatalf("merged %d entries, want 5", len(got))
	}
	for i, e := range got {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("stamp[%d] = %d, want %d", i, e.Stamp, i+1)
		}
		if string(e.Payload) != fmt.Sprintf("p%d", i+1) {
			t.Fatalf("payload[%d] = %q", i, e.Payload)
		}
	}
}

// runCursor is one shard's stamp-ordered run of a replicated stream:
// every stamp in [1, last] whose residue mod 4 is in keep, each payload
// its stamp. Like a store cursor it lends memory: the payloads of a
// batch live in one arena the next Next overwrites. It checks, on every
// Next, that the merge had consumed the whole previous batch before the
// caller last looked (*emitted is the last stamp the caller has been
// handed), and never asks for more than mergeBatch entries.
type runCursor struct {
	t       *testing.T
	keep    [4]bool
	next    uint64 // next stamp to consider
	last    uint64
	emitted *uint64
	handed  uint64 // last stamp of the batch handed out last
	arena   []byte
}

func (c *runCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	if len(batch) > mergeBatch {
		c.t.Errorf("source asked for %d entries, want at most mergeBatch", len(batch))
	}
	if c.handed > *c.emitted {
		c.t.Errorf("source read again at stamp %d while the caller holds nothing past %d: an entry of its previous batch is still buffered or in the caller's batch",
			c.handed, *c.emitted)
	}
	c.arena = c.arena[:0]
	n := 0
	for ; n < len(batch) && c.next <= c.last; c.next++ {
		if !c.keep[c.next%4] {
			continue
		}
		off := len(c.arena)
		c.arena = binary.LittleEndian.AppendUint64(c.arena, c.next)
		batch[n] = tracer.Entry{Stamp: c.next, Payload: c.arena[off:len(c.arena):len(c.arena)]}
		c.handed = c.next
		n++
	}
	return n, 0, nil
}

func (c *runCursor) Close() error { return nil }

// TestMergeStreamsInBoundedMemory drains a 4-source, RF=2, 200 000-event
// merged stream and proves the read-ahead bound: each source has at most
// one mergeBatch outstanding (runCursor's checks), so the merge buffers
// at most 4 × mergeBatch entries, and every payload it hands out is
// still intact when the caller reads it.
func TestMergeStreamsInBoundedMemory(t *testing.T) {
	const total = 200_000
	var emitted uint64
	curs := make([]tracer.Cursor, 4)
	for j := range curs {
		c := &runCursor{t: t, next: 1, last: total, emitted: &emitted}
		c.keep[j], c.keep[(j+1)%4] = true, true
		curs[j] = c
	}
	m := NewMergeCursor(curs, 0)
	defer m.Close()
	batch := make([]tracer.Entry, 1024)
	for {
		n, missed, err := m.Next(batch)
		if err != nil || missed != 0 {
			t.Fatalf("Next: missed=%d err=%v", missed, err)
		}
		if n == 0 {
			break
		}
		for _, e := range batch[:n] {
			if e.Stamp != emitted+1 || binary.LittleEndian.Uint64(e.Payload) != e.Stamp {
				t.Fatalf("after stamp %d: got stamp %d with payload %x", emitted, e.Stamp, e.Payload)
			}
			emitted = e.Stamp
		}
		if t.Failed() {
			return
		}
	}
	if emitted != total {
		t.Fatalf("merged %d stamps, want %d", emitted, total)
	}
}

func TestMergeCollapsesSameSourceDuplicates(t *testing.T) {
	// A spilled dump retried cross-replica then flushed on close leaves
	// the same stamp twice in one shard.
	a := &sliceCursor{es: mkEntries(1, 1, 2, 2, 3)}
	m := NewMergeCursor([]tracer.Cursor{a}, 0)
	defer m.Close()
	got := drainMerge(t, m)
	if len(got) != 3 {
		t.Fatalf("merged %d entries, want 3", len(got))
	}
}

func TestMergeHonorsLimit(t *testing.T) {
	a := &sliceCursor{es: mkEntries(1, 3, 5, 7, 9)}
	b := &sliceCursor{es: mkEntries(2, 4, 6, 8, 10)}
	m := NewMergeCursor([]tracer.Cursor{a, b}, 4)
	defer m.Close()
	got := drainMerge(t, m)
	if len(got) != 4 {
		t.Fatalf("merged %d entries, want 4 (limit)", len(got))
	}
	for i, e := range got {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("stamp[%d] = %d, want %d", i, e.Stamp, i+1)
		}
	}
}

func TestMergeLimitCountsDistinctStamps(t *testing.T) {
	// Same-shard duplicates inside the first limit rows of a source must
	// not shorten the result: limit counts distinct stamps emitted, not
	// rows read.
	a := &sliceCursor{es: mkEntries(1, 1, 1, 2, 3)}
	b := &sliceCursor{es: mkEntries(1, 1, 1, 2, 3)}
	m := NewMergeCursor([]tracer.Cursor{a, b}, 3)
	defer m.Close()
	got := drainMerge(t, m)
	if len(got) != 3 {
		t.Fatalf("merged %d entries, want 3 (limit over distinct stamps)", len(got))
	}
	for i, e := range got {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("stamp[%d] = %d, want %d", i, e.Stamp, i+1)
		}
	}
}

func TestMergePropagatesMissed(t *testing.T) {
	a := &sliceCursor{es: mkEntries(1, 2), missed: 7}
	b := &sliceCursor{es: mkEntries(3)}
	m := NewMergeCursor([]tracer.Cursor{a, b}, 0)
	defer m.Close()
	batch := make([]tracer.Entry, 16)
	// A source's missed count surfaces with the Next that read it.
	n, missed, err := m.Next(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || missed != 7 {
		t.Fatalf("n=%d missed=%d, want entries and 7", n, missed)
	}
	for total := n; total < 3; total += n {
		if n, missed, err = m.Next(batch); n == 0 || missed != 0 || err != nil {
			t.Fatalf("after %d entries: Next = (%d, %d, %v)", total, n, missed, err)
		}
	}
}

func TestMergeSurfacesSourceError(t *testing.T) {
	boom := errors.New("boom")
	a := &sliceCursor{es: mkEntries(1), err: boom}
	m := NewMergeCursor([]tracer.Cursor{a}, 0)
	defer m.Close()
	batch := make([]tracer.Entry, 4)
	// The readable prefix is delivered; the error surfaces at the end.
	var last error
	for i := 0; i < 4; i++ {
		n, _, err := m.Next(batch)
		if err != nil {
			last = err
			break
		}
		if n == 0 {
			break
		}
	}
	if !errors.Is(last, boom) {
		t.Fatalf("merge swallowed source error, got %v", last)
	}
}

func TestMergeCloseClosesSources(t *testing.T) {
	a := &sliceCursor{es: mkEntries(1)}
	b := &sliceCursor{es: mkEntries(2)}
	m := NewMergeCursor([]tracer.Cursor{a, b}, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !a.closed || !b.closed {
		t.Fatal("Close did not close the source cursors")
	}
	if n, _, _ := m.Next(make([]tracer.Entry, 4)); n != 0 {
		t.Fatal("closed merge still emits entries")
	}
}
