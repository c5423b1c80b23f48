package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// coldSection locates one v2 block's sections on disk, for tests that
// corrupt them to prove the query engine never reads what pruning
// excluded.
type coldSection struct {
	path              string
	hdrOff            int64 // 200-byte v2 block header
	metaOff, metaLen  int64
	payOff, payLen    int64
	baseStamp, maxTop uint64 // the block's stamp range
}

// coldSectionsV2 snapshots every v2 block's on-disk section layout.
func coldSectionsV2(t *testing.T, st *Store) []coldSection {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []coldSection
	for _, s := range st.segs {
		if !s.isCold() {
			continue
		}
		for i := range s.blocks {
			b := &s.blocks[i]
			if b.v2 == nil {
				continue
			}
			out = append(out, coldSection{
				path:    filepath.Join(st.loc, s.name),
				hdrOff:  b.off - blockHeaderV2Size,
				metaOff: b.off, metaLen: b.v2.metaLen,
				payOff: b.off + b.v2.metaLen, payLen: b.v2.payLen,
				baseStamp: b.meta.baseStamp, maxTop: b.meta.maxStamp,
			})
		}
	}
	return out
}

// flipByte XORs one on-disk byte, simulating silent media corruption.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestColdAggregateNeverInflatesPayload is the proof by corruption for
// the columnar executor's I/O discipline: with EVERY v2 payload section
// corrupted on disk, a header-only aggregate still answers correctly —
// the payload columns genuinely stay compressed and unread. A payload
// predicate over the same store must then fail, proving the corruption
// was real and would have been seen by any read that touched it.
func TestColdAggregateNeverInflatesPayload(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	sealEvery(t, st, 1, 1200, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	secs := coldSectionsV2(t, st)
	if len(secs) == 0 {
		t.Fatal("fixture froze no v2 blocks")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if s.payLen == 0 {
			t.Fatalf("block at %s+%d has no payload section", s.path, s.hdrOff)
		}
		flipByte(t, s.path, s.payOff+s.payLen/2)
	}

	st, err = Open(dir, tierCfg()) // recovery reads directory headers only
	if err != nil {
		t.Fatalf("Open after payload corruption: %v", err)
	}
	defer st.Close()

	count := []btql.AggSpec{{Kind: btql.AggCount}}
	res, missed, err := st.Aggregate(Query{Pred: predOf(t, `category == 2`)}, count)
	if err != nil {
		t.Fatalf("header-only aggregate read a corrupt payload section: %v", err)
	}
	// mkEntry categories are stamp%5: exactly 240 of stamps 1..1200.
	if missed != 0 || res[0].Events != 240 {
		t.Fatalf("count = %d (missed %d), want 240", res[0].Events, missed)
	}

	// The same store must fail a read that does need payload bytes from a
	// cold block — otherwise the corruption above proved nothing.
	if _, _, err := st.Aggregate(Query{Pred: predOf(t, `payload contains "payload-7"`)}, count); err == nil {
		t.Fatal("payload predicate read corrupted sections without error")
	}
	cur := st.Query(Query{})
	defer cur.Close()
	if _, err := tracer.Drain(cur, 64); err == nil {
		t.Fatal("full materializing scan read corrupted payload sections without error")
	}
}

// TestColdStampPruningSkipsCorruptBlocks proves block-level metadata
// pruning on the streaming cursor: blocks past a stamp cutoff are
// corrupted wholesale (meta and payload sections), and a bounded query
// still returns every event below the cutoff, intact — those blocks
// were vetoed by their directory entry before any byte was read.
func TestColdStampPruningSkipsCorruptBlocks(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	sealEvery(t, st, 1, 1200, 100)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	secs := coldSectionsV2(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every block whose range starts in the upper half.
	var cutoff uint64 = ^uint64(0)
	corrupted := 0
	for _, s := range secs {
		if s.baseStamp <= 600 {
			continue
		}
		if s.baseStamp < cutoff {
			cutoff = s.baseStamp
		}
		flipByte(t, s.path, s.metaOff+s.metaLen/2)
		flipByte(t, s.path, s.payOff+s.payLen/2)
		corrupted++
	}
	if corrupted == 0 || cutoff == ^uint64(0) {
		t.Fatalf("no blocks above stamp 600 to corrupt (%d sections)", len(secs))
	}
	cutoff-- // highest stamp no corrupted block can cover

	st, err = Open(dir, tierCfg())
	if err != nil {
		t.Fatalf("Open after block corruption: %v", err)
	}
	defer st.Close()

	for name, q := range map[string]Query{
		"field-bound": {Pred: where(btql.Between(btql.FStamp, 0, cutoff))},
		"btql-hull":   {Pred: predOf(t, `stamp <= 600`)},
	} {
		es := drainStore(t, st, q)
		want := cutoff
		if name == "btql-hull" {
			want = 600
		}
		if uint64(len(es)) != want {
			t.Fatalf("%s: %d events, want %d", name, len(es), want)
		}
		for _, e := range es {
			w := mkEntry(e.Stamp)
			if !reflect.DeepEqual(e, w) {
				t.Fatalf("%s: event %d corrupted: %+v", name, e.Stamp, e)
			}
		}
	}
	// (An ordered cold file past its stamp bound is cut off by the
	// early-exit rather than block-by-block pruning, so BlocksPruned is
	// asserted where TID/category vetoes run: TestAggregateColumnarSkips
	// and BenchmarkQuerySelectiveBTQL.)

	// And the corruption was real: an unbounded scan hits it.
	cur := st.Query(Query{})
	defer cur.Close()
	if _, err := tracer.Drain(cur, 64); err == nil {
		t.Fatal("unbounded scan read corrupted blocks without error")
	}
}

// copyDir copies the regular files of the src directories into a fresh
// temp directory.
func copyDir(t *testing.T, srcs ...string) string {
	t.Helper()
	dst := t.TempDir()
	for _, src := range srcs {
		ents, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(src, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// openV1V2Directory opens a copy of the two committed directories as
// one store: a v1 cold file (stamps 1–500), a v2 one (501–1100) and a
// row segment (1101–1200).
func openV1V2Directory(t *testing.T) *Store {
	t.Helper()
	dir := copyDir(t, filepath.Join("testdata", "cold-v1"), filepath.Join("testdata", "cold-v2"))
	// cold-v2's cold file replaced this row segment.
	if err := os.Remove(filepath.Join(dir, "seg-00000006.seg")); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestColdV1V2MixedDirectory: a store directory holding cold files of
// every format version — legacy v1 (frame-preserving), v2 (columnar,
// one payload section) and what the freezer writes today — the state of
// a deployment upgraded mid-retention — answers every query and
// aggregate identically to an all-hot reference store, and keeps
// freezing.
//
// Nothing writes v1 or v2 any more, so those are committed directories,
// each written by the last commit that had the writer:
// testdata/cold-v1 is what sealEvery(1..600, 100) + CompactCold left
// under tierCfg() (stamps 1–500 frozen into one v1 cold file, 501–600
// still a row segment); testdata/cold-v2 is what reopening that
// directory and running sealEvery(601..1200, 100) + CompactCold added
// to it (stamps 501–1100 frozen into one v2 cold file, 1101–1200 a row
// segment), so the two share a directory: the v1 file of the first, and
// everything of the second.
func TestColdV1V2MixedDirectory(t *testing.T) {
	st := openV1V2Directory(t)
	defer st.Close()
	sealEvery(t, st, 1201, 1800, 100)
	if _, err := st.CompactCold(); err != nil {
		t.Fatalf("CompactCold: %v", err)
	}
	versions := map[int]int{}
	for _, b := range st.ColdBlocks() {
		versions[b.Version]++
	}
	if versions[1] == 0 || versions[2] == 0 || versions[3] == 0 {
		t.Fatalf("directory does not hold every format version: %v", versions)
	}
	const events = 1800

	ref, err := Open(t.TempDir(), Config{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	appendRange(t, ref, 1, events)
	if err := ref.Seal(); err != nil {
		t.Fatal(err)
	}

	specs := []btql.AggSpec{
		{Kind: btql.AggCount},
		{Kind: btql.AggTopK, K: 3, Field: btql.FTID},
	}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"all", Query{}},
		{"fields", Query{Pred: where(btql.Between(btql.FStamp, 150, 0), btql.In(btql.FCore, []uint8{1, 2}))}},
		{"header-pred", Query{Pred: predOf(t, `category == 2 && core != 3`)}},
		{"stamp-pred", Query{Pred: predOf(t, `stamp >= 200 && stamp <= 1300`)}},
		{"payload-pred", Query{Pred: predOf(t, `payload contains "payload-77"`)}},
	} {
		got := drainStore(t, st, tc.q)
		want := drainStore(t, ref, tc.q)
		if len(want) == 0 {
			t.Fatalf("%s: reference matched nothing", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mixed directory returned %d events, reference %d",
				tc.name, len(got), len(want))
		}
		ga, missed, err := st.Aggregate(tc.q, specs)
		if err != nil || missed != 0 {
			t.Fatalf("%s: Aggregate: missed=%d err=%v", tc.name, missed, err)
		}
		wa, _, err := ref.Aggregate(tc.q, specs)
		if err != nil {
			t.Fatalf("%s: reference Aggregate: %v", tc.name, err)
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("%s: aggregate mismatch:\n got %+v\nwant %+v", tc.name, ga, wa)
		}
	}
}

// seedColumnarBlock returns the first columnar block of st's cold tier
// as the fuzzers' starting point: its directory entry, its on-disk
// header and its inflated meta section.
func seedColumnarBlock(f *testing.F, st *Store) (seed coldBlock, hdr, meta []byte) {
	f.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.segs {
		if !s.isCold() || len(s.blocks) == 0 || s.blocks[0].v2 == nil {
			continue
		}
		b := &s.blocks[0]
		raw, err := os.ReadFile(filepath.Join(st.loc, s.name))
		if err != nil {
			f.Fatal(err)
		}
		hdr = raw[b.off-blockHeaderV2Size : b.off]
		meta, err = io.ReadAll(flate.NewReader(bytes.NewReader(raw[b.off : b.off+b.v2.metaLen])))
		if err != nil {
			f.Fatal(err)
		}
		seed, err = decodeBlockHeaderV2(hdr)
		if err != nil {
			f.Fatalf("seed header does not decode: %v", err)
		}
		return seed, hdr, meta
	}
	f.Fatal("no columnar block to seed from")
	return
}

// fuzzColumnarDecode throws arbitrary bytes at the columnar block header
// and the meta-section decoders, chunk directory included: they must
// never panic, never size an allocation off a length they have not
// validated, and never accept structurally inconsistent columns,
// whatever the bytes claim.
func fuzzColumnarDecode(f *testing.F, seed coldBlock, hdr, meta []byte) {
	f.Add(append([]byte(nil), hdr...), append([]byte(nil), meta...))
	f.Add(append([]byte(nil), hdr...), []byte{})
	f.Add([]byte{}, append([]byte(nil), meta...))
	f.Add(append([]byte(nil), hdr...), meta[:len(meta)/2])
	f.Add(append([]byte(nil), hdr...), meta[:len(meta)-1])
	f.Add(append([]byte(nil), hdr...), append(append([]byte(nil), meta...), 0))
	f.Fuzz(func(t *testing.T, h, m []byte) {
		if b, err := decodeBlockHeaderV2(h); err == nil && b.meta.count <= 1<<16 {
			var cb decodedCols
			if derr := decodeColumns(m, &b, &cb); derr == nil {
				checkColumns(t, &b, &cb)
			}
		}
		// The meta bytes also run against the known-good header, so the
		// column decoder is exercised even when the fuzzed header fails
		// its CRC (as almost all mutations do).
		b := seed
		var cb decodedCols
		if err := decodeColumns(m, &b, &cb); err == nil {
			checkColumns(t, &b, &cb)
		}
	})
}

// FuzzColdBlockV2Decode fuzzes the decoders from a v2 block: the first
// of the committed testdata/cold-v2 directory, as nothing writes v2 any
// more.
func FuzzColdBlockV2Decode(f *testing.F) {
	dir := f.TempDir()
	for _, name := range []string{"col-00000006.blk", "seg-00000012.seg"} {
		data, err := os.ReadFile(filepath.Join("testdata", "cold-v2", name))
		if err != nil {
			f.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	st, err := Open(dir, tierCfg())
	if err != nil {
		f.Fatal(err)
	}
	seed, hdr, meta := seedColumnarBlock(f, st)
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	if seed.v2.version != 2 {
		f.Fatalf("testdata/cold-v2 holds a v%d block", seed.v2.version)
	}
	fuzzColumnarDecode(f, seed, hdr, meta)
}

// FuzzColdBlockV3Decode fuzzes the decoders from a v3 block of three
// payload chunks, so the chunk directory is part of what mutates.
func FuzzColdBlockV3Decode(f *testing.F) {
	st, err := Open(f.TempDir(), Config{SegmentBytes: 32 << 10, ColdAfterNs: 1, ColdBlockBytes: 16 << 10})
	if err != nil {
		f.Fatal(err)
	}
	var es []tracer.Entry
	for s := uint64(1); s <= 300; s++ {
		es = append(es, mkEntryTB(s))
	}
	if err := st.AppendEntries(es); err != nil {
		f.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		f.Fatal(err)
	}
	e := mkEntryTB(1000)
	e.TS = 1 << 40 // age everything sealed before it
	if err := st.AppendEntries([]tracer.Entry{e}); err != nil {
		f.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		f.Fatal(err)
	}
	if _, err := st.CompactCold(); err != nil {
		f.Fatal(err)
	}
	seed, hdr, meta := seedColumnarBlock(f, st)
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	if v := seed.v2; v.version != 3 || v.payChunks(seed.meta.count) < 3 {
		f.Fatalf("seed is a v%d block of %d chunks, want v3 and at least 3", v.version, v.payChunks(seed.meta.count))
	}
	fuzzColumnarDecode(f, seed, hdr, meta)
}

// decodedCols is a columnar meta section with every column decoded.
type decodedCols struct {
	colBlock
	payOff []uint32
	m      *metaSec
}

// decodeColumns runs the read path's two steps over an inflated meta
// section — parseMeta's validation, then each column's decoder — the
// way a scan that reads every column does.
func decodeColumns(meta []byte, b *coldBlock, cb *decodedCols) error {
	m, err := parseMeta(meta, b)
	if err != nil {
		return err
	}
	cb.m = m
	cb.stamps, cb.ts, cb.tids, cb.payOff = m.stamps(b), m.times(b), m.tids(), m.payOffsets()
	cb.cores, cb.levels = m.cores, m.levels
	cb.cats = make([]uint8, m.rows())
	cb.plens = make([]uint32, m.rows())
	for i := range cb.cats {
		cb.cats[i] = m.dict[m.catIdx[i]]
		cb.plens[i] = cb.payOff[i+1] - cb.payOff[i]
	}
	return nil
}

// checkColumns asserts the structural contract a successful
// decodeColumns promises: every column row-count matches the header,
// the payload prefix sum is monotonic and bounded, and the chunk
// directory tiles both the compressed payload section and the raw
// payloads, chunk boundaries on row boundaries.
func checkColumns(t *testing.T, b *coldBlock, cb *decodedCols) {
	t.Helper()
	n := int(b.meta.count)
	if len(cb.stamps) != n || len(cb.ts) != n || len(cb.cores) != n ||
		len(cb.cats) != n || len(cb.tids) != n || len(cb.levels) != n ||
		len(cb.plens) != n || len(cb.payOff) != n+1 {
		t.Fatalf("decoded columns inconsistent with count %d: stamps=%d ts=%d payOff=%d",
			n, len(cb.stamps), len(cb.ts), len(cb.payOff))
	}
	for i := 0; i < n; i++ {
		if cb.payOff[i+1] < cb.payOff[i] || uint64(cb.plens[i]) != uint64(cb.payOff[i+1]-cb.payOff[i]) {
			t.Fatalf("payload prefix sum broken at row %d", i)
		}
	}
	if int64(cb.payOff[n]) != b.v2.payRawLen {
		t.Fatalf("payload prefix sum %d != payRawLen %d", cb.payOff[n], b.v2.payRawLen)
	}
	m, chunks := cb.m, b.v2.payChunks(b.meta.count)
	if chunks == 0 {
		if len(m.chunkCRC) != 0 {
			t.Fatalf("a block without payloads has a directory of %d chunks", len(m.chunkCRC))
		}
		return
	}
	if len(m.chunkCRC) != chunks || len(m.chunkOff) != chunks+1 || len(m.chunkRaw) != chunks+1 ||
		int64(m.chunkOff[chunks]) != b.v2.payLen || int64(m.chunkRaw[chunks]) != b.v2.payRawLen {
		t.Fatalf("chunk directory of %d entries (ends %d packed, %d raw) does not tile %d chunks of %d packed, %d raw bytes",
			len(m.chunkCRC), m.chunkOff[len(m.chunkOff)-1], m.chunkRaw[len(m.chunkRaw)-1], chunks, b.v2.payLen, b.v2.payRawLen)
	}
	for k := 0; k < chunks; k++ {
		row := min(k*b.v2.chunkRows, n)
		if m.chunkOff[k+1] < m.chunkOff[k] || m.chunkRaw[k] != cb.payOff[row] ||
			(m.chunkOff[k+1] == m.chunkOff[k]) != (m.chunkRaw[k+1] == m.chunkRaw[k]) {
			t.Fatalf("chunk %d: packed [%d,%d) raw from %d, rows from %d start at payload byte %d",
				k, m.chunkOff[k], m.chunkOff[k+1], m.chunkRaw[k], row, cb.payOff[row])
		}
	}
}

// coldChunk locates one payload chunk of a v3 block on disk, with the
// stamps of the rows whose payloads it holds.
type coldChunk struct {
	path     string
	key      blockKey
	off, len int64
	stamps   []uint64
}

// coldChunksV3 snapshots the on-disk layout of every payload chunk of
// st's v3 blocks, read from each block's chunk directory.
func coldChunksV3(t *testing.T, st *Store) []coldChunk {
	t.Helper()
	var out []coldChunk
	for _, sn := range coldSnaps(st) {
		f, err := st.be.OpenRead(sn.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sn.blocks {
			b := &sn.blocks[i]
			if b.v2 == nil || b.v2.version != 3 {
				continue
			}
			m, err := st.metaCached(sn.name, f, b)
			if err != nil {
				t.Fatal(err)
			}
			stamps := m.stamps(b)
			for k := range m.chunkCRC {
				lo := k * b.v2.chunkRows
				out = append(out, coldChunk{
					path: filepath.Join(st.loc, sn.name),
					key:  blockKey{name: sn.name, off: b.off, sec: secPayload, chunk: int32(k)},
					off:  b.off + b.v2.metaLen + int64(m.chunkOff[k]), len: int64(m.chunkOff[k+1] - m.chunkOff[k]),
					stamps: stamps[lo:min(lo+b.v2.chunkRows, len(stamps))],
				})
			}
		}
		f.Close()
	}
	return out
}

// TestColdChunkCorruption is the proof by corruption for the chunk
// rung. A selective query's rows live in a few payload chunks; with
// every OTHER chunk of the cold tier corrupted on disk the query still
// answers exactly, payload bytes included — those chunks are never
// read, let alone inflated — and what it cached is the chunks it read.
// With a chunk a selected row lives in corrupted, the query fails with
// tracer.ErrCorrupt on every surface that wants the payload, the chunk
// is not cached, and a header-only aggregate over the same rows, which
// wants no payload, still answers.
func TestColdChunkCorruption(t *testing.T) {
	cfg := tierCfg()
	cfg.ColdBlockBytes = 32 << 10 // ~590-row blocks: five chunks each
	const wanted = `stamp in (77, 400, 401, 1033)`
	selected := map[uint64]bool{77: true, 400: true, 401: true, 1033: true}
	holds := func(c coldChunk) bool {
		return slices.ContainsFunc(c.stamps, func(s uint64) bool { return selected[s] })
	}
	// build freezes stamps 1..1200 and corrupts the chunks pick says to.
	build := func(t *testing.T, pick func(coldChunk) bool) (st *Store, corrupted []coldChunk) {
		dir := t.TempDir()
		st, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sealEvery(t, st, 1, 1300, 100)
		if _, err := st.CompactCold(); err != nil {
			t.Fatal(err)
		}
		chunks := coldChunksV3(t, st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if c.len > 0 && pick(c) {
				flipByte(t, c.path, c.off+c.len/2)
				corrupted = append(corrupted, c)
			}
		}
		if len(corrupted) == 0 || len(corrupted) == len(chunks) {
			t.Fatalf("corrupted %d of %d chunks; the fixture separates nothing", len(corrupted), len(chunks))
		}
		if st, err = Open(dir, cfg); err != nil { // recovery reads directory headers only
			t.Fatalf("Open after chunk corruption: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		return st, corrupted
	}
	cached := func(st *Store, c coldChunk) bool {
		st.bcache.mu.Lock()
		defer st.bcache.mu.Unlock()
		_, ok := st.bcache.m[c.key]
		return ok
	}
	count := []btql.AggSpec{{Kind: btql.AggCount}}

	t.Run("unselected chunks are never read", func(t *testing.T) {
		st, corrupted := build(t, func(c coldChunk) bool { return !holds(c) })
		q := Query{Pred: predOf(t, wanted)}
		for round := 0; round < 2; round++ { // cold, then from the cache
			es := drainStore(t, st, q)
			pc := st.QueryParallel(q, 2)
			pes, missed := drainParallel(t, pc, 3)
			pc.Close()
			if len(es) != len(selected) || missed != 0 || !reflect.DeepEqual(es, pes) {
				t.Fatalf("round %d: Query returned %d events, QueryParallel %d (missed %d), want %d", round, len(es), len(pes), missed, len(selected))
			}
			for _, e := range es {
				if !selected[e.Stamp] || !reflect.DeepEqual(e, mkEntry(e.Stamp)) {
					t.Fatalf("round %d: event %+v, want %+v", round, e, mkEntry(e.Stamp))
				}
			}
		}
		for _, c := range corrupted {
			if cached(st, c) {
				t.Fatalf("chunk %+v holds no selected row, yet it is cached", c.key)
			}
		}
		s := st.Stats()
		if s.PayloadChunksInflated != 3 || s.PayloadChunksSkipped == 0 || s.PayloadInflatedBytes == 0 {
			t.Fatalf("four rows in three chunks, read four times: inflated %d chunks (%d B), skipped %d; want 3 inflated once",
				s.PayloadChunksInflated, s.PayloadInflatedBytes, s.PayloadChunksSkipped)
		}
		// The corruption was real: a scan that wants every payload meets it.
		cur := st.Query(Query{})
		defer cur.Close()
		if _, err := tracer.Drain(cur, 64); !errors.Is(err, tracer.ErrCorrupt) {
			t.Fatalf("full scan over corrupted chunks: %v, want ErrCorrupt", err)
		}
	})

	t.Run("a selected chunk fails the query and is not cached", func(t *testing.T) {
		st, corrupted := build(t, func(c coldChunk) bool { return slices.Contains(c.stamps, 400) })
		q := Query{Pred: predOf(t, wanted)}
		for round := 0; round < 2; round++ {
			cur := st.Query(q)
			_, err := tracer.Drain(cur, 64)
			cur.Close()
			if !errors.Is(err, tracer.ErrCorrupt) {
				t.Fatalf("round %d: Query over a corrupt selected chunk: %v, want ErrCorrupt", round, err)
			}
			pc := st.QueryParallel(q, 2)
			_, err = tracer.Drain(pc, 64)
			pc.Close()
			if !errors.Is(err, tracer.ErrCorrupt) {
				t.Fatalf("round %d: QueryParallel over a corrupt selected chunk: %v, want ErrCorrupt", round, err)
			}
			if _, _, err := st.Aggregate(Query{Pred: predOf(t, wanted+` && payload contains "payload-4"`)}, count); !errors.Is(err, tracer.ErrCorrupt) {
				t.Fatalf("round %d: payload-predicate aggregate over a corrupt selected chunk: %v, want ErrCorrupt", round, err)
			}
			if cached(st, corrupted[0]) {
				t.Fatalf("round %d: the corrupt chunk was cached", round)
			}
		}
		// Its neighbours are fine, and a query that wants no payload byte
		// of it does not care.
		if es := drainStore(t, st, Query{Pred: predOf(t, `stamp == 77 || stamp == 1033`)}); len(es) != 2 {
			t.Fatalf("rows in intact chunks: %d events, want 2", len(es))
		}
		res, missed, err := st.Aggregate(q, count)
		if err != nil || missed != 0 || res[0].Events != uint64(len(selected)) {
			t.Fatalf("header-only aggregate: %+v, missed %d, err %v; want %d", res, missed, err, len(selected))
		}
	})
}
