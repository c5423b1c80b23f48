// Block cache: cold queries pay a DEFLATE inflate per stream touched,
// and a varint decode per wide column read, which would make every
// repeated analytical query over the cold tier redo the same work. The
// store keeps one bounded LRU, shared by every cursor and by
// Aggregate, of what those steps produce — each in the
// form the scan consumes it, each an entry of its own, created the first
// time a query needs it:
//
//	meta     a columnar block's inflated, validated meta section
//	         (*metaSec, ≈10 B/event), chunk directory included. The
//	         byte-wide columns — core, category index, level — are read
//	         from it in place.
//	column   one decoded wide column of a columnar block: stamps or
//	         times (8 B/event), TIDs or payload offsets (4 B/event).
//	         Decoded from the block's cached meta section, never from
//	         disk.
//	payload  one inflated payload chunk of a columnar block — the
//	         payloads of 128 rows in v3; a v2 block's one stream is its
//	         chunk 0 — or a whole inflated v1 block (frames, payloads
//	         included).
//	partial  one sealed segment's fold of one aggregate: the
//	         aggregators, one per spec, that a scan of the whole segment
//	         — row or cold — left (aggregate.go). Charged the structs and
//	         16 B a rate bucket or counted topk value: a count() is
//	         ≈ 230 B a segment. Merged from, never into.
//	headers  one segment's set (scan.go): rows as frame headers
//	         keep them — stamp, time and header word 3 (core, TID,
//	         category, level, payload length), 24 B a row — stably
//	         sorted by stamp: what a length-only cursor reads of the
//	         segment, in place (parallel.go). A row segment's header
//	         set holds every frame's, each of which passed the magic,
//	         checksum and length-bound checks before the set was built;
//	         the active segment's, every frame's up to one extent.
//	         A cold segment's filtered set holds the rows that pass one
//	         filter less its stamp and time comparisons, as the column
//	         walker found them over every block; it is admitted only
//	         if no larger than the segment's inflated meta sections,
//	         and one that is larger leaves an empty entry in its place
//	         that sends later passes to walk.
//	text     one set's rendering in one export format (Store.setText):
//	         the text the format's row kernel makes of every row of a
//	         header set or a filtered set, back to back, and where each row's text ends (4 B a row).
//	         It stands for the rows as a CSV export consumes them: a pass
//	         that tests no row of the set hands its stretches over as
//	         text, and the export writes them as they are (parallel.go).
//	         Built by the first such pass over the whole set, it is
//	         admitted only if no larger than the frames of the rows it
//	         renders — a bound the set sets, with no knob — and one that
//	         is larger leaves an empty entry in its place, as a filtered
//	         set does.
//
// What a query caches is therefore what it reads: `category == C |
// count()` leaves meta sections and time columns behind (the result
// carries min/max time) and a partial per sealed segment, a selective
// materialising query leaves the chunks its rows live in and not their
// neighbours, a wide materialising scan that keeps payload bytes (a
// text export) leaves everything, one that reads their lengths only
// (Query.LengthsOnly: a CSV or Chrome export) leaves meta sections and
// columns, the payload offsets among them, and no chunk, and the header
// set of every sealed row segment it reads to its end — and the second
// such scan finds every column decoded and every set built; under a
// filter such as `tid == T` it leaves a filtered set of every cold
// segment it reads, and the second finds those. A CSV export leaves
// the text of each set it reads every row of, a one-off export
// included, under the text's bound. Nothing is cached on
// behalf of a query that did not ask for it — which is also what the
// budget buys: chunks somebody read, not sections somebody was forced
// to inflate to get at one row, nor payloads an exporter was handed and
// never printed.
//
// A partial stands for all of the above at once: a fold that finds one
// looks up no section of the segment, and opens no file. A set stands
// for what a length-only cursor reads of a segment: a cursor that finds
// one opens no file either, and a file deleted under its snapshot is
// read from the set. These two are the kinds that are not of a cold
// block, and their keys show why none of the kinds needs invalidating.
// The others are keyed by a cold file's name, and a cold file is
// written once under a name the store never gives out again; a row
// segment's name is not given out again either. A partial and a set are
// keyed by name and extent (bytes of a row segment — the active one's
// frames up to an extent never change — blocks of a cold one), which
// between them say what the rows are, and by the
// filter they were folded or selected under (agg): a partial's residual
// and specs, a filtered set's residual, none for a header set; a text
// by its set's key and the format's name. Freezes
// and retention take a name out of the snapshots that follow; the
// entries left behind are never asked for and age out of the LRU. Folds
// under an Ownership (the cluster's pushdown) and stores opened without
// a cache bypass partials altogether; stores without a cache keep no
// sets.
//
// A header set is needed by a length-only cursor pass that would read
// the sealed extent to its end, with no ordered cut: it builds the set
// instead, from the first frame even where it seeks into the segment.
// A point query that stops before the segment's end, or that seeks
// into it under a limit below the frames past the seek, never builds one, and
// aggregates never walk for one: their partials serve them. The active
// segment's header set is built by a pass whose window holds every
// stamp of the segment, up to the snapshot's extent and keyed by it —
// the key of the sealed segment's set, should the segment seal there —
// and a fold reads it in place of the frames. A set of an extent the
// segment has grown past is never asked for again and ages out of the
// LRU. A filtered set is built by the first length-only pass under its filter that
// reads the cold segment at all, over every block whatever the pass's
// window: the set serves the windows after it. Its admission bound —
// the meta sections, ≈ 10 B a row, that a walk of the segment caches
// anyway — keeps the set of a broad filter, a large share of the
// segment's rows at 24 B each, from filling the cache, and needs no
// knob.
//
// Ownership: every cached value is immutable from the moment it is
// inserted. Scans alias them (entries handed to callers may point into a
// cached payload chunk) and never write to them, which is what lets
// any number of concurrent scans share one copy without a lock held
// past the lookup; eviction only drops the cache's reference — a value
// still aliased by a live cursor stays valid until the GC collects it.

package store

import (
	"bytes"
	"container/list"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// defaultColdCacheBytes is the block-cache budget when
// Config.ColdCacheBytes is zero.
const defaultColdCacheBytes = 32 << 20

// section names one cacheable part of a cold block.
type section uint8

const (
	secMeta section = iota
	secStamps
	secTimes
	secTIDs
	secPayOff
	secPayload // one payload chunk; also a whole v1 block
	secPartial // one sealed segment's fold of one aggregate
	secHeaders // one sealed segment's set
	secText    // one set's rendering
)

// cacheClass groups sections for the counters: one inflate each for
// meta and payload, one decode for a column, one segment fold for a
// partial, one verified walk of a sealed row segment for a header set,
// one rendering of a set for its text.
type cacheClass uint8

const (
	classMeta cacheClass = iota
	classColumn
	classPayload
	classPartial
	classHeaders
	classText
	numClasses
)

var classNames = [numClasses]string{"meta", "column", "payload", "partial", "headers", "text"}

func (s section) class() cacheClass {
	switch s {
	case secMeta:
		return classMeta
	case secPayload:
		return classPayload
	case secPartial:
		return classPartial
	case secHeaders:
		return classHeaders
	case secText:
		return classText
	}
	return classColumn
}

// blockKey identifies one cacheable part of one cold block: the file it
// lives in, the block's offset (unique within the file), the section,
// and for secPayload the chunk of it (0 elsewhere). A secPartial, a
// secHeaders or a secText is a whole segment's: off is the segment's
// extent (segSnap's bound), sealed but for the active segment's header
// set and its rendering, and agg is, for a partial,
// the aggregate folded over it, residual filter and specs
// (AggSnapshot.fold), for a filtered set its residual filter
// (compiled.setKey), and for a rendering the format's name, a colon and
// its set's agg; agg is empty elsewhere, a header set's included.
type blockKey struct {
	name  string
	off   int64
	sec   section
	chunk int32
	agg   string
}

// cacheEnt is one cached part, in the one field its section uses. size
// is its budget charge: the bytes the value holds.
type cacheEnt struct {
	key  blockKey
	size int64
	data []byte             // secPayload; secText: the rows' text back to back
	meta *metaSec           // secMeta
	u64  []uint64           // secStamps, secTimes
	u32  []uint32           // secTIDs, secPayOff; secText: where each row's text ends
	aggs []*btql.Aggregator // secPartial: one per spec, merged from, never into
	hdrs []hdrRow           // secHeaders
	// walk marks, under a filtered set's key, a set too large to admit
	// (secHeaders, hdrs nil), and under a rendering's a text too large
	// (secText, data nil).
	walk bool
}

// blockCache is the store-wide LRU. A nil *blockCache is a valid
// always-miss cache (caching disabled) that counts nothing.
type blockCache struct {
	mu   sync.Mutex
	max  int64
	size int64
	lru  *list.List                 // front = most recently used
	m    map[blockKey]*list.Element // value: *cacheEnt
	cacheCounters
}

// cacheCounters are the cache's counters per class: lookups served,
// lookups that had to produce the value (an inflate, for a column a
// decode, for a header set a build), and resident bytes.
type cacheCounters struct {
	hits, misses [numClasses]uint64
	resident     [numClasses]int64
}

func newBlockCache(max int64) *blockCache {
	return &blockCache{max: max, lru: list.New(), m: make(map[blockKey]*list.Element)}
}

// get returns the cached entry, or nil on a miss.
func (bc *blockCache) get(k blockKey) *cacheEnt {
	if bc == nil {
		return nil
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if el, ok := bc.m[k]; ok {
		bc.lru.MoveToFront(el)
		bc.hits[k.sec.class()]++
		return el.Value.(*cacheEnt)
	}
	bc.misses[k.sec.class()]++
	return nil
}

// put caches ent and evicts past the budget, oldest first. Two scans
// racing on the same miss both produce the value; the first insert wins
// and the loser's copy is simply not cached.
func (bc *blockCache) put(ent *cacheEnt) {
	if !bc.fits(ent.size) {
		return
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if _, ok := bc.m[ent.key]; ok {
		return
	}
	bc.m[ent.key] = bc.lru.PushFront(ent)
	bc.size += ent.size
	bc.resident[ent.key.sec.class()] += ent.size
	for bc.size > bc.max {
		bc.remove(bc.lru.Back())
	}
}

// remove drops one entry. Caller holds bc.mu.
func (bc *blockCache) remove(el *list.Element) {
	ent := bc.lru.Remove(el).(*cacheEnt)
	delete(bc.m, ent.key)
	bc.size -= ent.size
	bc.resident[ent.key.sec.class()] -= ent.size
}

// reset drops the entries of one class; it leaves the hit and miss
// counters, which are monotonic, alone. No entry ever needs dropping:
// benchmarks call it to start a pass cold.
func (bc *blockCache) reset(class cacheClass) {
	if bc == nil {
		return
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for el := bc.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEnt).key.sec.class() == class {
			bc.remove(el)
		}
		el = next
	}
}

// fits reports whether an entry of size bytes could be cached at all.
func (bc *blockCache) fits(size int64) bool { return bc != nil && size <= bc.max }

// headerSet looks up the set k names (scan.go, Store.headerSet). A
// resident set is a hit; so is the entry a filtered set too large to
// admit left in its place, which hands the caller no set and leaves it
// to walk. Otherwise build reports whether the caller builds the set —
// the miss — and admits it with put.
func (bc *blockCache) headerSet(k blockKey, build bool) (rows []hdrRow, hit, builds bool) {
	if bc == nil {
		return nil, false, false
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if el, ok := bc.m[k]; ok {
		bc.lru.MoveToFront(el)
		bc.hits[classHeaders]++
		ent := el.Value.(*cacheEnt)
		return ent.hdrs, !ent.walk, false
	}
	if build {
		bc.misses[classHeaders]++
	}
	return nil, false, build
}

// setText returns the rendering by r of the set k names, rows, through
// the cache: the rows' text back to back, and where each row's ends.
// The first pass to ask renders the whole set, and admits the text if
// it is no larger than the frames of the rows it renders — a bound the
// set itself sets, under the cache's budget — or else leaves an entry
// that says so. nil for such a set: its passes render what they read.
func (st *Store) setText(k blockKey, r tracer.Renderer, rows []hdrRow) (text []byte, ends []uint32) {
	k.sec, k.agg = secText, r.Format()+":"+k.agg
	if ent := st.bcache.get(k); ent != nil {
		return ent.data, ent.u32
	}
	var frames int64
	for i := range rows {
		_, _, _, _, plen := tracer.UnpackWord3(rows[i].w3)
		frames += int64(tracer.EventWireSize(plen) + tailSize)
	}
	ent := &cacheEnt{key: k, walk: true, size: textSize(0, 0)}
	if frames <= math.MaxInt32 { // so that the 4-byte row ends cannot overflow
		if text, ends = renderRows(r, rows, frames); text != nil && st.bcache.fits(textSize(len(text), len(ends))) {
			ent.data, ent.u32, ent.walk, ent.size = text, ends, false, textSize(len(text), len(ends))
		}
	}
	st.bcache.put(ent)
	return ent.data, ent.u32
}

// textSize is a rendering's budget charge: its text, its row ends and
// its entry.
func textSize(bytes, rows int) int64 {
	return int64(unsafe.Sizeof(cacheEnt{})) + int64(bytes) + 4*int64(rows)
}

// renderRows renders rows with r, a batch of entries at a time, and
// gives up, returning nil, once the text and its row ends outgrow limit
// bytes.
func renderRows(r tracer.Renderer, rows []hdrRow, limit int64) (text []byte, ends []uint32) {
	var batch [128]tracer.Entry
	ends = make([]uint32, 0, len(rows))
	for len(rows) > 0 {
		es := batch[:min(len(rows), len(batch))]
		for i := range es {
			rows[i].entry(&es[i])
		}
		if text, ends = r.AppendRows(text, ends, es); int64(len(text)+4*len(ends)) > limit {
			return nil, nil
		}
		rows = rows[len(es):]
	}
	// AppendRows grows text as append does: what is charged is what is
	// held.
	return slices.Clip(bytes.Clone(text)), ends
}

func (bc *blockCache) classCounters() cacheCounters {
	if bc == nil {
		return cacheCounters{}
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.cacheCounters
}

// sections reports section reads served from the cache and section reads
// that had to inflate. Column lookups are in neither: a column is
// decoded from a cached meta section, and that lookup was counted. Nor
// are partials: a partial served is sections never looked up.
func (c cacheCounters) sections() (hits, misses uint64) {
	return c.hits[classMeta] + c.hits[classPayload], c.misses[classMeta] + c.misses[classPayload]
}

// inflateCached returns the frames of v1 block b of cold file name
// decompressed, through the cache. The returned buffer is shared and
// read-only.
func (st *Store) inflateCached(name string, f io.ReaderAt, b *coldBlock) ([]byte, error) {
	k := blockKey{name: name, off: b.off, sec: secPayload}
	if ent := st.bcache.get(k); ent != nil {
		return ent.data, nil
	}
	out, err := readInflate(f, b.off, b.compLen, b.rawLen, b.crc)
	if err != nil {
		return nil, err
	}
	st.bcache.put(&cacheEnt{key: k, data: out, size: int64(len(out))})
	return out, nil
}

// metaCached returns a columnar block's meta section, inflated and
// validated, through the cache. The checksum of the compressed bytes is
// verified before the inflate and the whole section structurally after
// it (parseMeta), so whatever the cache holds can be trusted by every
// later reader; a section that fails either is never cached.
func (st *Store) metaCached(name string, f io.ReaderAt, b *coldBlock) (*metaSec, error) {
	k := blockKey{name: name, off: b.off, sec: secMeta}
	if ent := st.bcache.get(k); ent != nil {
		return ent.meta, nil
	}
	raw, err := readInflate(f, b.off, b.v2.metaLen, b.v2.metaRawLen, b.v2.metaCRC)
	if err != nil {
		return nil, err
	}
	m, err := parseMeta(raw, b)
	if err != nil {
		return nil, err
	}
	st.bcache.put(&cacheEnt{key: k, meta: m, size: int64(len(raw) + 4*(len(m.chunkOff)+len(m.chunkRaw)+len(m.chunkCRC)))})
	return m, nil
}

// getChunks looks up payload chunks need of the block k names, under
// one lock: pay[c] is set for the ones resident, the others are
// appended to miss.
func (bc *blockCache) getChunks(k blockKey, need []int32, pay [][]byte, miss []int32) []int32 {
	if bc == nil {
		return append(miss, need...)
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, c := range need {
		k.chunk = c
		if el, ok := bc.m[k]; ok {
			bc.lru.MoveToFront(el)
			bc.hits[classPayload]++
			pay[c] = el.Value.(*cacheEnt).data
		} else {
			bc.misses[classPayload]++
			miss = append(miss, c)
		}
	}
	return miss
}

// chunksCached makes payload chunks need (ascending) of columnar block
// b resident in pay, through the cache. The misses are read with one
// ReadAt per run of chunks adjacent on disk; each chunk's compressed
// bytes are checksummed before it is inflated, into a buffer sized from
// the validated directory, and each is cached as an entry of its own. A
// chunk that fails is never cached and fails the call. miss is scratch;
// it is returned for reuse.
func (st *Store) chunksCached(name string, f io.ReaderAt, b *coldBlock, m *metaSec, need []int32, pay [][]byte, miss []int32) ([]int32, error) {
	k := blockKey{name: name, off: b.off, sec: secPayload}
	miss = st.bcache.getChunks(k, need, pay, miss[:0])
	base := b.off + b.v2.metaLen // the payload section follows the meta section
	var chunks, bytes uint64
	defer func() {
		st.obs.chunksInflated.Add(chunks)
		st.obs.inflatedBytes.Add(bytes)
	}()
	for i := 0; i < len(miss); {
		// The run: chunks whose compressed bytes follow one another (an
		// empty chunk between two takes no room and is never needed).
		j, lo, hi := i+1, m.chunkOff[miss[i]], m.chunkOff[miss[i]+1]
		for j < len(miss) && m.chunkOff[miss[j]] == hi {
			hi = m.chunkOff[miss[j]+1]
			j++
		}
		comp, err := readComp(f, base+int64(lo), int64(hi-lo))
		if err != nil {
			return miss, err
		}
		for ; i < j; i++ {
			c := miss[i]
			raw := int64(m.chunkRaw[c+1] - m.chunkRaw[c])
			out, err := inflate((*comp)[m.chunkOff[c]-lo:m.chunkOff[c+1]-lo], raw, m.chunkCRC[c])
			if err != nil {
				compBufs.Put(comp)
				return miss, err
			}
			k.chunk = c
			st.bcache.put(&cacheEnt{key: k, data: out, size: raw})
			pay[c] = out
			chunks++
			bytes += uint64(raw)
		}
		compBufs.Put(comp)
	}
	return miss, nil
}

// wide64Cached returns the stamp or time column of a columnar block decoded,
// through the cache; a miss decodes it from the block's meta section m.
func (st *Store) wide64Cached(name string, b *coldBlock, m *metaSec, sec section) []uint64 {
	k := blockKey{name: name, off: b.off, sec: sec}
	if ent := st.bcache.get(k); ent != nil {
		return ent.u64
	}
	var col []uint64
	if sec == secStamps {
		col = m.stamps(b)
	} else {
		col = m.times(b)
	}
	st.bcache.put(&cacheEnt{key: k, u64: col, size: int64(8 * len(col))})
	return col
}

// wide32Cached is wide64Cached for the TID and payload-offset columns.
func (st *Store) wide32Cached(name string, b *coldBlock, m *metaSec, sec section) []uint32 {
	k := blockKey{name: name, off: b.off, sec: sec}
	if ent := st.bcache.get(k); ent != nil {
		return ent.u32
	}
	var col []uint32
	if sec == secTIDs {
		col = m.tids()
	} else {
		col = m.payOffsets()
	}
	st.bcache.put(&cacheEnt{key: k, u32: col, size: int64(4 * len(col))})
	return col
}
