// The Store value: Open, which recovers every segment it finds, the
// segment list, rotation, retention and Close. A segment header is
// rewritten only when the segment seals and is never trusted for
// counters: Open rebuilds each segment's metadata and its sparse index
// (one (stamp, offset) entry per 64 frames) from the frames themselves.
// Open takes the backend's exclusive lock because recovery truncates
// and deletes files; the kernel drops a directory's flock if its holder
// dies. Retention removes whole sealed files, so it is atomic.

package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrace/internal/obs"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Config configures a Store. Zero values select the documented defaults.
type Config struct {
	// SegmentBytes is the rotation threshold: the active segment seals
	// once appending would push it past this size (default 1 MiB). A
	// single record larger than the threshold still gets a segment of
	// its own rather than being rejected.
	SegmentBytes int64
	// MaxBytes bounds the store's total on-disk size; beyond it the
	// oldest sealed segments are deleted, whole files at a time
	// (0 = unlimited). The active segment is never deleted.
	MaxBytes int64
	// MaxAgeNs bounds retention by virtual age: sealed segments whose
	// newest timestamp trails the store's newest timestamp by more than
	// this are deleted (0 = unlimited).
	MaxAgeNs uint64
	// CommitEvery is the active segment's group-commit timer: how long
	// its written-but-unsynced bytes may sit before a commit fsyncs them.
	// With 0 there is no timer, and the active segment is durable at the
	// next Sync, Seal or Close. Either way a sealed segment is fsynced as
	// its seal finalizes.
	CommitEvery time.Duration

	// CompactInterval starts a background compactor goroutine that runs
	// a freeze pass (CompactTick) this often (0 = no background
	// compaction; CompactCold stays available manually).
	CompactInterval time.Duration
	// ColdAfterNs is the freeze age threshold: sealed row segments whose
	// newest timestamp trails the store's newest timestamp by more than
	// this are compressed into the cold tier (0 = never freeze).
	ColdAfterNs uint64
	// ColdBlockBytes is the raw-bytes-per-block target of cold files
	// (default 256 KiB). Bigger blocks compress better; smaller blocks
	// prune at finer grain.
	ColdBlockBytes int
	// ColdFileBytes caps one freeze run's raw bytes, bounding cold file
	// size and keeping frozen data spread over enough files for parallel
	// queries (default 4 × SegmentBytes).
	ColdFileBytes int64
	// ColdCacheBytes bounds the shared block cache that spares repeated
	// cold queries from re-inflating the same blocks, repeated aggregates
	// from refolding sealed segments and repeated length-only reads from
	// rewalking sealed row segments, or cold ones under the same filter
	// (default 32 MiB; negative disables caching).
	ColdCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.ColdBlockBytes <= 0 {
		c.ColdBlockBytes = defaultColdBlockBytes
	}
	if c.ColdFileBytes <= 0 {
		c.ColdFileBytes = 4 * c.SegmentBytes
	}
	if c.ColdCacheBytes == 0 {
		c.ColdCacheBytes = defaultColdCacheBytes
	}
	return c
}

// Stats counts what the store absorbed and survived.
type Stats struct {
	Appends       uint64 // events appended
	BytesAppended uint64 // frame bytes appended
	Seals         uint64 // segments sealed (rotation or Close)

	SegmentsDeleted uint64 // segments removed by retention
	EventsRetired   uint64 // events removed by retention

	ColdCompactions  uint64 // freeze passes that produced a cold file
	SegmentsFrozen   uint64 // row segments consumed by freezing
	ColdBlocksBuilt  uint64 // blocks written into cold files
	ColdBytesWritten uint64 // compressed bytes written to the cold tier
	ColdRawBytes     uint64 // raw frame bytes those blocks held
	FreezeNs         uint64 // wall time spent building the committed cold files
	CompactorErrors  uint64 // background compactor ticks that failed

	BlockCacheHits   uint64 // cold section reads served from the cache
	BlockCacheMisses uint64 // cold section reads that had to inflate
	// Sealed segments an aggregate was handed from the block cache
	// already folded, and those it had to scan (and cached the fold of).
	AggPartialHits   uint64
	AggPartialMisses uint64

	BlocksPruned uint64 // cold blocks skipped on header metadata alone
	PayloadSkips uint64 // columnar blocks scanned without inflating a payload byte
	// The chunk rung: payload chunks a scan inflated and the raw bytes
	// that produced, and chunks of scanned blocks no wanted row lives in.
	PayloadChunksInflated uint64
	PayloadChunksSkipped  uint64
	PayloadInflatedBytes  uint64

	RecoveredTruncations uint64 // segments truncated at open (torn tails)
	TornBytesDropped     uint64 // bytes cut by those truncations
	LeftoverSegments     uint64 // interrupted tier-transition leftovers deleted at open
	HeadersRebuilt       uint64 // corrupt headers rebuilt at open from a frame scan
	OrphansRemoved       uint64 // unrecognized/temporary files removed at open
}

// Store is a segmented trace store over a backend. All methods are safe
// for concurrent use. An appender writes its own batch; seal fsyncs and
// retention run on a maintenance goroutine (see pipeline.go); tier
// transitions run on the optional compactor goroutine (see
// compactor.go).
type Store struct {
	be  backend.Backend
	loc string
	cfg Config

	// maint is the seal finalization queue; maintWG joins its goroutine
	// at Close.
	maint   maintenance
	maintWG sync.WaitGroup

	// commitMu serializes commits (see commit). commitArmed is set while
	// a CommitEvery timer is pending.
	commitMu    sync.Mutex
	commitArmed atomic.Bool
	// werr is the write path's sticky error, nil until a write, a
	// commit or a seal finalization fails. closed is set, under mu, when
	// Close begins. Both are read without a lock (WriteErr, Pressure).
	werr   atomic.Pointer[error]
	closed atomic.Bool

	// compactStop/compactWG manage the background compactor goroutine
	// (nil channel = not running); compactOnce makes stopping idempotent.
	compactStop chan struct{}
	compactWG   sync.WaitGroup
	compactOnce sync.Once

	// bcache is the shared decompressed-block cache for the cold tier
	// (nil = caching disabled); it has its own lock and is safe to use
	// without st.mu.
	bcache *blockCache

	mu sync.Mutex
	// freezeMu serializes whole freeze passes (CompactCold releases
	// st.mu during compression I/O, so without it two concurrent passes
	// — the background ticker plus a foreground call — could select the
	// same run and clobber each other's tmp file).
	freezeMu sync.Mutex
	// coldW is the freezer's writer, kept between runs for its buffers;
	// only a freeze pass (freezeMu) touches it.
	coldW   coldWriterV2
	lock    io.Closer  // held backend lock, released by Close
	segs    []*segment // ascending seq; the last may be active
	active  backend.File
	nextSeq uint64
	// stats is the one home of the counts kept under mu; public mutating
	// operations publish a copy to obs on exit (see obs.go).
	stats Stats
	// tiers are the segment list's running totals per tier (obs.go).
	tiers [2]tierTally
	obs   *storeObs
	obsID uint64

	// ewmaAppend / ewmaFsync are recent-latency averages exported to the
	// overload controller via Pressure (see pressure.go).
	ewmaAppend ewma
	ewmaFsync  ewma
}

// Open opens (creating if necessary) the store in dir over the local
// directory backend and recovers it: stray temp files are removed (and
// counted), every segment is scanned, torn tails are truncated, and
// leftovers of an interrupted tier transition are deleted. Open holds
// the backend's exclusive store lock until Close; a second Open (from
// this or any other process, where that is meaningful) fails fast
// rather than letting two recoveries truncate each other's files.
func Open(dir string, cfg Config) (*Store, error) {
	be, err := local.New(dir)
	if err != nil {
		return nil, err
	}
	return OpenBackend(be, cfg)
}

// OpenBackend is Open over an explicit backend.
func OpenBackend(be backend.Backend, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	st := &Store{be: be, loc: be.Location(), cfg: cfg, nextSeq: 1, obs: newStoreObs()}
	if cfg.ColdCacheBytes > 0 {
		st.bcache = newBlockCache(cfg.ColdCacheBytes)
	}
	st.obs.bcache = st.bcache
	var err error
	if st.lock, err = be.Lock(); err != nil {
		return nil, err
	}
	// The maintenance goroutine idles until the first rotation, so
	// starting it before recovery is safe — and it lets every error path
	// below clean up through the one Close implementation.
	st.maint.cond.L = &st.maint.mu
	st.maintWG.Add(1)
	go st.maintLoop()
	names, err := be.List("")
	if err != nil {
		st.Close()
		return nil, err
	}
	type entry struct {
		seq  uint64
		cold bool
		name string
	}
	var entries []entry
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			// Interrupted tier transition: the result was never renamed
			// in, so the sources are intact. Count it rather than
			// deleting silently.
			be.Remove(name)
			st.stats.OrphansRemoved++
			continue
		}
		var seq uint64
		switch {
		case parseName(name, "seg-%d.seg", &seq):
			entries = append(entries, entry{seq: seq, name: name})
		case parseName(name, "col-%d.blk", &seq):
			entries = append(entries, entry{seq: seq, cold: true, name: name})
		}
	}
	// Ascending seq; at equal seq the cold file sorts first, so the
	// leftover rule below sees the committed freeze result before the
	// stale source it covers.
	slices.SortFunc(entries, func(a, b entry) int {
		switch {
		case a.seq != b.seq:
			return cmp.Compare(a.seq, b.seq)
		case a.cold == b.cold:
			return 0
		case a.cold:
			return -1
		default:
			return 1
		}
	})
	// Every row segment's walk reads through the one span buffer.
	rs := &recoverySink{buf: newChunk(false)}
	defer globalChunks.Put(rs.buf)
	for i, en := range entries {
		last := i == len(entries)-1
		var rerr error
		if en.cold {
			rerr = st.recoverCold(en.seq, en.name)
		} else {
			rerr = st.recoverSegment(en.seq, en.name, last, rs)
		}
		if rerr != nil {
			st.Close()
			return nil, rerr
		}
		if en.seq >= st.nextSeq {
			st.nextSeq = en.seq + 1
		}
	}
	// A last cold file (or a row segment an earlier version merged) may
	// cover source seqs past its own file name (its sources were already
	// deleted); never reissue a covered seq, or a later recovery would
	// mistake the new segment for a leftover of that transition.
	if s := st.lastSeg(); s != nil && s.coversThrough >= st.nextSeq {
		st.nextSeq = s.coversThrough + 1
	}
	for _, s := range st.segs {
		st.addSegLocked(s, 1)
	}
	st.publishObsLocked() // surface the recovery counters
	st.registerObs()
	if cfg.CompactInterval > 0 {
		st.compactStop = make(chan struct{})
		st.compactWG.Add(1)
		go st.compactorLoop()
	}
	return st, nil
}

// parseName matches name against a Sscanf file-name pattern with a
// nonzero seq.
func parseName(name, pattern string, seq *uint64) bool {
	*seq = 0
	_, err := fmt.Sscanf(name, pattern, seq)
	return err == nil && *seq != 0
}

// recoverSegment opens, scans and (if needed) truncates one row segment,
// appending it to the store unless it is empty or a tier-transition
// leftover. rs is the walk's sink, shared by every segment Open
// recovers.
func (st *Store) recoverSegment(seq uint64, name string, last bool, rs *recoverySink) error {
	s := &segment{seq: seq, coversThrough: seq, name: name}
	f, err := st.be.OpenRW(name)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	if size < headerSize {
		// Too short to hold even a header: a segment creation that never
		// completed. No frame can survive; drop it.
		if size > 0 {
			st.stats.RecoveredTruncations++
			st.stats.TornBytesDropped += uint64(size)
		}
		f.Close()
		st.be.Remove(name)
		return nil
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil && err != io.EOF {
		f.Close()
		return err
	}
	_, covers, sealed, herr := decodeHeader(hdr)
	headerOK := herr == nil
	if headerOK {
		s.sealed = sealed
		if covers > seq {
			s.coversThrough = covers
		}
	}
	// The frame walk never trusts the header — it rebuilds the metadata
	// and finds the exact truncation point whether or not the header
	// decoded. Frames are independently CRC-framed, so a torn in-place
	// header rewrite (sealActiveLocked) costs the header alone, never
	// the records behind it. Only a frame that fails its checks ends the
	// valid prefix: a read error fails Open with the file as it was, for
	// bytes that could not be read are not bytes known to be torn.
	rs.s, rs.off = s, headerSize
	if _, err := st.walk(&everyFrame, wholeSnap(size), f, rs); err != nil && !errors.Is(err, tracer.ErrCorrupt) {
		f.Close()
		return err
	}
	valid := rs.off
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return err
		}
		st.stats.RecoveredTruncations++
		st.stats.TornBytesDropped += uint64(size - valid)
		// A truncated segment is no longer what its seal described.
		s.sealed = false
	}
	s.size = valid
	s.rawSize = valid

	if !headerOK {
		if s.meta.count == 0 {
			// No header and no whole frames: not (or no longer) a segment.
			f.Close()
			st.be.Remove(name)
			st.stats.OrphansRemoved++
			return nil
		}
		// Valid frames behind a corrupt header (e.g. a seal's header
		// rewrite torn by a crash): rebuild the header from the scan
		// instead of discarding the segment.
		encodeHeader(hdr, &s.meta, s.coversThrough, false)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return err
		}
		s.sealed = false
		st.stats.HeadersRebuilt++
	}

	if s.meta.count == 0 && !last {
		// Empty interior segment: nothing to keep.
		f.Close()
		st.be.Remove(name)
		return nil
	}

	// Interrupted tier-transition leftover: a freeze renames the result
	// — whose header names the source seqs it consumed via coversThrough
	// — before deleting those sources (as did the row-segment merge of
	// earlier versions, whose results reopen as hot segments). A source
	// file that survived the crash is exactly a segment whose seq the
	// previous recovered segment explicitly covers; nothing else is ever
	// deleted, so independent runs that happen to repeat a stamp range
	// coexist.
	if prev := st.lastSeg(); prev != nil && prev.coversThrough >= seq {
		f.Close()
		st.be.Remove(name)
		st.stats.LeftoverSegments++
		return nil
	}

	if !s.sealed && last {
		st.active = f // resume appending where the crash left off
	} else {
		s.sealed = true // an unsealed interior segment can never grow again
		f.Close()
	}
	st.segs = append(st.segs, s)
	return nil
}

// recoverCold opens one cold block file and rebuilds its block
// directory. Cold files are only ever committed whole (tmp → sync →
// rename), so there is no torn-tail recovery: a file whose header does
// not validate is not a committed cold file and is removed as an
// orphan; a block that fails to validate ends the trustworthy prefix.
func (st *Store) recoverCold(seq uint64, name string) error {
	f, err := st.be.OpenRead(name)
	if err != nil {
		return err
	}
	defer f.Close()
	s := &segment{seq: seq, coversThrough: seq, name: name, tier: TierCold, sealed: true}
	size, err := f.Size()
	if err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	if size < headerSize {
		st.be.Remove(name)
		st.stats.OrphansRemoved++
		return nil
	}
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return err
	}
	_, covers, _, herr := decodeHeaderMagic(hdr, coldMagic)
	if herr != nil {
		st.be.Remove(name)
		st.stats.OrphansRemoved++
		return nil
	}
	if covers > seq {
		s.coversThrough = covers
	}
	ignored, err := scanColdFile(f, size, s)
	if err != nil {
		return err
	}
	if ignored > 0 {
		st.stats.RecoveredTruncations++
		st.stats.TornBytesDropped += uint64(ignored)
	}
	s.size = size - ignored
	if s.meta.count == 0 {
		st.be.Remove(name)
		st.stats.OrphansRemoved++
		return nil
	}
	if prev := st.lastSeg(); prev != nil && prev.coversThrough >= seq {
		st.be.Remove(name)
		st.stats.LeftoverSegments++
		return nil
	}
	st.segs = append(st.segs, s)
	return nil
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.seg", seq) }

func coldName(seq uint64) string { return fmt.Sprintf("col-%08d.blk", seq) }

func (st *Store) lastSeg() *segment {
	if len(st.segs) == 0 {
		return nil
	}
	return st.segs[len(st.segs)-1]
}

// activeSeg returns the unsealed last segment, or nil.
func (st *Store) activeSeg() *segment {
	if s := st.lastSeg(); s != nil && !s.sealed {
		return s
	}
	return nil
}

// newSegmentLocked creates and activates a fresh segment file.
func (st *Store) newSegmentLocked() (*segment, error) {
	seq := st.nextSeq
	s := &segment{seq: seq, coversThrough: seq, name: segName(seq), size: headerSize, rawSize: headerSize}
	f, err := st.be.Create(s.name, st.cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	encodeHeader(hdr, &s.meta, s.coversThrough, false)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		st.be.Remove(s.name)
		return nil, err
	}
	st.nextSeq++
	st.active = f
	st.segs = append(st.segs, s)
	st.addSegLocked(s, 1)
	return s, nil
}

// enforceRetentionLocked deletes the oldest sealed segments until the
// byte and age bounds hold. Deletion is atomic per segment (one backend
// Remove); the active segment is never touched.
func (st *Store) enforceRetentionLocked() {
	if st.cfg.MaxBytes > 0 {
		total := st.tiers[TierHot].bytes + st.tiers[TierCold].bytes
		for total > st.cfg.MaxBytes && len(st.segs) > 1 && st.segs[0].sealed {
			total -= st.segs[0].size
			st.retireOldestLocked()
		}
	}
	if st.cfg.MaxAgeNs > 0 {
		var newest uint64
		for _, s := range st.segs {
			if s.meta.count > 0 && s.meta.maxTS > newest {
				newest = s.meta.maxTS
			}
		}
		for len(st.segs) > 1 && st.segs[0].sealed &&
			st.segs[0].meta.count > 0 && st.segs[0].meta.maxTS+st.cfg.MaxAgeNs < newest {
			st.retireOldestLocked()
		}
	}
}

func (st *Store) retireOldestLocked() {
	s := st.segs[0]
	st.be.Remove(s.name)
	st.segs = st.segs[1:]
	st.addSegLocked(s, -1)
	st.stats.SegmentsDeleted++
	st.stats.EventsRetired += s.meta.count
}

// Sync makes every previous append durable: on return all of them,
// and every segment sealed before, are fsynced, and retention is up to
// date.
func (st *Store) Sync() error { return st.commit() }

// Seal seals the active segment (if any), making the store's entire
// contents durable and immutable until the next append.
func (st *Store) Seal() error {
	st.mu.Lock()
	err := st.WriteErr()
	if err == nil {
		st.rotateActiveLocked()
		st.publishObsLocked()
	}
	st.mu.Unlock()
	if err != nil {
		return err
	}
	return st.commit()
}

// Close seals the active segment, makes everything durable and closes
// the store. An append that has not taken st.mu when Close does fails
// with ErrClosed. Cursors opened before Close keep working over the
// sealed files until their own Close.
func (st *Store) Close() error {
	st.stopCompactor() // no tier transition may straddle shutdown
	st.mu.Lock()
	if st.closed.Load() {
		st.mu.Unlock()
		return nil
	}
	st.closed.Store(true)
	st.rotateActiveLocked()
	st.mu.Unlock()
	st.stopMaintenance() // fsyncs every seal, the last one's too, and joins the goroutine
	// Wait out a commit still in flight, so that its failure is latched
	// and it is counted before the counters are folded.
	st.commitMu.Lock()
	st.commitMu.Unlock()

	st.mu.Lock()
	if st.lock != nil {
		st.lock.Close() // releases the backend store lock
		st.lock = nil
	}
	// Publish the final counts, then retire this store's counters into
	// the registry's folded totals (the collector never takes st.mu, so
	// folding under it cannot deadlock).
	st.publishObsLocked()
	st.mu.Unlock()
	obs.Default().Fold(st.obsID)

	if p := st.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// Dir returns the store's backend location (the directory path for the
// local backend).
func (st *Store) Dir() string { return st.loc }

// Backend returns the store's backend.
func (st *Store) Backend() backend.Backend { return st.be }

// Size returns the store's total on-backend size in bytes.
func (st *Store) Size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tiers[TierHot].bytes + st.tiers[TierCold].bytes
}

// Events returns the number of events currently held.
func (st *Store) Events() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tiers[TierHot].events + st.tiers[TierCold].events
}

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	cc := st.bcache.classCounters()
	s.BlockCacheHits, s.BlockCacheMisses = cc.sections()
	s.AggPartialHits, s.AggPartialMisses = cc.hits[classPartial], cc.misses[classPartial]
	s.BlocksPruned = st.obs.blocksPruned.Load()
	s.PayloadSkips = st.obs.payloadSkips.Load()
	s.PayloadChunksInflated = st.obs.chunksInflated.Load()
	s.PayloadChunksSkipped = st.obs.chunksSkipped.Load()
	s.PayloadInflatedBytes = st.obs.inflatedBytes.Load()
	return s
}

// SegmentInfo is the queryable public summary of one segment.
type SegmentInfo struct {
	Seq       uint64 `json:"seq"`
	File      string `json:"file"`
	Tier      string `json:"tier"`
	Bytes     int64  `json:"bytes"`
	RawBytes  int64  `json:"raw_bytes"`
	Blocks    int    `json:"blocks,omitempty"`
	Events    uint64 `json:"events"`
	BaseStamp uint64 `json:"base_stamp"`
	MaxStamp  uint64 `json:"max_stamp"`
	MinTS     uint64 `json:"min_ts"`
	MaxTS     uint64 `json:"max_ts"`
	CoreBits  uint64 `json:"core_bits"`
	CatBits   uint64 `json:"cat_bits"`
	Sealed    bool   `json:"sealed"`
	Ordered   bool   `json:"ordered"`
}

// Segments returns the per-segment metadata, oldest first.
func (st *Store) Segments() []SegmentInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SegmentInfo, 0, len(st.segs))
	for _, s := range st.segs {
		out = append(out, SegmentInfo{
			Seq:       s.seq,
			File:      s.name,
			Tier:      s.tier.String(),
			Bytes:     s.size,
			RawBytes:  s.rawSize,
			Blocks:    len(s.blocks),
			Events:    s.meta.count,
			BaseStamp: s.meta.baseStamp,
			MaxStamp:  s.meta.maxStamp,
			MinTS:     s.meta.minTS,
			MaxTS:     s.meta.maxTS,
			CoreBits:  s.meta.coreBits,
			CatBits:   s.meta.catBits,
			Sealed:    s.sealed,
			Ordered:   s.meta.ordered,
		})
	}
	return out
}

// findSeqLocked returns the index of the last segment with seq <= target
// (-1 if none).
func (st *Store) findSeqLocked(target uint64) int {
	lo := sort.Search(len(st.segs), func(i int) bool { return st.segs[i].seq > target })
	return lo - 1
}
