package store

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btrace/internal/btql"
	"btrace/internal/store/backend"
	"btrace/internal/tracer"
)

// TestObjectBackendConformance runs the store's core flows — append,
// rotation, merge, freeze, reopen, one-worker and parallel queries —
// over the in-process object backend, checking the Backend contract is
// sufficient for everything the local path does.
func TestObjectBackendConformance(t *testing.T) {
	be := backend.NewObject()
	cfg := tierCfg()
	cfg.Backend = be
	st, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 900
	sealEvery(t, st, 1, n, 90)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	ts := st.TierStats()
	if ts[TierCold].Segments == 0 {
		t.Fatalf("object backend froze nothing: %+v", ts)
	}
	es := drainStore(t, st, Query{})
	if len(es) != n {
		t.Fatalf("drained %d events, want %d", len(es), n)
	}
	pc := st.QueryParallel(Query{MinStamp: 100, MaxStamp: 800}, 3)
	pes, _ := drainParallel(t, pc, 64)
	pc.Close()
	if len(pes) != 701 {
		t.Fatalf("parallel ranged query: %d events, want 701", len(pes))
	}
	// A second Open must fail while the lock is held, like the local
	// backend's LOCK file.
	if _, err := Open("", cfg); err == nil {
		t.Fatal("second Open over a locked object backend succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same namespace: full recovery across tiers.
	st2, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if es = drainStore(t, st2, Query{}); len(es) != n {
		t.Fatalf("reopened object store drained %d events, want %d", len(es), n)
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
}

// snapBackend wraps an object backend and, while armed, clones the whole
// namespace after every mutating operation. Each clone is the exact
// state a process crash at that instant would leave behind — including
// the states between a tier transition's write, sync, rename and delete
// steps — and is later reopened and checked. Error injection cannot
// simulate this: on an injected error the code's cleanup paths still
// run, where a real crash runs nothing.
type snapBackend struct {
	inner *backend.Object

	mu     sync.Mutex
	armed  bool
	snaps  []*backend.Object
	labels []string
}

func (b *snapBackend) arm(on bool) {
	b.mu.Lock()
	b.armed = on
	b.mu.Unlock()
}

func (b *snapBackend) snap(label string) {
	b.mu.Lock()
	if b.armed {
		b.snaps = append(b.snaps, b.inner.Clone())
		b.labels = append(b.labels, label)
	}
	b.mu.Unlock()
}

func (b *snapBackend) Lock() (io.Closer, error)                    { return b.inner.Lock() }
func (b *snapBackend) List(p string) ([]string, error)             { return b.inner.List(p) }
func (b *snapBackend) OpenRead(n string) (backend.ReadFile, error) { return b.inner.OpenRead(n) }
func (b *snapBackend) Location() string                            { return "snap:" }

func (b *snapBackend) Create(name string, pre int64) (backend.File, error) {
	f, err := b.inner.Create(name, pre)
	b.snap("create " + name)
	if err != nil {
		return nil, err
	}
	return &snapFile{File: f, b: b, name: name}, nil
}

func (b *snapBackend) OpenRW(name string) (backend.File, error) {
	f, err := b.inner.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return &snapFile{File: f, b: b, name: name}, nil
}

func (b *snapBackend) Remove(name string) error {
	err := b.inner.Remove(name)
	b.snap("remove " + name)
	return err
}

func (b *snapBackend) Rename(oldName, newName string) error {
	err := b.inner.Rename(oldName, newName)
	b.snap("rename " + newName)
	return err
}

type snapFile struct {
	backend.File
	b    *snapBackend
	name string
}

func (f *snapFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.b.snap(fmt.Sprintf("write %s@%d+%d", f.name, off, len(p)))
	return n, err
}

func (f *snapFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	f.b.snap("truncate " + f.name)
	return err
}

func (f *snapFile) Sync() error {
	err := f.File.Sync()
	f.b.snap("sync " + f.name)
	return err
}

func (f *snapFile) Seal() error {
	err := f.File.Seal()
	f.b.snap("seal " + f.name)
	return err
}

// TestCompactionChaosTierBoundaries is the crash-at-every-tier-boundary
// acceptance test: with a store full of committed events, one compactor
// pass (merge + freeze) runs over a snapshotting backend that records
// the namespace after every single mutation. Reopening every snapshot
// must recover exactly the committed events — each exactly once — no
// matter where in a tier transition the "crash" landed.
func TestCompactionChaosTierBoundaries(t *testing.T) {
	sb := &snapBackend{inner: backend.NewObject()}
	cfg := tierCfg()
	cfg.Backend = sb
	st, err := Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	sealEvery(t, st, 1, n, 35) // ~20 small sealed segments: merge + freeze fodder
	sb.arm(true)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	sb.arm(false)
	stats := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsCompacted == 0 || stats.SegmentsFrozen == 0 {
		t.Fatalf("pass crossed no tier boundary: %+v", stats)
	}
	// Guard the test's own coverage: the snapshots must include both
	// commit points (rename to a row segment, rename to a cold file) and
	// the post-commit source deletions.
	var sawMerge, sawFreeze, sawRemove bool
	for _, l := range sb.labels {
		switch {
		case strings.HasPrefix(l, "rename seg-"):
			sawMerge = true
		case strings.HasPrefix(l, "rename col-"):
			sawFreeze = true
		case strings.HasPrefix(l, "remove seg-"):
			sawRemove = true
		}
	}
	if !sawMerge || !sawFreeze || !sawRemove {
		t.Fatalf("snapshots missed a boundary: merge=%v freeze=%v remove=%v (%d snaps)",
			sawMerge, sawFreeze, sawRemove, len(sb.snaps))
	}

	seen := make([]int, n+1)
	for i, clone := range sb.snaps {
		rcfg := tierCfg()
		rcfg.Backend = clone
		st2, err := Open("", rcfg)
		if err != nil {
			t.Fatalf("snapshot %d (%s): reopen: %v", i, sb.labels[i], err)
		}
		for s := range seen {
			seen[s] = 0
		}
		cur := st2.Query(Query{})
		buf := make([]tracer.Entry, 64)
		total := 0
		for {
			k, _, nerr := cur.Next(buf)
			if nerr != nil {
				t.Fatalf("snapshot %d (%s): query: %v", i, sb.labels[i], nerr)
			}
			if k == 0 {
				break
			}
			for _, e := range buf[:k] {
				if e.Stamp < 1 || e.Stamp > n {
					t.Fatalf("snapshot %d (%s): alien stamp %d", i, sb.labels[i], e.Stamp)
				}
				seen[e.Stamp]++
				total++
			}
		}
		cur.Close()
		if err := st2.Close(); err != nil {
			t.Fatalf("snapshot %d (%s): close: %v", i, sb.labels[i], err)
		}
		if total != n {
			t.Fatalf("snapshot %d (%s): recovered %d events, want %d", i, sb.labels[i], total, n)
		}
		for s := 1; s <= n; s++ {
			if seen[s] != 1 {
				t.Fatalf("snapshot %d (%s): stamp %d recovered %d times",
					i, sb.labels[i], s, seen[s])
			}
		}
	}
	t.Logf("verified %d crash points across merge and freeze boundaries", len(sb.snaps))
}

// TestCommitBytesGroupCommit: with CommitBytes the only durability
// trigger — no timer, no Sync, no seal — appends under the threshold
// commit nothing, and the append that crosses it starts one group
// commit whose fsync covers every byte applied so far: the crash image
// the backend records at that fsync reopens to every event.
func TestCommitBytesGroupCommit(t *testing.T) {
	const threshold = 16 << 10
	sb := &snapBackend{inner: backend.NewObject()}
	st, err := Open("", Config{Backend: sb, CommitBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sb.arm(true)

	// fsyncs returns the labels and crash images of the fsyncs so far.
	fsyncs := func() (labels []string, images []*backend.Object) {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		for i, l := range sb.labels {
			if strings.HasPrefix(l, "sync ") {
				labels, images = append(labels, l), append(images, sb.snaps[i])
			}
		}
		return labels, images
	}
	var n uint64
	appendBytes := func(bytes int) {
		var es []tracer.Entry
		for b := 0; b < bytes; {
			n++
			es = append(es, mkEntry(n))
			b += FrameSize(&es[len(es)-1])
		}
		if err := st.AppendEntries(es); err != nil {
			t.Fatal(err)
		}
	}

	appendBytes(threshold / 2)
	if s, _ := fsyncs(); st.obs.groupCommits.Load() != 0 || len(s) != 0 {
		t.Fatalf("under the threshold: %d group commits, fsyncs %v", st.obs.groupCommits.Load(), s)
	}
	appendBytes(threshold / 2)

	// The crossing append returns once applied; its commit follows.
	// Wait for it on the pipeline's own condition variable; the timer
	// only turns a missing commit into a failure instead of a hang.
	p := &st.pipe
	timedOut := false
	timer := time.AfterFunc(10*time.Second, func() {
		p.mu.Lock()
		timedOut = true
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	for p.synced < p.staged && p.err == nil && !timedOut {
		p.cond.Wait()
	}
	werr, late := p.err, timedOut
	p.mu.Unlock()
	if werr != nil || late {
		t.Fatalf("no group commit after crossing CommitBytes (err %v)", werr)
	}
	if c := st.obs.groupCommits.Load(); c != 1 {
		t.Fatalf("crossing the threshold ran %d group commits, want 1", c)
	}
	s, images := fsyncs()
	if len(s) != 1 || s[0] != "sync "+segName(1) {
		t.Fatalf("fsyncs %v, want the active segment's once", s)
	}
	st2, err := Open("", Config{Backend: images[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	es := drainStore(t, st2, Query{})
	if uint64(len(es)) != n {
		t.Fatalf("crash image at the commit holds %d events, want %d", len(es), n)
	}
	for i, e := range es {
		if e.Stamp != uint64(i+1) {
			t.Fatalf("event %d: stamp %d", i, e.Stamp)
		}
		checkEntry(t, e)
	}
}

// TestStoreCompactorStress races the background compactor (1ms ticks)
// against live appends, explicit seals, parallel and one-worker queries,
// aggregates and byte-budget retention. Run under -race via
// `make compaction-chaos`. The assertion is structural: no write-path
// error, no query corruption error, newest data still readable at the
// end. The run is sized in work, not time: everyone keeps going until
// the appender has written its batches, every reader has completed its
// drains and a freeze has been observed, so a loaded runner makes the
// test slower, never different. The deadline only reports a hang.
func TestStoreCompactorStress(t *testing.T) {
	const (
		wantBatches = 100 // appended batches of 32 events
		wantDrains  = 5   // complete passes per reader
		readers     = 3   // parallel cursor, one-worker cursor, aggregate
	)
	st, err := Open(t.TempDir(), Config{
		SegmentBytes:    8 << 10,
		MaxBytes:        256 << 10,
		CompactInterval: time.Millisecond,
		ColdAfterNs:     1,
		ColdBlockBytes:  4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		batches atomic.Int64
		drains  [readers]atomic.Int64
		frozen  atomic.Bool
		stop    = make(chan struct{})
		once    sync.Once
	)
	// progress is called after every unit of work; whoever completes the
	// last outstanding piece stops the run.
	progress := func() {
		if batches.Load() < wantBatches || !frozen.Load() {
			return
		}
		for i := range drains {
			if drains[i].Load() < wantDrains {
				return
			}
		}
		once.Do(func() { close(stop) })
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	qerrs := make(chan error, readers+1)
	fail := func(err error) {
		select {
		case qerrs <- err:
		default:
		}
		once.Do(func() { close(stop) })
	}

	var wg sync.WaitGroup
	var lastStamp uint64
	wg.Add(1)
	go func() { // appender + sealer: a steady diet of small sealed segments
		defer wg.Done()
		stamp := uint64(1)
		for i := 0; !stopped(); i++ {
			var es []tracer.Entry
			for k := 0; k < 32; k++ {
				es = append(es, mkEntry(stamp))
				stamp++
			}
			if err := st.AppendEntries(es); err != nil {
				fail(err)
				return
			}
			lastStamp = stamp - 1
			if i%4 == 3 {
				if err := st.Seal(); err != nil {
					fail(err)
					return
				}
			}
			batches.Add(1)
			progress()
		}
	}()
	count := []btql.AggSpec{{Kind: btql.AggCount}}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]tracer.Entry, 64)
			for !stopped() {
				var cur tracer.Cursor
				switch w {
				case 0:
					cur = st.QueryParallel(Query{}, 3)
				case 1:
					cur = st.Query(Query{})
				default:
					if _, _, err := st.Aggregate(Query{}, count); err != nil {
						fail(err)
						return
					}
				}
				for cur != nil {
					k, _, err := cur.Next(buf)
					if err != nil {
						cur.Close()
						fail(err)
						return
					}
					if k == 0 {
						cur.Close()
						cur = nil
					}
				}
				drains[w].Add(1)
				progress()
			}
		}(w)
	}
	wg.Add(1)
	go func() { // foreground compaction racing the background ticker
		defer wg.Done()
		for !stopped() {
			if err := st.CompactTick(); err != nil && err != ErrClosed {
				fail(err)
				return
			}
			if !frozen.Load() && st.Stats().SegmentsFrozen > 0 {
				frozen.Store(true)
				progress()
			}
		}
	}()

	deadline := time.NewTimer(2 * time.Minute)
	defer deadline.Stop()
	select {
	case <-stop:
	case <-deadline.C:
		once.Do(func() { close(stop) })
		wg.Wait()
		t.Fatalf("hang: %d/%d batches, drains %d/%d/%d of %d, frozen=%v",
			batches.Load(), wantBatches, drains[0].Load(), drains[1].Load(), drains[2].Load(), wantDrains, frozen.Load())
	}
	wg.Wait()
	select {
	case err := <-qerrs:
		t.Fatalf("concurrent append/query/compaction error: %v", err)
	default:
	}
	if err := st.WriteErr(); err != nil {
		t.Fatalf("write path error: %v", err)
	}
	es := drainStore(t, st, Query{MinStamp: lastStamp, MaxStamp: lastStamp})
	if len(es) != 1 {
		t.Fatalf("newest event %d not readable after stress: got %d copies", lastStamp, len(es))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
