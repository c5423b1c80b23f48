package store

import (
	"errors"
	"fmt"
	"io"
	"maps"
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
// rotation, freeze, reopen, one-worker and parallel queries —
// over the in-process object backend, checking the Backend contract is
// sufficient for everything the local path does.
func TestObjectBackendConformance(t *testing.T) {
	be := backend.NewObject()
	st, err := OpenBackend(be, tierCfg())
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
	pc := st.QueryParallel(Query{Pred: where(btql.Between(btql.FStamp, 100, 800))}, 3)
	pes, _ := drainParallel(t, pc, 64)
	pc.Close()
	if len(pes) != 701 {
		t.Fatalf("parallel ranged query: %d events, want 701", len(pes))
	}
	// A second Open must fail while the lock is held, like the local
	// backend's LOCK file.
	if _, err := OpenBackend(be, tierCfg()); err == nil {
		t.Fatal("second Open over a locked object backend succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same namespace: full recovery across tiers.
	st2, err := OpenBackend(be, tierCfg())
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
// pass (a freeze) runs over a snapshotting backend that records
// the namespace after every single mutation. Reopening every snapshot
// must recover exactly the committed events — each exactly once — no
// matter where in a tier transition the "crash" landed.
func TestCompactionChaosTierBoundaries(t *testing.T) {
	sb := &snapBackend{inner: backend.NewObject()}
	st, err := OpenBackend(sb, tierCfg())
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	sealEvery(t, st, 1, n, 35) // ~20 small sealed segments: freeze fodder
	sb.arm(true)
	if err := st.CompactTick(); err != nil {
		t.Fatalf("CompactTick: %v", err)
	}
	sb.arm(false)
	stats := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsFrozen == 0 {
		t.Fatalf("pass crossed no tier boundary: %+v", stats)
	}
	// Guard the test's own coverage: the snapshots must include the
	// commit point (rename to a cold file) and the post-commit source
	// deletions.
	var sawFreeze, sawRemove bool
	for _, l := range sb.labels {
		switch {
		case strings.HasPrefix(l, "rename col-"):
			sawFreeze = true
		case strings.HasPrefix(l, "remove seg-"):
			sawRemove = true
		}
	}
	if !sawFreeze || !sawRemove {
		t.Fatalf("snapshots missed a boundary: freeze=%v remove=%v (%d snaps)",
			sawFreeze, sawRemove, len(sb.snaps))
	}

	seen := make([]int, n+1)
	for i, clone := range sb.snaps {
		st2, err := OpenBackend(clone, tierCfg())
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
	t.Logf("verified %d crash points across freeze boundaries", len(sb.snaps))
}

// failOnceBackend is an object backend whose files fail the first
// WriteAt after armed and the first Sync after syncArmed; writes counts
// every WriteAt that reached a file.
type failOnceBackend struct {
	*backend.Object
	armed     atomic.Bool
	syncArmed atomic.Bool
	writes    atomic.Int64
}

var (
	errWriteInjected = errors.New("injected write failure")
	errSyncInjected  = errors.New("injected fsync failure")
)

func (b *failOnceBackend) Create(name string, pre int64) (backend.File, error) {
	f, err := b.Object.Create(name, pre)
	if err != nil {
		return nil, err
	}
	return &failOnceFile{File: f, b: b}, nil
}

type failOnceFile struct {
	backend.File
	b *failOnceBackend
}

func (f *failOnceFile) WriteAt(p []byte, off int64) (int, error) {
	f.b.writes.Add(1)
	if f.b.armed.CompareAndSwap(true, false) {
		return 0, errWriteInjected
	}
	return f.File.WriteAt(p, off)
}

func (f *failOnceFile) Sync() error {
	if f.b.syncArmed.CompareAndSwap(true, false) {
		return errSyncInjected
	}
	return f.File.Sync()
}

// checkSticky asserts that st's write path has failed with want for
// good: WriteErr and Pressure report it, and the next append returns
// it without reaching the backend.
func checkSticky(t *testing.T, st *Store, be *failOnceBackend, stamp uint64, want error) {
	t.Helper()
	if err := st.WriteErr(); !errors.Is(err, want) {
		t.Fatalf("WriteErr after the failure: %v, want %v", err, want)
	}
	if !st.Pressure().Failed {
		t.Fatal("Pressure().Failed unset after the failure")
	}
	writes := be.writes.Load()
	if err := st.AppendEntries([]tracer.Entry{mkEntry(stamp)}); !errors.Is(err, want) {
		t.Fatalf("append after the failure: %v, want %v again", err, want)
	}
	if got := be.writes.Load(); got != writes {
		t.Fatalf("append after the failure reached the backend (%d writes, was %d)", got, writes)
	}
	if err := st.WriteErr(); !errors.Is(err, want) || !st.Pressure().Failed {
		t.Fatalf("WriteErr %v, Pressure().Failed %v after a second refusal", err, st.Pressure().Failed)
	}
}

// TestAppendFailureIsSticky is why no ingest path retries an append: a
// write or a commit's fsync that fails once leaves the write path failed
// for good, so a second try could only meet the same error. The call
// that meets the failure fails (or, for the CommitEvery timer's commit,
// nobody waits on it); WriteErr and Pressure report it from then on; the
// next append fails without reaching the backend; and a closed store
// answers ErrClosed on both.
func TestAppendFailureIsSticky(t *testing.T) {
	be := &failOnceBackend{Object: backend.NewObject()}
	st, err := OpenBackend(be, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]tracer.Entry{mkEntry(1)}); err != nil {
		t.Fatal(err)
	}
	be.armed.Store(true)
	if err := st.AppendEntries([]tracer.Entry{mkEntry(2)}); !errors.Is(err, errWriteInjected) {
		t.Fatalf("append over the failing write: %v, want the injected error", err)
	}
	checkSticky(t, st, be, 3, errWriteInjected)
	st.Close() // its error is the failed write path's
	if err := st.AppendEntries([]tracer.Entry{mkEntry(4)}); err != ErrClosed {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}
	if err := st.WriteErr(); err != ErrClosed {
		t.Fatalf("WriteErr after Close: %v, want ErrClosed", err)
	}

	t.Run("sync", func(t *testing.T) {
		be := &failOnceBackend{Object: backend.NewObject()}
		st, err := OpenBackend(be, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.AppendEntries([]tracer.Entry{mkEntry(1)}); err != nil {
			t.Fatal(err)
		}
		be.syncArmed.Store(true)
		if err := st.Sync(); !errors.Is(err, errSyncInjected) {
			t.Fatalf("Sync over the failing fsync: %v, want the injected error", err)
		}
		checkSticky(t, st, be, 2, errSyncInjected)
		if err := st.Sync(); !errors.Is(err, errSyncInjected) {
			t.Fatalf("Sync after the failure: %v, want the same error again", err)
		}
	})

	t.Run("commit-timer", func(t *testing.T) {
		be := &failOnceBackend{Object: backend.NewObject()}
		st, err := OpenBackend(be, Config{CommitEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		be.syncArmed.Store(true)
		if err := st.AppendEntries([]tracer.Entry{mkEntry(1)}); err != nil {
			t.Fatal(err)
		}
		// The append armed the timer; its commit meets the failing fsync.
		deadline := time.Now().Add(10 * time.Second)
		for st.WriteErr() == nil {
			if time.Now().After(deadline) {
				t.Fatal("the CommitEvery commit never failed")
			}
			time.Sleep(time.Millisecond)
		}
		checkSticky(t, st, be, 2, errSyncInjected)
	})
}

// syncLog is an object backend that stamps every write and fsync with
// one logical clock, per file: lastWrite is the clock of the file's
// latest WriteAt or Truncate, synced the clock at which its latest
// completed Sync began (a Sync covers every write completed before it).
type syncLog struct {
	*backend.Object
	mu        sync.Mutex
	clock     uint64
	lastWrite map[string]uint64
	synced    map[string]uint64
}

func newSyncLog() *syncLog {
	return &syncLog{Object: backend.NewObject(), lastWrite: map[string]uint64{}, synced: map[string]uint64{}}
}

func (b *syncLog) Create(name string, pre int64) (backend.File, error) {
	f, err := b.Object.Create(name, pre)
	if err != nil {
		return nil, err
	}
	return &syncLogFile{File: f, b: b, name: name}, nil
}

func (b *syncLog) wrote(name string) {
	b.mu.Lock()
	b.clock++
	b.lastWrite[name] = b.clock
	b.mu.Unlock()
}

// written returns each file's lastWrite as of now.
func (b *syncLog) written() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.lastWrite)
}

// unsynced names a file of before whose write there has no Sync covered
// yet, or returns "".
func (b *syncLog) unsynced(before map[string]uint64) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, w := range before {
		if b.synced[name] < w {
			return fmt.Sprintf("%s (written at %d, synced at %d)", name, w, b.synced[name])
		}
	}
	return ""
}

type syncLogFile struct {
	backend.File
	b    *syncLog
	name string
}

func (f *syncLogFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.b.wrote(f.name)
	return n, err
}

func (f *syncLogFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	f.b.wrote(f.name)
	return err
}

func (f *syncLogFile) Sync() error {
	f.b.mu.Lock()
	f.b.clock++
	begin := f.b.clock
	f.b.mu.Unlock()
	err := f.File.Sync()
	time.Sleep(20 * time.Microsecond) // an fsync takes a while; appends go on
	f.b.mu.Lock()
	f.b.synced[f.name] = max(f.b.synced[f.name], begin)
	f.b.mu.Unlock()
	return err
}

// TestSyncCoversConcurrentRotations holds Sync and Seal to their promise
// while an appender keeps rotating 4 KiB segments under them: when
// either returns, every file that held bytes written before the call
// has been fsynced since those bytes — the active file, and every
// segment rotated out before or during the commit.
func TestSyncCoversConcurrentRotations(t *testing.T) {
	for _, every := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("CommitEvery=%v", every), func(t *testing.T) {
			be := newSyncLog()
			st, err := OpenBackend(be, Config{SegmentBytes: 4 << 10, CommitEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			// Each token lets the appender write one 16-event batch; a
			// 4 KiB segment holds about six.
			tokens := make(chan struct{}, 64)
			appendErr := make(chan error, 1)
			go func() {
				es := make([]tracer.Entry, 16)
				stamp := uint64(1)
				for range tokens {
					for i := range es {
						es[i] = mkEntry(stamp)
						stamp++
					}
					if err := st.AppendEntries(es); err != nil {
						appendErr <- err
						return
					}
				}
				appendErr <- nil
			}()
			rounds := 300
			if testing.Short() {
				rounds = 100
			}
			for i := 0; i < rounds; i++ {
				// About two rotations' worth of batches, written while the
				// commit below runs.
				for range 12 {
					tokens <- struct{}{}
				}
				before := be.written()
				call, commit := "Sync", st.Sync
				if i%4 == 3 {
					call, commit = "Seal", st.Seal
				}
				if err := commit(); err != nil {
					t.Fatalf("round %d: %s: %v", i, call, err)
				}
				if f := be.unsynced(before); f != "" {
					t.Fatalf("round %d: %s returned with %s not fsynced", i, call, f)
				}
			}
			close(tokens)
			if err := <-appendErr; err != nil {
				t.Fatal(err)
			}
			t.Logf("%d rotations over %d commits", st.Stats().Seals, rounds)
		})
	}
}

// TestSealDurableWithoutCommit: a sealed segment is durable once its
// seal finalizes, whatever the commit policy. With no CommitEvery timer
// and no Sync, every segment that rotated out has been fsynced after its
// last write once the maintenance queue is idle; only the active
// segment waits for a commit.
func TestSealDurableWithoutCommit(t *testing.T) {
	be := newSyncLog()
	st, err := OpenBackend(be, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	es := make([]tracer.Entry, 16)
	for stamp := uint64(1); st.Stats().Seals < 3; {
		for i := range es {
			es[i] = mkEntry(stamp)
			stamp++
		}
		if err := st.AppendEntries(es); err != nil {
			t.Fatal(err)
		}
	}
	st.maint.waitIdle()
	written := be.written()
	if segs := st.Segments(); !segs[len(segs)-1].Sealed {
		delete(written, segs[len(segs)-1].File)
	}
	if len(written) < 3 {
		t.Fatalf("%d rotated files, want at least 3", len(written))
	}
	if f := be.unsynced(written); f != "" {
		t.Fatalf("sealed segment %s not fsynced after its seal finalized", f)
	}
}

// TestCloseLeavesEverythingDurable: after a clean Close every file the
// store wrote has been fsynced after its last write — the segments that
// rotated out and the one Close sealed — with a commit timer or without.
func TestCloseLeavesEverythingDurable(t *testing.T) {
	for _, every := range []time.Duration{0, time.Hour} {
		t.Run(fmt.Sprintf("CommitEvery=%v", every), func(t *testing.T) {
			be := newSyncLog()
			st, err := OpenBackend(be, Config{SegmentBytes: 4 << 10, CommitEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			es := make([]tracer.Entry, 16)
			stamp := uint64(1)
			for range 20 { // about three rotations and a partial segment
				for i := range es {
					es[i] = mkEntry(stamp)
					stamp++
				}
				if err := st.AppendEntries(es); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			written := be.written()
			if len(written) < 2 {
				t.Fatalf("store wrote %d files, want several", len(written))
			}
			if f := be.unsynced(written); f != "" {
				t.Fatalf("Close returned with %s not fsynced", f)
			}
		})
	}
}

// TestCommitNotHeldOffByAppends: a commit waits only for the rotations
// that precede it. With the appender running free, 4 KiB segments and
// each sealed file's fsync taking a while, the seal queue never runs
// dry, yet every Sync returns.
func TestCommitNotHeldOffByAppends(t *testing.T) {
	be := newSyncLog()
	st, err := OpenBackend(be, Config{SegmentBytes: 4 << 10, CommitEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stop := make(chan struct{})
	appendErr := make(chan error, 1)
	go func() {
		es := make([]tracer.Entry, 16)
		for stamp := uint64(1); ; {
			select {
			case <-stop:
				appendErr <- nil
				return
			default:
			}
			for i := range es {
				es[i] = mkEntry(stamp)
				stamp++
			}
			if err := st.AppendEntries(es); err != nil {
				appendErr <- err
				return
			}
		}
	}()
	// Start once the seal queue is half full.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st.maint.mu.Lock()
		backlog := st.maint.enqueued - st.maint.finalized
		st.maint.mu.Unlock()
		if backlog >= maxSealBacklog/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seal backlog stayed at %d", backlog)
		}
	}
	synced := make(chan error)
	go func() {
		for range 20 {
			if err := st.Sync(); err != nil {
				synced <- err
				return
			}
		}
		synced <- nil
	}()
	select {
	case err := <-synced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("20 Syncs did not return in 30 s under a free-running appender")
	}
	close(stop)
	if err := <-appendErr; err != nil {
		t.Fatal(err)
	}
}

// TestAppendRacingClose: appends racing Close are each all or nothing.
// Four appenders write numbered batches, Close runs once the first acks
// are in, and the store is reopened: every batch that returned nil reads
// back exactly once, and every batch that returned ErrClosed is wholly
// absent.
func TestAppendRacingClose(t *testing.T) {
	const (
		appenders = 4
		batch     = 8
	)
	dir := t.TempDir()
	st, err := Open(dir, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// results[a][b] is batch b of appender a's outcome.
	var (
		results [appenders][]error
		acks    atomic.Int64
		wg      sync.WaitGroup
	)
	stampOf := func(a, b, i int) uint64 { return uint64(a+1)<<32 | uint64(b*batch+i+1) }
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			es := make([]tracer.Entry, batch)
			for b := 0; ; b++ {
				for i := range es {
					es[i] = mkEntry(stampOf(a, b, i))
				}
				err := st.AppendEntries(es)
				results[a] = append(results[a], err)
				if err != nil {
					return
				}
				acks.Add(1)
			}
		}(a)
	}
	deadline := time.Now().Add(10 * time.Second)
	for acks.Load() < 2*appenders {
		if time.Now().After(deadline) {
			t.Fatal("appenders made no progress")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	st, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seen := make(map[uint64]int)
	for _, e := range drainStore(t, st, Query{}) {
		checkEntry(t, e)
		seen[e.Stamp]++
	}
	acked := 0
	for a := range results {
		for b, err := range results[a] {
			want := 1
			switch {
			case err == nil:
				acked++
			case errors.Is(err, ErrClosed):
				want = 0
			default:
				t.Fatalf("appender %d batch %d: %v", a, b, err)
			}
			for i := 0; i < batch; i++ {
				if got := seen[stampOf(a, b, i)]; got != want {
					t.Fatalf("appender %d batch %d (err %v) event %d read back %d times, want %d", a, b, err, i, got, want)
				}
			}
		}
	}
	if len(seen) != acked*batch {
		t.Fatalf("reopened store holds %d stamps, want the %d of %d acked batches", len(seen), acked*batch, acked)
	}
	t.Logf("%d batches acked before Close", acked)
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
	es := drainStore(t, st, Query{Pred: where(btql.Between(btql.FStamp, lastStamp, lastStamp))})
	if len(es) != 1 {
		t.Fatalf("newest event %d not readable after stress: got %d copies", lastStamp, len(es))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
