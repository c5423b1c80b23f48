package tracer

import (
	"fmt"
	"sort"
	"sync"
)

// Tracer is the interface implemented by BTrace and by every baseline
// tracer in this repository. All tracers record variable-size entries into
// a bounded in-memory buffer in overwrite mode (except where a baseline's
// documented policy differs, e.g. the LTTng baseline drops the newest
// entries instead of blocking).
type Tracer interface {
	// Name returns the tracer's registry name (e.g. "btrace", "ftrace").
	Name() string

	// Write records e on behalf of the thread running in p. It returns
	// nil on success, ErrDropped if the tracer's policy discarded the
	// entry, or another error on misuse (entry too large, closed tracer).
	Write(p Proc, e *Entry) error

	// ReadAll returns a snapshot of every event currently retained,
	// ordered oldest to newest as well as the tracer can know. Structural
	// records (dummies, headers, skip markers) are filtered out. ReadAll
	// is intended to be called at quiescence (no concurrent writers);
	// BTrace additionally supports concurrent speculative reads via its
	// own Reader type.
	ReadAll() ([]Entry, error)

	// NewCursor mints a streaming cursor over the retained events: the
	// bounded, incremental read that consumers prefer over ReadAll.
	// BTrace's core has a native arena-backed one; the baselines wrap
	// their quiescent snapshots in a SnapshotCursor.
	NewCursor() Cursor

	// TotalBytes returns the total buffer budget the tracer was
	// configured with, in bytes.
	TotalBytes() int

	// Stats returns a snapshot of the tracer's internal counters.
	Stats() Stats

	// Reset discards all recorded data and returns the tracer to its
	// initial state. Must not be called concurrently with Write.
	Reset()
}

// Stats holds counters every tracer maintains. Not all counters apply to
// all tracers; inapplicable ones stay zero.
type Stats struct {
	// Writes is the number of successful Write calls.
	Writes uint64
	// BytesWritten is the total wire size of successful writes.
	BytesWritten uint64
	// Dropped is the number of entries discarded by policy (drop-newest).
	Dropped uint64
	// Overwritten is the number of entries destroyed by wrap-around.
	Overwritten uint64
	// DummyBytes is the number of filler bytes written to close tails.
	DummyBytes uint64
	// SkippedBlocks is the number of data blocks sacrificed by skipping.
	SkippedBlocks uint64
	// ClosedBlocks is the number of lagging blocks force-closed.
	ClosedBlocks uint64
	// Advancements is the number of slow-path block advancements.
	Advancements uint64
	// CASRetries counts failed compare-and-swap attempts in slow paths.
	CASRetries uint64
}

// Factory constructs a tracer with the given total buffer budget in bytes
// for a machine with the given core count. The threads hint is the maximum
// number of distinct producing threads (per-thread tracers size their
// buffers from it).
type Factory func(totalBytes, cores, threads int) (Tracer, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a tracer constructor available by name. It panics if the
// name is already taken; registration happens from init functions.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("tracer: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the named tracer. It returns an error for unknown names.
func New(name string, totalBytes, cores, threads int) (Tracer, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("tracer: unknown tracer %q (registered: %v)", name, Names())
	}
	return f(totalBytes, cores, threads)
}

// Names returns the sorted names of all registered tracers.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the stats compactly for logs and dashboards.
func (s Stats) String() string {
	return fmt.Sprintf(
		"writes=%d bytes=%d dropped=%d overwritten=%d dummy=%d skipped=%d closed=%d advance=%d casRetry=%d",
		s.Writes, s.BytesWritten, s.Dropped, s.Overwritten, s.DummyBytes,
		s.SkippedBlocks, s.ClosedBlocks, s.Advancements, s.CASRetries)
}
