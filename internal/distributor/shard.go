package distributor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Shard errors the distributor's retry/hedge logic keys on.
var (
	// ErrShardDown reports delivery to a shard that is no longer running
	// (killed, closed, or removed).
	ErrShardDown = errors.New("distributor: shard down")
	// errNotApplied reports a delivery the shard's store refused even
	// after the shard-local retries.
	errNotApplied = errors.New("distributor: delivery not applied")
)

// Shard is one replica target: a named store the distributor can
// synchronously deliver batches to and fan queries out across. Ingest
// is the quorum unit — when it returns nil the batch is applied to the
// shard's durable store, not merely enqueued.
type Shard interface {
	Name() string
	// Ingest delivers one batch and blocks until it is durably applied
	// or refused; a refused batch leaves nothing behind for the shard to
	// apply later. es is only valid for the duration of the call. Safe
	// for concurrent use.
	Ingest(es []tracer.Entry) error
	// Query opens a cursor over a point-in-time snapshot of the shard's
	// durable store, in stamp order, scanned by up to workers goroutines
	// (at least one).
	Query(q store.Query, workers int) (tracer.Cursor, error)
	// AggSnapshot fixes, now, what a header-only aggregate pass over q
	// will read of the shard's durable store; the pass itself
	// (store.AggSnapshot.Fold) runs whenever the caller gets to it. The
	// distributor takes every shard's between two deliveries.
	AggSnapshot(q store.Query) (*store.AggSnapshot, error)
	// Healthy reports whether the shard is accepting work.
	Healthy() bool
	Segments() []store.SegmentInfo
	TierStats() []store.TierStat
	Pressure() overload.StorePressure
	Events() uint64
	Size() int64
	Dir() string
	// Close waits for in-flight deliveries, then closes the shard's store.
	Close() error
}

// LocalConfig shapes a LocalShard.
type LocalConfig struct {
	// Name identifies the shard on the ring.
	Name string
	// Store is the shard's durable store (required; the shard owns it
	// and closes it on Close).
	Store *store.Store
	// WrapStore, when set, wraps the store as seen by deliveries — the
	// fault-injection seam (queries still read the unwrapped store).
	WrapStore func(ingest.Sink) ingest.Sink
}

// applyAttempts is the shard-local append budget per delivery. The
// distributor owns cross-replica retry and hedging; the local budget
// stays small so a dead store answers fast instead of burning
// wall-clock per delivery.
const applyAttempts = 2

// LocalShard is an in-process replica over one store: many of them in
// one process make a cluster that is testable and chaos-able without
// networking. A delivery is a synchronous append on the caller's
// goroutine; the store's own staging arena and group commit batch
// concurrent deliveries.
type LocalShard struct {
	name string
	st   *store.Store
	sink ingest.Sink // st, or WrapStore(st)

	// down fails new deliveries and queries fast; inflight lets Kill and
	// Close wait out the deliveries that were already applying.
	down     atomic.Bool
	inflight sync.RWMutex
	closed   bool // guarded by inflight
}

// NewLocalShard builds a shard over cfg.Store.
func NewLocalShard(cfg LocalConfig) (*LocalShard, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("distributor: shard needs a name")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("distributor: shard %q needs a store", cfg.Name)
	}
	s := &LocalShard{name: cfg.Name, st: cfg.Store, sink: cfg.Store}
	if cfg.WrapStore != nil {
		s.sink = cfg.WrapStore(cfg.Store)
	}
	return s, nil
}

func (s *LocalShard) Name() string { return s.name }

// Ingest appends one batch to the shard's store, retrying within the
// shard-local budget. Nil means applied; an error means the delivery
// does not count and nothing of it is retained to apply later — the
// distributor's hedge is the retry.
func (s *LocalShard) Ingest(es []tracer.Entry) error {
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	if s.down.Load() {
		return ErrShardDown
	}
	if _, err := ingest.Append(s.sink, es, applyAttempts); err != nil {
		return fmt.Errorf("%w: %s: %v", errNotApplied, s.name, err)
	}
	return nil
}

// Query opens a snapshot cursor over the shard's durable store. A
// killed shard refuses: its data is intact on the backend but
// unavailable, exactly like a dead process's disk. The sorted run costs
// what a store.PCursor holds: a segment is scanned once its stamps are
// due, up to three 256 KiB spans ahead of the merge, and a segment that
// concurrent deliveries left unordered is held whole while it is in the
// merge and merged by its sorted runs — its entries only, and `workers`
// spans in all, when q.LengthsOnly says the caller reads no payload byte.
func (s *LocalShard) Query(q store.Query, workers int) (tracer.Cursor, error) {
	if !s.Healthy() {
		return nil, fmt.Errorf("%w: %s", ErrShardDown, s.name)
	}
	return s.st.QueryParallel(q, max(workers, 1)), nil
}

// AggSnapshot snapshots the store for an aggregate pass; same refusal
// rule as Query.
func (s *LocalShard) AggSnapshot(q store.Query) (*store.AggSnapshot, error) {
	if !s.Healthy() {
		return nil, fmt.Errorf("%w: %s", ErrShardDown, s.name)
	}
	return s.st.AggregateSnapshot(q), nil
}

// Healthy reports whether the shard accepts work: alive and with a
// working store write path.
func (s *LocalShard) Healthy() bool { return !s.down.Load() && s.st.WriteErr() == nil }

func (s *LocalShard) Segments() []store.SegmentInfo    { return s.st.Segments() }
func (s *LocalShard) TierStats() []store.TierStat      { return s.st.TierStats() }
func (s *LocalShard) Pressure() overload.StorePressure { return s.st.Pressure() }
func (s *LocalShard) Events() uint64                   { return s.st.Events() }
func (s *LocalShard) Size() int64                      { return s.st.Size() }
func (s *LocalShard) Dir() string                      { return s.st.Dir() }

// Kill stops the shard abruptly, simulating a crashed process for chaos
// tests: new deliveries and queries fail with ErrShardDown, deliveries
// already applying finish with their real answer before Kill returns,
// and the store is left unclosed, like a dead process's files.
func (s *LocalShard) Kill() {
	s.down.Store(true)
	s.inflight.Lock()
	defer s.inflight.Unlock()
}

// Close waits for in-flight deliveries and closes the store. Safe to
// call more than once; Close after Kill only closes the store.
func (s *LocalShard) Close() error {
	s.down.Store(true)
	s.inflight.Lock()
	defer s.inflight.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.st.Close()
}
