package distributor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Shard errors the distributor's hedge logic keys on.
var (
	// ErrShardDown reports delivery to a shard that is no longer running
	// (killed, closed, or removed).
	ErrShardDown = errors.New("distributor: shard down")
	// errNotApplied reports a delivery the shard's store refused.
	errNotApplied = errors.New("distributor: delivery not applied")
)

// Shard is one replica target: a named store the distributor can
// synchronously deliver batches to and fan queries out across. Ingest
// is the quorum unit — when it returns nil the rows are applied to the
// shard's durable store, not merely enqueued.
type Shard interface {
	Name() string
	// Ingest delivers the named rows of a framed batch (all of them when
	// rows is nil, see store.Store.AppendBatch) and blocks until they are
	// durably applied or refused; a refused delivery leaves nothing
	// behind for the shard to apply later. b and rows are only valid for
	// the duration of the call and are shared with the batch's other
	// deliveries: Ingest must not modify them. Safe for concurrent use.
	Ingest(b *store.Batch, rows []int32) error
	// Query opens a cursor over a point-in-time snapshot of the shard's
	// durable store, in stamp order.
	Query(q store.Query) (tracer.Cursor, error)
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
	WrapStore func(Replica) Replica
}

// Replica is a shard's store as its deliveries see it: the
// *store.Store, or what LocalConfig.WrapStore made of it.
type Replica interface {
	// AppendBatch writes rows of b; see store.Store.AppendBatch.
	AppendBatch(b *store.Batch, rows []int32) error
	// WriteErr reports a sticky write-path failure: once non-nil, no
	// later append can succeed.
	WriteErr() error
}

// LocalShard is an in-process replica over one store: many of them in
// one process make a cluster that is testable and chaos-able without
// networking. A delivery is a synchronous append on the caller's
// goroutine, which gathers its rows' frames out of the shared batch and
// writes them itself; concurrent deliveries share the store's commits.
type LocalShard struct {
	name string
	st   *store.Store
	sink Replica // st, or WrapStore(st)

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

// Ingest appends rows of b to the shard's store, once. Nil means
// applied; an error means the delivery does not count and nothing of it
// is retained to apply later — the distributor's hedge is the recovery.
func (s *LocalShard) Ingest(b *store.Batch, rows []int32) error {
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	if s.down.Load() {
		return ErrShardDown
	}
	if err := s.sink.AppendBatch(b, rows); err != nil {
		return fmt.Errorf("%w: %s: %v", errNotApplied, s.name, err)
	}
	return nil
}

// Query opens a snapshot cursor over the shard's durable store. A
// killed shard refuses: its data is intact on the backend but
// unavailable, exactly like a dead process's disk. The sorted run costs
// what a store.PCursor holds: a segment is scanned once its stamps are
// due, a 256 KiB span at a time as the merge uses up the last, and a
// segment that concurrent deliveries left unordered is held whole while
// it is in the merge and merged by its sorted runs — its entries only,
// and one span buffer in all, when q.LengthsOnly says the caller reads
// no payload byte.
func (s *LocalShard) Query(q store.Query) (tracer.Cursor, error) {
	if !s.Healthy() {
		return nil, fmt.Errorf("%w: %s", ErrShardDown, s.name)
	}
	return s.st.Query(q), nil
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
