// Package live is the live-tail subsystem: a Hub fans admitted ingest
// events out to per-subscriber cursors with bounded ring buffers, so
// streaming consumers (the SSE GET /live endpoint on btrace-serve)
// observe the trace as it happens instead of querying sealed segments
// after the fact — the online-consumer scenario WOOTdroid argues
// whole-system tracing must serve (see PAPERS.md).
//
// The hub hangs off the end of admission (ingest.NewAdmission's publish
// argument): both the single-store ingest pipeline and the cluster
// distributor admit every batch through an ingest.Admission, so one
// hook covers both pipelines, and live subscribers see exactly the
// events the gate admitted — never events that were shed, sampled out,
// throttled or quarantined.
//
// Delivery is lossy by design, and the loss is accounted, never
// silent: each subscriber owns a ring bounded in events and in payload
// bytes; when either bound is hit the oldest undelivered event is
// overwritten and the subscriber's missed count increments, reusing the
// tracer.Cursor missed semantics.
// The accounting identity
//
//	delivered + missed == matched
//
// (matched = admitted events matching the subscriber's filter) holds
// exactly once the subscriber's buffer is drained. A subscriber that
// stops reading long enough to accumulate Config.EvictAfterMissed
// missed events is evicted: its buffered events convert to missed, and
// its next read returns ErrEvicted. Ingest never blocks on a slow
// subscriber — the cost of falling behind lands on the subscriber that
// fell behind.
package live

import (
	"errors"
	"sync"
	"sync/atomic"

	"btrace/internal/btql"
	"btrace/internal/tracer"
)

// Errors returned by the hub.
var (
	// ErrEvicted reports a subscriber the hub dropped for falling more
	// than Config.EvictAfterMissed events behind.
	ErrEvicted = errors.New("live: subscriber evicted (too far behind)")
	// ErrSubscribers reports a Subscribe refused because the hub is at
	// Config.MaxSubscribers.
	ErrSubscribers = errors.New("live: subscriber limit reached")
)

// Config shapes a Hub. Zero values select the documented defaults.
type Config struct {
	// BufferEvents is each subscriber's ring capacity in events
	// (default 4096). It also sets the ring's payload budget,
	// BufferEvents × 1 KiB: a ring over it overwrites oldest exactly as
	// a ring out of slots does.
	BufferEvents int
	// MaxSubscribers bounds concurrent subscriptions; Subscribe beyond
	// it returns ErrSubscribers (default 64).
	MaxSubscribers int
	// EvictAfterMissed is the cumulative missed-event count at which a
	// subscriber is evicted instead of accumulating further loss
	// (default 65536). Eviction converts the subscriber's buffered
	// events to missed, so the accounting identity survives it.
	EvictAfterMissed uint64
}

const (
	// ringBytesPerEvent scales a ring's payload-byte budget off
	// Config.BufferEvents (4 MiB at the default), so a stuck subscriber
	// holds a few MiB of other people's payloads, not BufferEvents ×
	// tracer.MaxPayload.
	ringBytesPerEvent = 1 << 10
	// maxRetainedPayload is the largest payload backing array a slot
	// keeps for reuse once its event is delivered or overwritten.
	maxRetainedPayload = 4 << 10
)

func (c Config) withDefaults() Config {
	if c.BufferEvents <= 0 {
		c.BufferEvents = 4096
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 64
	}
	if c.EvictAfterMissed == 0 {
		c.EvictAfterMissed = 65536
	}
	return c
}

// Hub is the fan-out point. Publish may be called concurrently (the
// cluster distributor admits batches from many request goroutines);
// subscribers attach and detach freely.
type Hub struct {
	cfg Config
	obs *hubObs

	// n mirrors len(subs) for the idle fast path: with no subscribers
	// Publish must cost two atomics and no locks, so an idle hub keeps
	// the admit path's 0 allocs/op contract.
	n atomic.Int64

	mu   sync.Mutex
	subs map[*Sub]struct{}
}

// NewHub creates a Hub and registers its obs series.
func NewHub(cfg Config) *Hub {
	h := &Hub{
		cfg:  cfg.withDefaults(),
		subs: make(map[*Sub]struct{}),
		obs:  newHubObs(),
	}
	h.registerObs()
	return h
}

// Publish offers one admitted batch, published under tenant, to every
// subscriber. The entries are borrowed (the ingest.NewAdmission publish
// contract): what a subscriber keeps is copied into its ring slots
// here, payload bytes included, so the caller may reuse es and
// everything it points at on return. Never blocks on a subscriber; a
// full ring overwrites oldest and counts missed. Safe for concurrent
// use, and safe on a nil Hub (no-op).
func (h *Hub) Publish(tenant string, es []tracer.Entry) {
	if h == nil || len(es) == 0 {
		return
	}
	h.obs.published.Add(uint64(len(es)))
	if h.n.Load() == 0 {
		return
	}
	h.mu.Lock()
	for sub := range h.subs {
		matched, missed := sub.offer(tenant, es)
		if matched > 0 {
			h.obs.matched.Add(uint64(matched))
		}
		if missed > 0 {
			h.obs.missed.Add(missed)
		}
		if sub.evictable() {
			sub.evict()
			delete(h.subs, sub)
			h.n.Add(-1)
			h.obs.evictedSubs.Add(1)
			h.obs.subscribers.Set(int64(len(h.subs)))
		}
	}
	h.mu.Unlock()
}

// Subscribe attaches a new subscriber with the given filter. The
// returned Sub implements tracer.Cursor; the caller must Close it.
func (h *Hub) Subscribe(f Filter) (*Sub, error) {
	pred := f.predicate() // compiled before the lock Publish takes
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) >= h.cfg.MaxSubscribers {
		h.obs.rejected.Add(1)
		return nil, ErrSubscribers
	}
	sub := &Sub{
		hub:    h,
		tenant: f.Tenant,
		pred:   pred,
		ring:   make([]tracer.Entry, h.cfg.BufferEvents),
		budget: h.cfg.BufferEvents * ringBytesPerEvent,
		notify: make(chan struct{}, 1),
	}
	h.subs[sub] = struct{}{}
	h.n.Add(1)
	h.obs.subscribed.Add(1)
	h.obs.subscribers.Set(int64(len(h.subs)))
	return sub, nil
}

// Subscribers returns the number of attached subscribers.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// detach removes sub on Close; idempotent with eviction (which removed
// it already).
func (h *Hub) detach(sub *Sub) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.n.Add(-1)
		h.obs.subscribers.Set(int64(len(h.subs)))
	}
	h.mu.Unlock()
}

// SubStats is one subscriber's accounting snapshot. Once Buffered is
// zero (drained), Delivered + Missed == Matched exactly.
type SubStats struct {
	// Matched counts admitted events that matched the filter.
	Matched uint64
	// Delivered counts events handed out through Next.
	Delivered uint64
	// Missed counts matched events lost to ring overwrite or eviction
	// (reported incrementally through Next's missed return).
	Missed uint64
	// Buffered is the current ring occupancy.
	Buffered int
	// Evicted reports whether the hub dropped this subscriber.
	Evicted bool
}

// Sub is one subscription: a tracer.Cursor over the live stream. Next
// and Close follow the Cursor contract (single consumer goroutine);
// the hub's Publish side is synchronized internally.
type Sub struct {
	hub    *Hub
	tenant string          // "" = every tenant's batches
	pred   *btql.Predicate // the filter's event half; immutable
	budget int             // payload bytes the ring may buffer

	mu    sync.Mutex
	ring  []tracer.Entry // fixed capacity, overwrite-oldest; slots own their payload arrays
	head  int            // index of oldest buffered entry
	cnt   int            // buffered entries
	bytes int            // payload bytes of the buffered entries
	// lent[i] is the payload array batch[i] of the last Next pointed at:
	// the caller's until the next call, a slot's again after it.
	lent [][]byte

	matched   uint64
	delivered uint64
	missed    uint64 // total missed (overwrites + eviction)
	pending   uint64 // missed not yet reported through Next
	evicted   bool
	closed    bool

	notify chan struct{}
}

// offer copies the filter-matching subset of es into the ring,
// overwriting oldest while it is out of slots or over its byte budget.
// Returns how many matched and how many were newly missed. Called with
// the hub lock held (publish order), takes the sub lock for the ring.
func (s *Sub) offer(tenant string, es []tracer.Entry) (matched int, missed uint64) {
	if s.tenant != "" && s.tenant != tenant {
		return 0, 0
	}
	s.mu.Lock()
	if s.closed || s.evicted {
		s.mu.Unlock()
		return 0, 0
	}
	before := s.pending
	for i := range es {
		e := &es[i]
		if !s.pred.Match(e) {
			continue
		}
		matched++
		// Full: the oldest undelivered event is the one to give up — the
		// subscriber is behind, and newest-first is what a live tail
		// wants to stay current. The newest event is always kept, so the
		// byte bound is the budget or one payload, whichever is larger.
		for s.cnt == len(s.ring) || (s.cnt > 0 && s.bytes+len(e.Payload) > s.budget) {
			s.dropOldest()
		}
		slot := &s.ring[s.wrap(s.head+s.cnt)]
		buf := slot.Payload
		*slot = *e
		// The published payload may alias a decode arena that is reused
		// after Publish returns: copy it, into the array the slot owns.
		slot.Payload = append(buf[:0], e.Payload...)
		s.bytes += len(e.Payload)
		s.cnt++
	}
	s.matched += uint64(matched)
	missed = s.pending - before
	wake := matched > 0
	s.mu.Unlock()
	if wake {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	return matched, missed
}

// dropOldest gives up the oldest buffered event, counted as missed.
// Called with the sub lock held.
func (s *Sub) dropOldest() {
	slot := &s.ring[s.head]
	s.bytes -= len(slot.Payload)
	slot.Payload = recycle(slot.Payload)
	s.head = s.wrap(s.head + 1)
	s.cnt--
	s.pending++
	s.missed++
}

// wrap folds a ring index that has run at most one lap past the end
// (a compare, where % is a division per event per subscriber).
func (s *Sub) wrap(i int) int {
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	return i
}

// recycle readies a payload array for its next event, or drops one too
// large to keep.
func recycle(b []byte) []byte {
	if cap(b) > maxRetainedPayload {
		return nil
	}
	return b[:0]
}

// evictable reports whether the subscriber crossed the eviction
// threshold. Called with the hub lock held.
func (s *Sub) evictable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && !s.evicted && s.missed >= s.hub.cfg.EvictAfterMissed
}

// evict converts the buffered events to missed and marks the sub; its
// next Next drains the missed count and returns ErrEvicted. Called
// with the hub lock held.
func (s *Sub) evict() {
	s.mu.Lock()
	s.pending += uint64(s.cnt)
	s.missed += uint64(s.cnt)
	s.hub.obs.missed.Add(uint64(s.cnt))
	s.cnt, s.head, s.bytes = 0, 0, 0
	s.evicted = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next implements tracer.Cursor: it fills batch with buffered events
// (oldest first), reports the missed count accumulated since the last
// call, and returns ErrEvicted once the hub has dropped the
// subscriber (after handing over the final missed tally). Per the
// Cursor contract the entries are valid only until the next call, and
// here that is load-bearing: their payloads are the ring's own arrays,
// lent for that long and written by Publish afterwards.
func (s *Sub) Next(batch []tracer.Entry) (int, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, tracer.ErrClosed
	}
	missed := s.pending
	s.pending = 0
	if len(batch) == 0 {
		// Zero-length reads must not lose the missed tally.
		s.pending = missed
		return 0, 0, nil
	}
	if len(s.lent) < len(batch) {
		s.lent = append(s.lent, make([][]byte, len(batch)-len(s.lent))...)
	}
	n := 0
	for n < len(batch) && s.cnt > 0 {
		slot := &s.ring[s.head]
		batch[n] = *slot
		s.bytes -= len(slot.Payload)
		// Swap, not copy: the slot takes back the array the previous
		// call lent at this position and lends out its own.
		slot.Payload, s.lent[n] = recycle(s.lent[n]), slot.Payload
		s.head = s.wrap(s.head + 1)
		s.cnt--
		n++
	}
	s.delivered += uint64(n)
	if n > 0 {
		s.hub.obs.delivered.Add(uint64(n))
	}
	if s.evicted && s.cnt == 0 {
		return n, missed, ErrEvicted
	}
	return n, missed, nil
}

// Close implements tracer.Cursor, detaching the subscriber from the
// hub. Safe to call more than once.
func (s *Sub) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cnt, s.head, s.bytes = 0, 0, 0
	s.mu.Unlock()
	s.hub.detach(s)
	return nil
}

// Notify returns a channel that receives a token when new events (or
// an eviction) may be waiting: the SSE handler parks on it between
// drains instead of polling.
func (s *Sub) Notify() <-chan struct{} { return s.notify }

// CountWrite records one socket write of n bytes on this subscriber's
// stream, so /metrics shows bytes — and, against delivered, events —
// per write. Call it before the write: a client that has read the bytes
// then finds them counted.
func (s *Sub) CountWrite(n int) {
	s.hub.obs.sseBytes.Add(uint64(n))
	s.hub.obs.sseWrites.Add(1)
}

// Stats returns the subscriber's accounting snapshot.
func (s *Sub) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{
		Matched:   s.matched,
		Delivered: s.delivered,
		Missed:    s.missed,
		Buffered:  s.cnt,
		Evicted:   s.evicted,
	}
}

var _ tracer.Cursor = (*Sub)(nil)
