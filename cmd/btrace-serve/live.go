package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"btrace/internal/btql"
	"btrace/internal/live"
	"btrace/internal/tracer"
)

// liveHeartbeat is how often an idle /live stream emits a keepalive
// comment so proxies and clients can tell a quiet trace from a dead
// connection.
const liveHeartbeat = 15 * time.Second

// liveBatch sizes the per-drain read from the subscriber's ring.
const liveBatch = 256

// liveBufKeep is the largest encode buffer a connection keeps between
// drains; a drain of large payloads gets a bigger one for that write
// only.
const liveBufKeep = 256 << 10

// handleLive serves GET /live: a Server-Sent-Events stream of admitted
// ingest events, filtered by the parameters /store/query takes
// (btql.ParseParams: q and the field parameters; an aggregate stage is
// a 400, a tail is a stream) and scoped to the X-Btrace-Tenant header
// when one is sent (absent = all tenants, the single-operator dashboard
// view). Slow subscribers see their loss as
// missed events; a subscriber that falls EvictAfterMissed behind gets
// a terminal evicted event. 503 when the subscriber cap is reached.
//
// The 200 is flushed only after Hub.Subscribe returned, so for a client
// the response headers arriving is the subscription barrier: anything
// it posts to /ingest afterwards is offered to this subscriber. Each
// drain of the ring is encoded into one per-connection buffer and goes
// out as one Write and one Flush.
func (s *server) handleLive(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		http.Error(w, "live tail requires an ingest path (start btrace-serve with -store)",
			http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q, err := btql.ParseParams(r.URL.Query())
	if err == nil && q.Agg != nil {
		err = fmt.Errorf("/live streams events: q takes a filter, not an aggregate (%s)", q.Agg)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	filter := live.Filter{Tenant: r.Header.Get(tenantHeader), Pred: q.Predicate()}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	sub, err := s.live.Subscribe(filter)
	if err != nil {
		if errors.Is(err, live.ErrSubscribers) {
			w.Header().Set("Retry-After", "5")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// The server's blanket WriteTimeout would cut a healthy tail after
	// two minutes; a live stream manages its own liveness via
	// heartbeats instead.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	flusher.Flush()

	heartbeat := time.NewTicker(liveHeartbeat)
	defer heartbeat.Stop()
	batch := make([]tracer.Entry, liveBatch)
	var buf []byte
	for {
		n, missed, err := sub.Next(batch)
		buf = buf[:0]
		// Loss first: the missed events precede the buffered ones.
		if missed > 0 {
			buf = live.AppendMissed(buf, missed)
		}
		for i := range batch[:n] {
			buf = live.AppendFrame(buf, &batch[i])
		}
		if errors.Is(err, live.ErrEvicted) {
			buf = live.AppendEvicted(buf, sub.Stats().Missed)
		}
		if len(buf) == 0 && err == nil {
			// Idle: park until the hub signals, the client leaves, or the
			// heartbeat fires.
			select {
			case <-r.Context().Done():
				return
			case <-sub.Notify():
				continue
			case <-heartbeat.C:
				buf = append(buf, live.Keepalive...)
			}
		}
		if len(buf) > 0 {
			sub.CountWrite(len(buf))
			if _, werr := w.Write(buf); werr != nil {
				return
			}
			flusher.Flush()
			if cap(buf) > liveBufKeep {
				buf = nil
			}
		}
		if err != nil {
			return
		}
	}
}
