// Package gen builds the benchmark's deterministic event stream: the
// same seed gives the same batches, and every property of batch k
// (which client sends it, its stamps, timestamps, thread ids and
// categories) is a pure function of (seed, k), so the load generator,
// the oracle and the per-layer probes all agree on the input without
// sharing state.
package gen

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"btrace/internal/tracer"
	"btrace/internal/workload"
)

const (
	// BatchEvents is the number of events in one /ingest body.
	BatchEvents = 256
	// TIDsPerClient is the number of distinct thread ids one client's
	// stream carries.
	TIDsPerClient = 64
	// poolBodies is the number of distinct pre-encoded bodies per client;
	// sends cycle through them with fresh stamps patched in.
	poolBodies = 128
	// tidBase keeps generated thread ids clear of 0.
	tidBase = 1000
	// HotCategory is the category the benchmark's selective queries and
	// aggregates filter on: sched, a seventh of the events by Fig. 2's
	// weights.
	HotCategory uint8 = 11
)

// Body is one pre-encoded batch: BatchEvents concatenated
// tracer.EncodeEvent records plus the per-event fields the oracle needs.
type Body struct {
	Wire []byte
	Offs []int // byte offset of each record in Wire
	TID  []uint32
	Cat  []uint8
}

// Stream is the generated input of one run.
type Stream struct {
	Clients int
	// TSStep is the virtual nanoseconds between consecutive events; it
	// sets how fast the server's -cold-after clock runs.
	TSStep uint64
	pool   [][]Body // [client][poolBodies]
}

// New builds the stream for seed with the given number of clients.
// Categories and payload sizes follow internal/workload's calibrated
// Fig. 2 mix; each client draws from its own TIDsPerClient thread ids.
func New(seed int64, clients int, tsStep uint64) (*Stream, error) {
	s := &Stream{Clients: clients, TSStep: tsStep, pool: make([][]Body, clients)}
	for c := 0; c < clients; c++ {
		w := workload.Workload{
			Name: "bench", LittleK: 10, MiddleK: 10, BigK: 10,
			ThreadsTotal: TIDsPerClient, ThreadsPerSec: TIDsPerClient,
			Seed: seed*1009 + int64(c),
		}
		g, err := w.Gen(workload.GenOptions{WindowNs: 1 << 62})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		s.pool[c] = make([]Body, poolBodies)
		for b := range s.pool[c] {
			body, err := encodeBody(g, rng, c)
			if err != nil {
				return nil, err
			}
			s.pool[c][b] = body
		}
	}
	return s, nil
}

func encodeBody(g *workload.Gen, rng *rand.Rand, client int) (Body, error) {
	body := Body{
		Offs: make([]int, BatchEvents),
		TID:  make([]uint32, BatchEvents),
		Cat:  make([]uint8, BatchEvents),
	}
	for i := 0; i < BatchEvents; i++ {
		ev, ok := g.Next()
		if !ok {
			return Body{}, fmt.Errorf("gen: workload generator ran dry")
		}
		// The generator numbers a core's threads from 1; fold them into
		// this client's private id range.
		tid := tidBase + uint32(client*TIDsPerClient) + (ev.TID&0xFFFF-1)%TIDsPerClient
		payload := make([]byte, ev.PayloadLen)
		// Half random, half repeated text: compressible like real trace
		// bodies, but not degenerate.
		name := workload.Categories[ev.Cat].Name
		for j := range payload {
			if j < len(payload)/2 {
				payload[j] = byte('a' + rng.Intn(16))
			} else {
				payload[j] = name[j%len(name)]
			}
		}
		e := tracer.Entry{
			Core: uint8(tid % 8), TID: tid,
			Category: uint8(ev.Cat), Level: ev.Level, Payload: payload,
		}
		body.Offs[i] = len(body.Wire)
		body.TID[i], body.Cat[i] = tid, e.Category
		rec := make([]byte, e.WireSize())
		if _, err := tracer.EncodeEvent(rec, &e); err != nil {
			return Body{}, err
		}
		body.Wire = append(body.Wire, rec...)
	}
	return body, nil
}

// Client returns which client sends batch k.
func (s *Stream) Client(k int) int { return k % s.Clients }

// Body returns batch k's body as last patched; the caller must be the
// batch's client, which owns its pool.
func (s *Stream) Body(k int) *Body {
	return &s.pool[k%s.Clients][(k/s.Clients)%poolBodies]
}

// FirstStamp is the stamp of batch k's first event; a batch's stamps
// are contiguous and batches never overlap, so stamps rise strictly
// with k and therefore within every thread id.
func FirstStamp(k int) uint64 { return uint64(k)*BatchEvents + 1 }

// BatchOf is the inverse of FirstStamp for any stamp in a batch.
func BatchOf(stamp uint64) int { return int((stamp - 1) / BatchEvents) }

// FirstTS is the virtual timestamp of batch k's first event.
func (s *Stream) FirstTS(k int) uint64 { return 1 + uint64(k)*BatchEvents*s.TSStep }

// Patch stamps batch k's identity into its pooled body in place and
// returns the wire bytes to send. Word 1 of an event record is the
// stamp and word 2 the timestamp (tracer.EncodeEvent's layout).
func (s *Stream) Patch(k int) []byte {
	b := s.Body(k)
	stamp, ts := FirstStamp(k), s.FirstTS(k)
	for i, off := range b.Offs {
		binary.LittleEndian.PutUint64(b.Wire[off+8:], stamp+uint64(i))
		binary.LittleEndian.PutUint64(b.Wire[off+16:], ts+uint64(i)*s.TSStep)
	}
	return b.Wire
}

// Entries decodes batch k as the server will see it. It patches the
// pooled body, so the same ownership rule as Patch applies.
func (s *Stream) Entries(k int) ([]tracer.Entry, error) {
	recs, truncated := tracer.DecodeAll(s.Patch(k))
	if truncated || len(recs) != BatchEvents {
		return nil, fmt.Errorf("gen: batch %d does not decode cleanly", k)
	}
	es := make([]tracer.Entry, len(recs))
	for i, r := range recs {
		es[i] = r.Event
	}
	return es, nil
}

// Count returns how many events of batches [kLo, kHi) satisfy match —
// the oracle's side of every row-count and aggregate check.
func (s *Stream) Count(kLo, kHi int, match func(tid uint32, cat uint8) bool) uint64 {
	var n uint64
	for k := kLo; k < kHi; k++ {
		b := s.Body(k)
		for i := range b.TID {
			if match(b.TID[i], b.Cat[i]) {
				n++
			}
		}
	}
	return n
}

// ClientTIDs lists the thread ids client c writes.
func ClientTIDs(c int) []uint32 {
	out := make([]uint32, TIDsPerClient)
	for i := range out {
		out[i] = tidBase + uint32(c*TIDsPerClient+i)
	}
	return out
}
