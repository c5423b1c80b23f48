// Command layers is the white-box half of the benchmark: it calls each
// layer's public functions, in this process, on the same generated
// batches the load generator sent, and reports the mean cost per event
// as JSON. The harness (package main one directory up) runs it after
// the server has stopped, so the two never share the CPUs.
//
// It is a program of its own so that a change to one layer's API can
// break only the traced run, never the black-box end-to-end run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"btrace"
	"btrace/bench/gen"
	"btrace/internal/btql"
	"btrace/internal/collect"
	"btrace/internal/distributor"
	"btrace/internal/export"
	"btrace/internal/live"
	"btrace/internal/overload"
	"btrace/internal/ring"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

const (
	// batches is the input every probe runs over: 4096 × 256 events, so
	// each mean is over a million events.
	batches = 4096
	events  = batches * gen.BatchEvents
	// slowBatches is the shorter input of the probes whose unit cost is
	// microseconds rather than nanoseconds (quorum fan-out, freezing).
	slowBatches = 512
)

type spanOut struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type report struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []spanOut          `json:"spans"`
}

func (r *report) probe(name string, units int, fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t1 := time.Now()
	r.Metrics[name] = float64(t1.Sub(t0)) / float64(units)
	r.Spans = append(r.Spans, spanOut{Name: name, StartNS: t0.UnixNano(), EndNS: t1.UnixNano()})
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "stream seed")
	clients := flag.Int("clients", 2, "generator clients")
	tsStep := flag.Uint64("ts-step", 1000, "virtual nanoseconds per event")
	dir := flag.String("dir", "", "scratch directory for the probes' stores")
	flag.Parse()
	rep, err := run(*seed, *clients, *tsStep, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-layers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench-layers:", err)
		os.Exit(1)
	}
}

// flushPolicy is the server's: group commit every 50 ms.
var flushPolicy = store.Config{CommitEvery: 50 * time.Millisecond}

func run(seed int64, clients int, tsStep uint64, dir string) (*report, error) {
	stream, err := gen.New(seed, clients, tsStep)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]float64{}}
	input := make([][]tracer.Entry, batches)
	var wireBytes int
	for k := range input {
		if input[k], err = stream.Entries(k); err != nil {
			return nil, err
		}
		wireBytes += len(stream.Body(k).Wire)
	}
	rep.Metrics["tracer.wire_bytes_per_event"] = float64(wireBytes) / events

	steps := []func(*report, *gen.Stream, [][]tracer.Entry, string) error{
		probeTracer, probeCore, probeAdmission, probeRing, probeStore, probeDistributor, probeBTQL, probeLive,
	}
	for _, step := range steps {
		if err := step(rep, stream, input, dir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func probeTracer(rep *report, stream *gen.Stream, input [][]tracer.Entry, _ string) error {
	buf := make([]byte, tracer.EventWireSize(tracer.MaxPayload))
	if err := rep.probe("tracer.encode_ns_per_event", events, func() error {
		for _, es := range input {
			for i := range es {
				if _, err := tracer.EncodeEvent(buf, &es[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return rep.probe("tracer.decode_ns_per_event", events, func() error {
		for k := range input {
			if recs, truncated := tracer.DecodeAll(stream.Body(k).Wire); truncated || len(recs) != gen.BatchEvents {
				return fmt.Errorf("batch %d does not decode", k)
			}
		}
		return nil
	})
}

// probeCore is the paper's device-side budget, kept beside the server's
// so that the record path's cost stays visible: one writer into the
// public block buffer, then one reader draining it.
func probeCore(rep *report, _ *gen.Stream, input [][]tracer.Entry, _ string) error {
	t, err := btrace.Open(btrace.Config{Cores: 1, BufferBytes: 256 << 20})
	if err != nil {
		return err
	}
	w, err := t.Writer(0, 1)
	if err != nil {
		return err
	}
	if err := rep.probe("core.record_ns", events, func() error {
		for _, es := range input {
			for i := range es {
				if err := w.Write(es[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r := t.NewReader()
	defer r.Close()
	batch := make([]btrace.Event, 1024)
	read := 0
	if err := rep.probe("core.cursor_ns_per_event", 1, func() error {
		for {
			n, _, err := r.Next(batch)
			read += n
			if err != nil || n == 0 {
				return err
			}
		}
	}); err != nil {
		return err
	}
	if read == 0 {
		return fmt.Errorf("core: reader returned no events")
	}
	rep.Metrics["core.cursor_ns_per_event"] /= float64(read)
	return nil
}

// probeAdmission times the two per-event checks between decode and
// append on the single-store path: the verifier and the overload gate
// at TierNone with sampling off, as the benchmark's servers run it.
func probeAdmission(rep *report, _ *gen.Stream, input [][]tracer.Entry, _ string) error {
	v := collect.NewVerifier()
	if err := rep.probe("collect.verify_ns_per_event", events, func() error {
		for k, es := range input {
			if clean, _, _ := v.Check(es); len(clean) != len(es) {
				return fmt.Errorf("batch %d: %d of %d events quarantined", k, len(es)-len(clean), len(es))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// An engage threshold above any possible score pins the controller
	// at TierNone, exactly as btrace-serve's -shed=false does.
	g := overload.NewGate(overload.Config{MinSampleRate: 1, EngagePressure: 2})
	return rep.probe("overload.filter_ns_per_event", events, func() error {
		for k, es := range input {
			if out := g.Filter(es); len(out) != len(es) {
				return fmt.Errorf("batch %d: gate admitted %d of %d", k, len(out), len(es))
			}
		}
		return nil
	})
}

func probeRing(rep *report, _ *gen.Stream, _ [][]tracer.Entry, _ string) error {
	r, err := ring.New([]string{"shard-00", "shard-01", "shard-02", "shard-03"}, ring.Config{Replicas: 2})
	if err != nil {
		return err
	}
	keys := make([]string, 0, 2*gen.TIDsPerClient)
	for c := 0; c < 2; c++ {
		for _, tid := range gen.ClientTIDs(c) {
			keys = append(keys, fmt.Sprint(tid))
		}
	}
	const lookups = 1 << 20
	return rep.probe("ring.lookup_ns", lookups, func() error {
		for i := 0; i < lookups; i++ {
			if len(r.LookupN(keys[i%len(keys)], 2)) != 2 {
				return fmt.Errorf("lookup returned fewer than 2 owners")
			}
		}
		return nil
	})
}

// drain reads a cursor to its end and returns the number of events.
func drain(c tracer.Cursor) (int, error) {
	defer c.Close()
	batch := make([]tracer.Entry, 1024)
	total := 0
	for {
		n, _, err := c.Next(batch)
		total += n
		if err != nil || n == 0 {
			return total, err
		}
	}
}

func probeStore(rep *report, _ *gen.Stream, input [][]tracer.Entry, dir string) error {
	st, err := store.Open(filepath.Join(dir, "hot"), flushPolicy)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := rep.probe("store.append_ns_per_event", events, func() error {
		for _, es := range input {
			if err := st.AppendEntries(es); err != nil {
				return err
			}
		}
		return st.Sync()
	}); err != nil {
		return err
	}
	expect := func(name string, got int) error {
		if got != events {
			return fmt.Errorf("%s saw %d of %d events", name, got, events)
		}
		return nil
	}
	if err := rep.probe("store.scan_ns_per_event", events, func() error {
		n, err := drain(st.Query(store.Query{}))
		if err != nil {
			return err
		}
		return expect("scan", n)
	}); err != nil {
		return err
	}
	if err := rep.probe("store.pscan_ns_per_event", events, func() error {
		n, err := drain(st.QueryParallel(store.Query{}, 4))
		if err != nil {
			return err
		}
		return expect("parallel scan", n)
	}); err != nil {
		return err
	}
	if err := rep.probe("store.agg_ns_per_event", events, func() error {
		q, err := btql.Parse(fmt.Sprintf("category == %d | count()", gen.HotCategory))
		if err != nil {
			return err
		}
		res, _, err := st.Aggregate(store.Query{Pred: q.Predicate()}, []btql.AggSpec{*q.Agg})
		if err != nil {
			return err
		}
		if res[0].Events == 0 {
			return fmt.Errorf("aggregate counted nothing")
		}
		return nil
	}); err != nil {
		return err
	}
	for name, enc := range map[string]func(io.Writer, tracer.Cursor, []tracer.Entry) (int, uint64, error){
		"export.csv_ns_per_event": export.CSVCursor, "export.text_ns_per_event": export.TextCursor,
	} {
		if err := rep.probe(name, events, func() error {
			cur := st.Query(store.Query{})
			defer cur.Close()
			n, _, err := enc(io.Discard, cur, make([]tracer.Entry, 1024))
			if err != nil {
				return err
			}
			return expect(name, n)
		}); err != nil {
			return err
		}
		// The export ran over a store cursor; what it adds is the rest.
		rep.Metrics[name] -= rep.Metrics["store.scan_ns_per_event"]
	}

	// The same events frozen into the cold tier, then scanned: inflate
	// and column decode with an empty block cache.
	cfg := flushPolicy
	cfg.ColdAfterNs = 1
	cold, err := store.Open(filepath.Join(dir, "cold"), cfg)
	if err != nil {
		return err
	}
	defer cold.Close()
	for _, es := range input[:slowBatches] {
		if err := cold.AppendEntries(es); err != nil {
			return err
		}
	}
	if err := cold.Seal(); err != nil {
		return err
	}
	if err := cold.CompactTick(); err != nil {
		return err
	}
	return rep.probe("store.cold_ns_per_event", slowBatches*gen.BatchEvents, func() error {
		n, err := drain(cold.Query(store.Query{}))
		if err == nil && n != slowBatches*gen.BatchEvents {
			err = fmt.Errorf("cold scan saw %d of %d events", n, slowBatches*gen.BatchEvents)
		}
		return err
	})
}

// probeDistributor is the cluster ingest path in this process: four
// local shards, RF=2, each batch grouped, fanned out and quorum-acked.
func probeDistributor(rep *report, _ *gen.Stream, input [][]tracer.Entry, dir string) error {
	shards := make([]distributor.Shard, 4)
	for i := range shards {
		name := fmt.Sprintf("shard-%02d", i)
		st, err := store.Open(filepath.Join(dir, name), flushPolicy)
		if err != nil {
			return err
		}
		sh, err := distributor.NewLocalShard(distributor.LocalConfig{Name: name, Store: st})
		if err != nil {
			return err
		}
		shards[i] = sh
	}
	d, err := distributor.New(shards, distributor.Config{
		Replication: 2, Gate: overload.Config{MinSampleRate: 1, EngagePressure: 2},
	})
	if err != nil {
		return err
	}
	defer d.Close()
	return rep.probe("distributor.ingest_ns_per_event", slowBatches*gen.BatchEvents, func() error {
		for k, es := range input[:slowBatches] {
			if res := d.Ingest("bench", es); res.Acked != len(es) {
				return fmt.Errorf("batch %d: %d of %d events acked", k, res.Acked, len(es))
			}
		}
		return nil
	})
}

func probeBTQL(rep *report, _ *gen.Stream, _ [][]tracer.Entry, _ string) error {
	const rounds = 1 << 16
	src := fmt.Sprintf("tid == %d && category == %d", gen.ClientTIDs(0)[5], gen.HotCategory)
	return rep.probe("btql.parse_compile_ns", rounds, func() error {
		for i := 0; i < rounds; i++ {
			q, err := btql.Parse(src)
			if err != nil {
				return err
			}
			if q.Predicate() == nil {
				return fmt.Errorf("no predicate compiled")
			}
		}
		return nil
	})
}

// probeLive times the hub's publish with one subscriber that matches
// half the thread ids (drained as it goes, so nothing is missed), and
// the SSE framing of one event.
func probeLive(rep *report, _ *gen.Stream, input [][]tracer.Entry, _ string) error {
	hub := live.NewHub(live.Config{})
	var tids []uint32
	for i, tid := range gen.ClientTIDs(0) {
		if i%2 == 0 {
			tids = append(tids, tid)
		}
	}
	sub, err := hub.Subscribe(live.Filter{TIDs: tids})
	if err != nil {
		return err
	}
	defer sub.Close()
	batch := make([]tracer.Entry, gen.BatchEvents)
	var publish time.Duration
	for _, es := range input {
		t0 := time.Now()
		hub.Publish("", es)
		publish += time.Since(t0)
		if _, missed, err := sub.Next(batch); err != nil || missed > 0 {
			return fmt.Errorf("live: subscriber missed %d events (%v)", missed, err)
		}
	}
	rep.Metrics["live.publish_ns_per_event"] = float64(publish) / events
	return rep.probe("live.sse_encode_ns_per_event", events, func() error {
		for _, es := range input {
			for i := range es {
				if err := live.EncodeFrame(io.Discard, &es[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
