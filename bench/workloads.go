package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrace/bench/gen"
)

// A workload is one server configuration plus one traffic mix. Its
// operation ("op") is what its users wait for, and every end-to-end
// latency and CPU figure is per op:
//
//	ingest-single, ingest-cluster  one 256-event POST /ingest, due → 202
//	query-tiered                   one round of the fixed query mix
//	tail-mixed                     one 256-event batch, due → first of its
//	                               events delivered on the /live stream
type workload struct {
	name string
	why  string
	// flags are added to the server's fixed flush-policy flags.
	flags []string
	// cluster says the flags start a sharded, replicated server.
	cluster bool
	// writers is the number of generator clients (= writing connections).
	writers int
	// rate is the fixed open-loop offered load in events/s (0 for the
	// read-only workload).
	rate float64
	// tsStep is the virtual nanoseconds per event, which sets how fast
	// data ages towards -cold-after.
	tsStep uint64
	// preload is the number of batches written during set-up.
	preload int
	// live opens a /live subscriber during set-up, on the second
	// connection, and makes its deliveries the workload's op.
	live bool
	// closed adds a closed-loop part to a traced trial (see saturate).
	closed bool
	// block is one block of the workload's own traffic, and control the
	// block that goes to the control server before it: the same kind of
	// request with the same pacing over as many connections.
	block   func(r *run) error
	control func(r *run)
	// ctlP50 and ctlCPU are the control's own figures on the reference
	// box in its quiet phases: median latency and CPU time per request of
	// this workload's control blocks, in ms.
	ctlP50, ctlCPU float64
	// sens is how closely the workload's figures follow the control's as
	// the box speeds up and slows down: the slope of log(figure) against
	// log(control figure) over the calibration runs (README.md), to the
	// nearest quarter. 1 is in step, 0 not at all. A run reports
	// figure × (quiet control / control during the run)^sens: what the
	// quiet box would have measured. Set-up time goes by the control's
	// latency.
	sens sensitivity
}

type sensitivity struct{ p50, cpu, setup float64 }

// Sizing. The open-loop rates are about a quarter of the closed-loop
// capacity measured on the 2-core reference box (README.md), so that a
// regression shows as latency well before the backlog grows.
const (
	rateSingle  = 150_000
	rateCluster = 60_000
	rateTail    = 50_000

	// tieredPreload batches span tieredSpanNs of virtual time, so with
	// -cold-after 15s three quarters of them freeze; their raw size is
	// about twice the server's 32 MiB block cache.
	tieredPreload = 4096
	tieredSpanNs  = 60e9
	// tailSpeedup runs tail-mixed's virtual clock this much faster than
	// the wall clock, so that -cold-after 15s starts freezing data about
	// a second after a trial's first write.
	tailSpeedup = 16

	// freshnessEvery is how often tail-mixed's writer checks that the
	// batch it was just acked for is visible in /store/query.
	freshnessEvery = 20

	// A timed phase is a string of cycles: one control block, then one
	// block of the workload's own traffic, each about this long. Short
	// enough that the box moves little between the two, long enough for
	// the median of a block to mean something.
	controlBlock = 300 * time.Millisecond
	trafficBlock = 700 * time.Millisecond
)

var tieredFlags = []string{"-compact-interval", "250ms", "-cold-after", "15s"}

var workloads = []workload{
	{
		name:    "ingest-single",
		why:     "one store: wire decode, the collector-as-ingest queue, the overload gate and store append/group-commit do all the work; ring, distributor and the read path do none",
		writers: 2, rate: rateSingle, tsStep: ns(1e9 / rateSingle), closed: true,
		block: (*run).ingestBlock, control: (*run).controlPosts,
		ctlP50: 0.25, ctlCPU: 0.16, sens: sensitivity{1, 0.75, 1},
	},
	{
		name:    "ingest-cluster",
		why:     "4 shards, RF=2: ring lookup, distributor grouping/fan-out/quorum and four stores' commits dominate; an ack is a synchronous quorum here and an enqueue on ingest-single",
		flags:   []string{"-shards", "4", "-replication", "2"},
		cluster: true,
		writers: 2, rate: rateCluster, tsStep: ns(1e9 / rateCluster), closed: true,
		block: (*run).ingestBlock, control: (*run).controlPosts,
		ctlP50: 0.31, ctlCPU: 0.19, sens: sensitivity{1, 1, 1},
	},
	{
		name:    "query-tiered",
		why:     "read-only over a preloaded store that is three quarters cold: BTQL, the pruning ladder, block cache (one class fits it, one does not), column decode and CSV export do all the work; ingest does none",
		flags:   tieredFlags,
		writers: 2, tsStep: ns(tieredSpanNs / (tieredPreload * gen.BatchEvents)), preload: tieredPreload,
		block: (*run).queryBlock, control: (*run).controlScans,
		ctlP50: 16, ctlCPU: 14, sens: sensitivity{0.5, 0.5, 0.75},
	},
	{
		name:    "tail-mixed",
		why:     "reads beside writes while the compactor and freezer run: live fan-out and SSE framing, freshness point queries, compaction stalls; a write-path gain that starves live readers shows only here",
		flags:   tieredFlags,
		live:    true,
		writers: 1, rate: rateTail, tsStep: ns(tailSpeedup * 1e9 / rateTail),
		block: (*run).tailBlock, control: (*run).controlPosts,
		ctlP50: 0.32, ctlCPU: 0.19, sens: sensitivity{0.5, 0.75, 0.75},
	},
}

// ns truncates a constant expression to whole virtual nanoseconds.
func ns(x float64) uint64 { return uint64(x) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is one server under one workload.
type run struct {
	ctx    context.Context
	w      workload
	srv    *server
	ctl    *server // the control server, shared by every trial
	stream *gen.Stream
	conns  []*conn   // at most nproc (2): writers, or query clients
	ctlTo  []*conn   // as many to the control server; never used at the same time
	tail   *liveTail // tail-mixed: the second connection is the subscriber
	next   int       // first batch not yet sent
	// coldWindow is each query connection's position in the cold tier.
	coldWindow [2]int

	tracing bool // record spans in the phases that follow

	// What the measured phases produced (warm-up timings are dropped).
	cycles  []cycle
	ops     []sample
	lateMS  []float64
	acks    []sample  // tail-mixed: the ack latency underneath its op
	freshMS []float64 // tail-mixed: 202 → visible in /store/query
	classMS map[string][]float64
	spans   []span

	// opsDone counts the operations completed on the server.
	opsDone atomic.Int64
	// closedEPS and closedCPUNS are the ingest workloads' closed-loop
	// throughput and server CPU per event (traced trials only).
	closedEPS, closedCPUNS float64
	// The loader's own CPU seconds and the wall seconds they fell in,
	// over the parts where latency is measured.
	loaderCPU, loaderWall float64

	attempted int
	failed    int
	firstErr  error
	http429   int
	http503   int
}

func newRun(ctx context.Context, w workload, srv, ctl *server, seed int64) (*run, error) {
	stream, err := gen.New(seed, w.writers, w.tsStep)
	if err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, w: w, srv: srv, ctl: ctl, stream: stream, classMS: map[string][]float64{}, coldWindow: [2]int{0, 1}}
	for i := 0; i < 2; i++ {
		c := newConn(i, srv.base, realClock{})
		c.done = &r.opsDone
		r.conns = append(r.conns, c)
		r.ctlTo = append(r.ctlTo, newConn(i, ctl.base, realClock{}))
	}
	return r, nil
}

func (r *run) close() {
	if r.tail != nil {
		r.tail.close()
	}
	for _, c := range append(r.conns, r.ctlTo...) {
		c.close()
	}
}

// check records one oracle comparison as an operation of its own.
func (r *run) check(what string, got, want uint64) {
	r.attempted++
	if got != want {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("oracle: %s = %d, want %d", what, got, want)
		}
	}
}

// parallel runs fn on each of conns, one goroutine each, and waits for
// all of them.
func (r *run) parallel(conns []*conn, fn func(c *conn)) {
	var wg sync.WaitGroup
	for _, c := range conns {
		c.tracing = r.tracing
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// controlTrack is the trace row of the first control connection.
const controlTrack = 10

// harvest collects and clears what conns measured; their spans go on
// trace rows track, track+1. Failures always count; the caller decides
// whether the timings do.
func (r *run) harvest(conns []*conn, track int) (lat []sample, lateMS []float64, spans []span) {
	for _, c := range conns {
		lat = append(lat, c.lat...)
		lateMS = append(lateMS, c.lateMS...)
		for i := range c.spans {
			c.spans[i].Track = track + c.id
		}
		spans = append(spans, c.spans...)
		r.attempted += c.attempted
		r.failed += c.failed
		r.http429 += c.http429
		r.http503 += c.http503
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		c.lat, c.lateMS, c.spans = nil, nil, nil
		c.attempted, c.failed, c.firstErr, c.http429, c.http503 = 0, 0, nil, 0, 0
	}
	return lat, lateMS, spans
}

// cycle is one control block and the traffic block after it: the
// server's median op latency and CPU per op, and the control's own from
// the third of a second before. Only the ratios travel further; the
// box's speed of the moment cancels in them.
type cycle struct {
	P50     float64 `json:"p50_ms"` // median latency of the block's requests
	CPUS    float64 `json:"cpu_s"`  // the process's CPU seconds over the cycle
	Ops     int     `json:"ops"`    // requests completed
	CtlP50  float64 `json:"ctl_p50_ms"`
	CtlCPUS float64 `json:"ctl_cpu_s"`
	CtlOps  int     `json:"ctl_ops"`
}

// phase runs cycles of the workload's traffic for d. With keep false it
// is a warm-up: operations run and are checked, but their timings
// dropped.
func (r *run) phase(d time.Duration, keep, tracing bool) error {
	r.tracing = tracing
	// Another cycle starts while at least half of it fits before the end,
	// going by the last one: a phase is d long give or take half a cycle.
	var last time.Duration
	for end := time.Now().Add(d); (last == 0 || time.Now().Add(last/2).Before(end)) && r.ctx.Err() == nil; {
		t0 := time.Now()
		if err := r.cycle(keep); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	if !keep {
		clear(r.classMS)
		r.loaderCPU, r.loaderWall = 0, 0
	}
	return nil
}

func (r *run) cycle(keep bool) error {
	// Both servers' CPU clocks run over the whole cycle: what a server
	// does in the background between its requests (group commits,
	// compaction, freezing, garbage collection) is work its requests
	// caused, whichever block it happens to fall in.
	cpu0, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	ctlCPU0, err := r.ctl.cpuSeconds()
	if err != nil {
		return err
	}
	ops0 := r.opsDone.Load()

	stop := r.loaderMeter()
	r.w.control(r)
	stop()
	ctlLat, _, ctlSpans := r.harvest(r.ctlTo, controlTrack)

	if err := r.w.block(r); err != nil {
		return err
	}
	lat, late, spans := r.harvest(r.conns, 0)
	var ack []sample
	var fresh []float64
	if r.tail != nil {
		// The op is the live delivery; what the writer timed is its ack.
		var tailSpans []span
		ack = lat
		lat, fresh, tailSpans = r.tail.take()
		spans = append(spans, tailSpans...)
	}
	cpu1, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	ctlCPU1, err := r.ctl.cpuSeconds()
	if err != nil {
		return err
	}
	ops := int(r.opsDone.Load() - ops0)
	if !keep {
		return nil
	}
	r.ops = append(r.ops, lat...)
	r.lateMS = append(r.lateMS, late...)
	r.acks = append(r.acks, ack...)
	r.freshMS = append(r.freshMS, fresh...)
	r.spans = append(append(r.spans, ctlSpans...), spans...)
	if len(ctlLat) > 0 && len(lat) > 0 && ops > 0 {
		// A block in which every operation failed has no figures; the
		// failures are counted and fail the run.
		r.cycles = append(r.cycles, cycle{
			P50: median(millis(lat)), CPUS: cpu1 - cpu0, Ops: ops,
			CtlP50: median(millis(ctlLat)), CtlCPUS: ctlCPU1 - ctlCPU0, CtlOps: len(ctlLat),
		})
	}
	return nil
}

// loaderMeter starts charging the loader's own CPU time to the run; the
// returned function stops it. Only the parts that measure latency are
// charged: a closed-loop part runs the loader flat out by design.
func (r *run) loaderMeter() func() {
	cpu0, t0 := selfCPUSeconds(), time.Now()
	return func() {
		r.loaderCPU += selfCPUSeconds() - cpu0
		r.loaderWall += time.Since(t0).Seconds()
	}
}

// write sends the next n batches over the writer connections: open loop
// at the given period, closed loop when it is zero. after, if set, runs
// on the writing connection once the i-th of them, batch k, is acked.
func (r *run) write(n int, period time.Duration, after func(c *conn, i, k int) error) {
	writers := r.w.writers
	n -= n % writers // batch k belongs to client k % writers
	lo := r.next
	r.next += n
	p := pacer{start: time.Now().Add(2 * time.Millisecond), period: period}
	if period > 0 {
		defer r.loaderMeter()()
	}
	r.parallel(r.conns[:writers], func(c *conn) {
		c.drive(r.ctx, p, c.id, writers, n, func(i int, from time.Time) error {
			k := lo + i
			if r.tail != nil {
				r.tail.due(k, from)
			}
			body := r.stream.Patch(k)
			err := c.ingest(r.ctx, body, gen.BatchEvents)
			// A closed-loop client heeds backpressure: a 429 means the
			// ingest queue is full, so it waits and offers the batch
			// again. At a fixed open-loop rate a 429 is a failure.
			for tries := 0; period == 0 && errors.Is(err, errBackpressure) && tries < maxBackoffs; tries++ {
				time.Sleep(backoff)
				err = c.ingest(r.ctx, body, gen.BatchEvents)
			}
			if err != nil {
				return err
			}
			if after != nil {
				return after(c, i, k)
			}
			return nil
		})
	})
}

// A closed-loop writer waits backoff after a 429, at most maxBackoffs
// times per batch (ten seconds in all).
const (
	backoff     = 5 * time.Millisecond
	maxBackoffs = 2000
)

func batchesIn(rate float64, d time.Duration) int {
	return int(rate * d.Seconds() / gen.BatchEvents)
}

func batchPeriod(rate float64) time.Duration {
	return time.Duration(gen.BatchEvents / rate * float64(time.Second))
}

// ingestBlock is ingest-single's and ingest-cluster's traffic: both
// connections post open loop at the workload's fixed rate, each batch
// timed from its due time.
func (r *run) ingestBlock() error {
	r.write(batchesIn(r.w.rate, trafficBlock), batchPeriod(r.w.rate), nil)
	return nil
}

// controlPosts is the write workloads' control block: the bodies the
// next traffic block will send, patched the same way and posted at the
// same fixed rate over the same number of connections, so that the
// loader does the same work for either server.
func (r *run) controlPosts() {
	writers := r.w.writers
	n := batchesIn(r.w.rate, controlBlock)
	n -= n % writers
	p := pacer{start: time.Now().Add(2 * time.Millisecond), period: batchPeriod(r.w.rate)}
	r.parallel(r.ctlTo[:writers], func(c *conn) {
		c.drive(r.ctx, p, c.id, writers, n, func(i int, _ time.Time) error {
			return c.controlPost(r.ctx, r.stream.Patch(r.next+i))
		})
	})
}

// saturate is the ingest workloads' closed-loop part, run once after a
// traced trial's cycles: both connections post for about d as fast as
// the server acks. Saturated, the server's CPU time per event is the
// work an event costs, free of the idle spinning and wake-ups of a
// quarter load: the figure the attribution table sets the layers
// against, beside the throughput.
func (r *run) saturate(d time.Duration) error {
	n := batchesIn(closedLoopFactor*r.w.rate, d)
	n -= n % r.w.writers
	cpu0, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	t0 := time.Now()
	r.write(n, 0, nil)
	r.closedEPS = float64(n) * gen.BatchEvents / time.Since(t0).Seconds()
	// A 202 from a single store is an enqueue: let the queue drain
	// before reading the clock.
	time.Sleep(30 * time.Millisecond)
	cpu1, err := r.srv.cpuSeconds()
	r.closedCPUNS = (cpu1 - cpu0) * 1e9 / (float64(n) * gen.BatchEvents)
	r.harvest(r.conns, 0) // closed-loop timings are throughput, not the op's latency
	return err
}

// closedLoopFactor is roughly how many times the open-loop rate the
// server sustains closed loop; it only sizes the closed-loop part.
const closedLoopFactor = 3

// setup brings a fresh server to the state the timed phase starts
// from; its wall time is the set-up cost a run reports.
func (r *run) setup() error {
	if r.w.live {
		t, err := subscribeTail(r.ctx, r.srv.base, r.stream)
		if err != nil {
			return err
		}
		r.tail = t
	}
	if r.w.preload > 0 {
		r.write(r.w.preload, 0, nil)
		r.harvest(r.conns, 0)
		if r.failed > 0 {
			return fmt.Errorf("preload: %w", r.firstErr)
		}
		if got, err := r.quiesce(time.Second); err != nil || got != r.sent() {
			return fmt.Errorf("preload: count() = %d of %d events: %v", got, r.sent(), err)
		}
	}
	return nil
}

// tierState is what must stop moving before the store counts as quiet.
var tierState = []string{
	"btrace_store_events", "btrace_store_size_bytes", "btrace_store_staged_bytes",
	"btrace_store_tier_hot_segments", "btrace_store_tier_compacted_segments", "btrace_store_tier_cold_segments",
}

// sent is the number of events written (and acked) so far.
func (r *run) sent() uint64 { return uint64(r.next) * gen.BatchEvents }

// quiesce waits until the tier layout has not changed for the stable
// duration and count() over every stamp sent has caught up with the
// acks, and returns that count. A count still short (or over) a few
// seconds after the store went quiet is returned as it is: the caller's
// oracle judges it.
func (r *run) quiesce(stable time.Duration) (uint64, error) {
	c := r.conns[0]
	deadline := time.Now().Add(60 * time.Second)
	var last string
	var since, quiet time.Time
	for time.Now().Before(deadline) {
		m, err := r.srv.scrape(c.hc)
		if err != nil {
			return 0, err
		}
		var sb strings.Builder
		for _, name := range tierState {
			fmt.Fprintf(&sb, "%v ", m[name])
		}
		if state := sb.String(); state != last {
			last, since, quiet = state, time.Now(), time.Time{}
		} else if time.Since(since) >= stable {
			got, err := c.queryCount(r.ctx, "oracle-count", fmt.Sprintf("stamp >= 1 && stamp <= %d | count()", r.sent()))
			if err != nil {
				return 0, err
			}
			if quiet.IsZero() {
				quiet = time.Now()
			}
			if got == r.sent() || time.Since(quiet) > 5*time.Second {
				return got, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, fmt.Errorf("quiesce: store still moving after 60s (%s)", last)
}

// verifyWrites is the write path's oracle: every acked event is counted
// exactly once (replicas deduplicated), overall and for one thread and
// category the generator counted independently.
func (r *run) verifyWrites() error {
	got, err := r.quiesce(300 * time.Millisecond)
	if err != nil {
		return err
	}
	r.check("count() over every acked stamp", got, r.sent())
	c := r.conns[0]
	tid, cat := gen.ClientTIDs(0)[3], gen.HotCategory
	if got, err = c.queryCount(r.ctx, "oracle-count", fmt.Sprintf("tid == %d && category == %d | count()", tid, cat)); err != nil {
		return err
	}
	r.check("count(tid, category)", got, r.stream.Count(0, r.next, func(t uint32, c uint8) bool { return t == tid && c == cat }))
	return nil
}

// Query mix. One round is one op; the counts balance the classes so
// that each contributes a comparable share of a round's time and a
// regression in any one of them moves the round.
const (
	// scanEvents is the size of the scan class's CSV export.
	scanEvents = 1 << 16
	// windowBatches sizes the selective and cold windows: about 5 MiB of
	// raw events, so that both connections' fixed windows stay resident
	// in the 32 MiB block cache beside the rotating cold windows.
	windowBatches     = 256
	selectivePerRound = 3
	coldPerRound      = 1
	aggPerRound       = 1

	// roundsPerBlock rounds on each connection make a traffic block, and
	// controlScansPerBlock exports of controlScanRows rows each the
	// control block before it.
	roundsPerBlock       = 3
	controlScansPerBlock = 6
	controlScanRows      = 1 << 14
)

// queryBlock is query-tiered's traffic: both connections run
// roundsPerBlock rounds of the fixed query mix closed loop. Every result
// is held to the count the generator computed for the same predicate.
func (r *run) queryBlock() error {
	r.queryRounds()
	return nil
}

// controlScans is query-tiered's control block: both connections stream
// CSV exports from the control server closed loop.
func (r *run) controlScans() {
	r.parallel(r.ctlTo, func(c *conn) {
		c.drive(r.ctx, pacer{}, 0, 1, controlScansPerBlock, func(int, time.Time) error {
			return c.controlScan(r.ctx, controlScanRows)
		})
	})
}

func (r *run) queryRounds() {
	defer r.loaderMeter()()
	total := r.next
	coldBatches := total * 3 / 4 // aged past -cold-after by the preload's time span
	aggWant := r.stream.Count(0, total, func(_ uint32, c uint8) bool { return c == gen.HotCategory })
	var mu sync.Mutex // guards classMS across the two connections
	r.parallel(r.conns, func(c *conn) {
		tid := gen.ClientTIDs(c.id)[5]
		match := func(t uint32, cat uint8) bool { return t == tid && cat == gen.HotCategory }
		timed := func(class string, fn func() error) error {
			t0 := time.Now()
			err := fn()
			mu.Lock()
			r.classMS[class] = append(r.classMS[class], ms(time.Since(t0)))
			mu.Unlock()
			return err
		}
		scan := func() error {
			lo := gen.FirstStamp(total) - scanEvents
			rows, first, last, err := c.queryRows(r.ctx, "scan", url.Values{
				"min_stamp": {strconv.FormatUint(lo, 10)}, "limit": {strconv.Itoa(scanEvents)},
			})
			if err == nil && (rows != scanEvents || first != lo || last != lo+scanEvents-1) {
				err = fmt.Errorf("oracle: scan returned %d rows [%d, %d], want %d from %d", rows, first, last, scanEvents, lo)
			}
			return err
		}
		window := func(class string, lo int) error {
			rows, _, _, err := c.queryRows(r.ctx, class, url.Values{
				"q":         {fmt.Sprintf("tid == %d && category == %d", tid, gen.HotCategory)},
				"min_stamp": {strconv.FormatUint(gen.FirstStamp(lo), 10)},
				"max_stamp": {strconv.FormatUint(gen.FirstStamp(lo+windowBatches)-1, 10)},
				"limit":     {strconv.Itoa(1 << 20)},
			})
			if want := r.stream.Count(lo, lo+windowBatches, match); err == nil && uint64(rows) != want {
				err = fmt.Errorf("oracle: %s window at batch %d returned %d rows, want %d", class, lo, rows, want)
			}
			return err
		}
		agg := func() error {
			got, err := c.queryCount(r.ctx, "agg", fmt.Sprintf("category == %d | count()", gen.HotCategory))
			if err == nil && got != aggWant {
				err = fmt.Errorf("oracle: agg counted %d, want %d", got, aggWant)
			}
			return err
		}
		coldWindow := &r.coldWindow[c.id] // rotates over the whole cold tier
		c.drive(r.ctx, pacer{}, 0, 1, roundsPerBlock, func(int, time.Time) error {
			if err := timed("scan", scan); err != nil {
				return err
			}
			for i := 0; i < selectivePerRound; i++ {
				// One fixed window per connection: resident in the block
				// cache after the first round.
				if err := timed("selective", func() error { return window("selective", c.id*windowBatches) }); err != nil {
					return err
				}
			}
			for i := 0; i < coldPerRound; i++ {
				lo := 2*windowBatches + (*coldWindow*windowBatches)%(coldBatches-3*windowBatches)
				*coldWindow += len(r.conns)
				if err := timed("cold", func() error { return window("cold", lo) }); err != nil {
					return err
				}
			}
			for i := 0; i < aggPerRound; i++ {
				if err := timed("agg", agg); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// tailBlock is tail-mixed's traffic: connection 0 writes open loop and
// every freshnessEvery-th ack polls until that batch is queryable;
// connection 1 is the /live subscriber opened during set-up. The op's
// latency is due time → first event of the batch seen on the stream, so
// the writer's own timings are kept as ack latency instead.
func (r *run) tailBlock() error {
	n := batchesIn(r.w.rate, trafficBlock)
	lo := r.next
	r.tail.measure(lo, lo+n, r.tracing)
	r.write(n, batchPeriod(r.w.rate), r.freshness)
	return r.tail.settle(r.stream, r.next)
}

// freshness runs on tail-mixed's writer after batch k is acked: every
// freshnessEvery-th time it polls /store/query until the batch's last
// event is visible, and notes how long that took.
func (r *run) freshness(c *conn, i, k int) error {
	if i%freshnessEvery != 0 {
		return nil
	}
	acked := time.Now()
	stamp := strconv.FormatUint(gen.FirstStamp(k)+gen.BatchEvents-1, 10)
	params := url.Values{"min_stamp": {stamp}, "max_stamp": {stamp}, "workers": {"0"}, "limit": {"1"}}
	for time.Since(acked) < 5*time.Second {
		rows, _, _, err := c.queryRows(r.ctx, "freshness", params)
		if err != nil {
			return err
		}
		if rows == 1 {
			r.tail.fresh(ms(time.Since(acked)))
			return nil
		}
		// Back-to-back polls would make the probe, not the traffic, the
		// server's largest cost, by an amount that depends on where in the
		// commit interval the ack fell.
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("freshness: stamp %s not queryable 5s after its ack", stamp)
}

// liveTail is the /live subscriber: it owns connection 1's goroutine
// for the life of the server, counts what the stream delivered and
// reported missed, and times each batch's first delivered event.
type liveTail struct {
	resp *http.Response
	done chan struct{}
	tids map[uint32]bool

	// dueNS[k] is batch k's due time in Unix nanoseconds, stored by the
	// writer before it sends and loaded by the reader afterwards.
	dueNS []atomic.Int64

	delivered atomic.Uint64
	missed    atomic.Uint64

	mu       sync.Mutex
	lo, hi   int // batches whose delivery is timed
	tracing  bool
	lag      []sample
	freshMS  []float64
	spans    []span
	lastSeen int
}

// maxTailBatches bounds the due-time table: far more batches than any
// run length the benchmark accepts can send at tail-mixed's rate.
const maxTailBatches = 1 << 17

// subscribeTail opens /live filtered to every other thread id of the
// writing client, so that half of what is published matches.
func subscribeTail(ctx context.Context, base string, stream *gen.Stream) (*liveTail, error) {
	t := &liveTail{done: make(chan struct{}), tids: map[uint32]bool{}, dueNS: make([]atomic.Int64, maxTailBatches), lastSeen: -1}
	var list []string
	for i, tid := range gen.ClientTIDs(0) {
		if i%2 == 0 {
			t.tids[tid] = true
			list = append(list, strconv.FormatUint(uint64(tid), 10))
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/live?tids="+strings.Join(list, ","), nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp, http.StatusOK); err != nil {
		resp.Body.Close()
		return nil, err
	}
	// The 200 means the server-side subscription exists: everything
	// written from here on is either delivered or reported missed.
	t.resp = resp
	go t.read()
	return t, nil
}

func (t *liveTail) close() {
	t.resp.Body.Close()
	<-t.done
}

// due is the writer's hook: it publishes batch k's due time.
func (t *liveTail) due(k int, at time.Time) { t.dueNS[k].Store(at.UnixNano()) }

func (t *liveTail) fresh(lagMS float64) {
	t.mu.Lock()
	t.freshMS = append(t.freshMS, lagMS)
	t.mu.Unlock()
}

func (t *liveTail) measure(lo, hi int, tracing bool) {
	t.mu.Lock()
	t.lo, t.hi, t.tracing = lo, hi, tracing
	t.mu.Unlock()
}

// read consumes the SSE stream until the body is closed. Only two
// things are parsed: the stamp of each trace frame (the first field of
// the server's JSON) and the count of each missed event.
func (t *liveTail) read() {
	defer close(t.done)
	br := bufio.NewReaderSize(t.resp.Body, 64<<10)
	stampKey := []byte(`data: {"stamp":`)
	missedNext := false
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return // the body was closed, or the server ended the stream
		}
		switch {
		case bytes.HasPrefix(line, stampKey):
			rest := line[len(stampKey):]
			end := bytes.IndexByte(rest, ',')
			stamp, perr := strconv.ParseUint(string(rest[:max(end, 0)]), 10, 64)
			if perr != nil {
				continue
			}
			t.delivered.Add(1)
			if k := gen.BatchOf(stamp); k > t.lastSeen {
				t.lastSeen = k
				t.first(k, time.Now())
			}
		case bytes.HasPrefix(line, []byte("event: missed")):
			missedNext = true
		case missedNext && bytes.HasPrefix(line, []byte("data: ")):
			missedNext = false
			if n, perr := strconv.ParseUint(string(bytes.TrimSpace(line[len("data: "):])), 10, 64); perr == nil {
				t.missed.Add(n)
			}
		}
	}
}

// first times batch k's first delivered event against its due time.
func (t *liveTail) first(k int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < t.lo || k >= t.hi {
		return
	}
	due := time.Unix(0, t.dueNS[k].Load())
	t.lag = append(t.lag, sample{at: due, ms: ms(now.Sub(due))})
	if t.tracing {
		t.spans = append(t.spans, span{Name: "live-delivery", Op: k - t.lo, Track: 1, Start: due, End: now})
	}
}

// settle waits until the stream has accounted for every matching event
// published so far: delivered + missed == matched, the live oracle.
func (t *liveTail) settle(stream *gen.Stream, sent int) error {
	want := stream.Count(0, sent, func(tid uint32, _ uint8) bool { return t.tids[tid] })
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := t.delivered.Load() + t.missed.Load()
		if got == want {
			return nil
		}
		if got > want || time.Now().After(deadline) {
			return fmt.Errorf("oracle: live delivered %d + missed %d = %d, want %d matching events",
				t.delivered.Load(), t.missed.Load(), got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// take hands over and clears what the subscriber measured.
func (t *liveTail) take() (lag []sample, freshMS []float64, spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lag, freshMS, spans = t.lag, t.freshMS, t.spans
	t.lag, t.freshMS, t.spans = nil, nil, nil
	return
}
