package vulture

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"btrace/internal/live"
	"btrace/internal/tracer"
)

// RunnerConfig shapes one vulture run.
type RunnerConfig struct {
	// BaseURL locates the btrace-serve under test, e.g.
	// "http://localhost:8321".
	BaseURL string
	// Tenant is sent as X-Btrace-Tenant on every write and on the live
	// subscription; empty uses the server's default tenant.
	Tenant string
	// Writers is the number of concurrent write streams, each with its
	// own TID (default 2).
	Writers int
	// Batch is events per POST /ingest (default 64).
	Batch int
	// Interval is each writer's pause between batches (default 20ms).
	Interval time.Duration
	// Settle is how long after an ack the readers wait before demanding
	// the stamps back — the eventual-durability grace on the async
	// single-store path (default 500ms).
	Settle time.Duration
	// Duration bounds the writing phase; verification of already-acked
	// batches continues past it (default 30s).
	Duration time.Duration
	// ColdAge, when positive, re-verifies each batch once it is this old —
	// aimed past the server's -cold-after so the read exercises the
	// frozen columnar tier (0 = skip the cold surface).
	ColdAge time.Duration
	// BTQL additionally reads each range back through the query
	// language: the ?q= filter stage as a CSV stream (surface "btql",
	// the predicate-pushdown scan path) and a count() pipeline whose
	// aggregate executes server-side over the columns (surface
	// "btql-count"; the cold re-verification adds "cold-count"). Both
	// must agree exactly with the ack contract.
	BTQL bool
	// Live subscribes to /live filtered by the writers' TIDs and verifies
	// per-stream ordering and the delivered+missed accounting.
	Live bool
	// StrictLive additionally requires every admitted event to be
	// accounted for on the live tail (delivered or counted missed) —
	// only sound when the server runs with sampling and shedding off.
	StrictLive bool
	// TIDBase is the first writer's TID; writer i uses TIDBase+i
	// (default 9000).
	TIDBase uint32
	// PayloadBytes pads each event's payload to this size; at least 8
	// bytes always carry the stamp for cross-checking (default 32).
	PayloadBytes int
	// HTTP overrides the client (default: dedicated client, no timeout —
	// the live stream is long-lived; range reads set per-request
	// contexts).
	HTTP *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Settle <= 0 {
		c.Settle = 500 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.TIDBase == 0 {
		c.TIDBase = 9000
	}
	if c.PayloadBytes < 8 {
		c.PayloadBytes = 32
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// batchRef is one fully-acked contiguous stamp range awaiting read-back.
type batchRef struct {
	lo, hi uint64
	tid    uint32 // the writer's TID — BTQL probes filter on it
	acked  time.Time
}

// runner is one Run invocation's state.
type runner struct {
	cfg    RunnerConfig
	rep    *Report
	start  time.Time
	stamps atomic.Uint64 // last allocated stamp
}

// writeRetries bounds the backoff loop on 429/503 before a batch's
// stamps are burned (never probed — backpressure is not loss).
const writeRetries = 20

// readRetries bounds transient-failure retries on a verification read
// (a shard drain mid-probe answers 503 for a moment).
const readRetries = 5

// Run drives a complete vulture pass against cfg.BaseURL: writers push
// stamped batches for cfg.Duration while readers verify every acked
// range on every query surface, then everything drains and the report
// is returned. The returned error covers setup failures only (server
// unreachable); verification failures are in the report (Failed()).
func Run(ctx context.Context, cfg RunnerConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	v := &runner{cfg: cfg, rep: NewReport(), start: time.Now()}
	if err := v.waitReady(ctx); err != nil {
		return v.rep, err
	}

	// The live subscription must exist before the first write: a 200
	// response means the server-side Subscribe has happened.
	var (
		liveResp *http.Response
		liveDone chan liveResult
	)
	if cfg.Live {
		resp, err := v.subscribeLive(ctx)
		if err != nil {
			return v.rep, fmt.Errorf("vulture: live subscribe: %w", err)
		}
		liveResp = resp
		liveDone = make(chan liveResult, 1)
		go v.readLive(resp, liveDone)
	}

	pending := make(chan batchRef, 1024)
	coldPending := make(chan batchRef, 4096)
	var admitted atomic.Uint64 // events the gate let through (acked + refused)

	wctx, cancelWriters := context.WithTimeout(ctx, cfg.Duration)
	defer cancelWriters()
	var writers sync.WaitGroup
	for i := 0; i < cfg.Writers; i++ {
		writers.Add(1)
		go func(tid uint32) {
			defer writers.Done()
			v.write(wctx, tid, pending, &admitted)
		}(cfg.TIDBase + uint32(i))
	}

	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		v.verifyWarm(ctx, pending, coldPending)
	}()

	writers.Wait()
	close(pending)
	readers.Wait()
	close(coldPending)
	v.verifyCold(ctx, coldPending)

	if cfg.Live {
		// Grace for in-flight hub deliveries, then cut the stream and
		// settle the books.
		time.Sleep(2 * cfg.Settle)
		liveResp.Body.Close()
		res := <-liveDone
		v.rep.Add(&v.rep.LiveMissed, res.missed)
		if cfg.StrictLive {
			if want := admitted.Load(); want > res.delivered+res.missed {
				v.rep.LiveLoss(want - (res.delivered + res.missed))
			}
		}
	}
	return v.rep, ctx.Err()
}

// waitReady polls /readyz until the server answers 200 or the attempt
// budget runs out.
func (v *runner) waitReady(ctx context.Context) error {
	var lastErr error
	for i := 0; i < 40; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := v.cfg.HTTP.Get(v.cfg.BaseURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("readyz status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("vulture: server never became ready: %w", lastErr)
}

// write is one writer stream: contiguous stamp ranges, a fixed TID, a
// virtual-time TS (nanoseconds since run start, so the server's
// cold-after aging clock advances with the run).
func (v *runner) write(ctx context.Context, tid uint32, pending chan<- batchRef, admitted *atomic.Uint64) {
	payload := make([]byte, v.cfg.PayloadBytes)
	for ctx.Err() == nil {
		hi := v.stamps.Add(uint64(v.cfg.Batch))
		lo := hi - uint64(v.cfg.Batch) + 1
		now := uint64(time.Since(v.start).Nanoseconds())
		var buf bytes.Buffer
		for s := lo; s <= hi; s++ {
			for i := 0; i < 8; i++ {
				payload[i] = byte(s >> (8 * i))
			}
			e := tracer.Entry{
				Stamp: s, TS: now + (s - lo), Core: uint8(tid % 4),
				TID: tid, Category: 1, Level: 1, Payload: payload,
			}
			rec := make([]byte, e.WireSize())
			n, err := tracer.EncodeEvent(rec, &e)
			if err != nil {
				v.cfg.Logf("vulture: encode stamp %d: %v", s, err)
				return
			}
			buf.Write(rec[:n])
		}
		if ref, ok := v.post(ctx, buf.Bytes(), lo, hi, admitted); ok {
			ref.tid = tid
			select {
			case pending <- ref:
			case <-ctx.Done():
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(v.cfg.Interval):
		}
	}
}

// ingestAck mirrors the /ingest 202 JSON; Acked is present only in
// cluster mode, which is how the runner tells the two apart.
type ingestAck struct {
	Accepted    uint64  `json:"accepted"`
	Acked       *uint64 `json:"acked"`
	Throttled   uint64  `json:"throttled"`
	GateDropped uint64  `json:"gate_dropped"`
	Refused     uint64  `json:"refused"`
}

// post delivers one encoded batch, retrying through backpressure. It
// returns the batch's verification ref and whether every stamp in
// [lo, hi] was acked (partial acks burn the whole range: stamps that
// were dropped by policy must never be demanded back).
func (v *runner) post(ctx context.Context, body []byte, lo, hi uint64, admitted *atomic.Uint64) (batchRef, bool) {
	n := hi - lo + 1
	for attempt := 0; attempt < writeRetries; attempt++ {
		if ctx.Err() != nil {
			return batchRef{}, false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			v.cfg.BaseURL+"/ingest", bytes.NewReader(body))
		if err != nil {
			return batchRef{}, false
		}
		if v.cfg.Tenant != "" {
			req.Header.Set("X-Btrace-Tenant", v.cfg.Tenant)
		}
		resp, err := v.cfg.HTTP.Do(req)
		if err != nil {
			v.rep.Add(&v.rep.Backoffs, 1)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			v.rep.Add(&v.rep.BatchesSent, 1)
			var ack ingestAck
			if err := json.Unmarshal(respBody, &ack); err != nil {
				v.cfg.Logf("vulture: bad ack body %q: %v", respBody, err)
				return batchRef{}, false
			}
			if ack.Acked == nil {
				// Single store: 202 is an eventual-durability promise for
				// the whole batch.
				v.rep.Add(&v.rep.EventsAcked, ack.Accepted)
				admitted.Add(ack.Accepted)
				return batchRef{lo: lo, hi: hi, acked: time.Now()}, ack.Accepted == n
			}
			v.rep.Add(&v.rep.EventsAcked, *ack.Acked)
			v.rep.Add(&v.rep.EventsDropped, ack.Throttled+ack.GateDropped)
			v.rep.Add(&v.rep.EventsRefused, ack.Refused)
			admitted.Add(*ack.Acked + ack.Refused)
			return batchRef{lo: lo, hi: hi, acked: time.Now()}, *ack.Acked == n
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			v.rep.Add(&v.rep.Backoffs, 1)
			wait := 100 * time.Millisecond
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.Atoi(ra); err == nil && secs > 0 && secs <= 10 {
					wait = time.Duration(secs) * time.Second
				}
			}
			time.Sleep(wait)
		default:
			v.cfg.Logf("vulture: ingest status %d: %s", resp.StatusCode, respBody)
			return batchRef{}, false
		}
	}
	v.cfg.Logf("vulture: batch [%d, %d] gave up after %d backoffs (stamps burned)",
		lo, hi, writeRetries)
	return batchRef{}, false
}

// verifyWarm drains the pending queue: each acked range, once settled,
// is read back through /store/query (surface "one-worker"); ranges then
// move on to the cold queue.
func (v *runner) verifyWarm(ctx context.Context, pending <-chan batchRef, cold chan<- batchRef) {
	for ref := range pending {
		if wait := time.Until(ref.acked.Add(v.cfg.Settle)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		v.checkRange(ctx, "one-worker", ref, false)
		if v.cfg.BTQL {
			v.checkRange(ctx, "btql", ref, true)
			v.checkCount(ctx, "btql-count", ref)
		}
		if v.cfg.ColdAge > 0 {
			select {
			case cold <- ref:
			default:
				v.cfg.Logf("vulture: cold queue full, range [%d, %d] skipped", ref.lo, ref.hi)
			}
		}
	}
}

// verifyCold replays settled ranges once they are ColdAge old: by then
// the server's compactor has frozen their segments, so the same read
// exercises the columnar tier.
func (v *runner) verifyCold(ctx context.Context, cold <-chan batchRef) {
	for ref := range cold {
		if wait := time.Until(ref.acked.Add(v.cfg.ColdAge)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		v.checkRange(ctx, "cold", ref, false)
		if v.cfg.BTQL {
			// By now the range is frozen: this count() runs the columnar
			// aggregate executor over cold blocks, pruning on the block
			// metadata the same filter wrote.
			v.checkCount(ctx, "cold-count", ref)
		}
	}
}

// checkRange reads [ref.lo, ref.hi] back through one surface and holds
// it to the ack contract. A dirty first read gets one settle-and-retry
// before it is recorded: the single-store path's 202 is an eventual
// promise, and the vulture alerts on broken promises, not on reads that
// raced durability.
func (v *runner) checkRange(ctx context.Context, surface string, ref batchRef, btql bool) {
	stamps, err := v.fetchStamps(ctx, ref, btql)
	if err == nil && rangeClean(ref, stamps) {
		v.rep.VerifyRange(surface, ref.lo, ref.hi, stamps)
		return
	}
	select {
	case <-time.After(v.cfg.Settle):
	case <-ctx.Done():
	}
	retry, rerr := v.fetchStamps(ctx, ref, btql)
	if rerr != nil {
		if err == nil {
			retry = stamps // first read at least answered; judge that one
		} else {
			v.cfg.Logf("vulture: %s read [%d, %d] failed twice: %v", surface, ref.lo, ref.hi, rerr)
			v.rep.VerifyRange(surface, ref.lo, ref.hi, nil) // unreadable = loss
			return
		}
	}
	v.rep.VerifyRange(surface, ref.lo, ref.hi, retry)
}

// rangeClean pre-checks a read result so checkRange can skip the retry
// on the happy path without double-counting report stats.
func rangeClean(ref batchRef, stamps []uint64) bool {
	n := ref.hi - ref.lo + 1
	if uint64(len(stamps)) != n {
		return false
	}
	prev := ref.lo - 1
	for _, s := range stamps {
		if s != prev+1 {
			return false
		}
		prev = s
	}
	return true
}

// fetchStamps reads one stamp range through /store/query in CSV form
// and returns the stamp column, retrying transient failures. With btql
// the same range is expressed as a ?q= filter instead of the field
// parameters, so the read exercises the compiled-predicate scan path.
func (v *runner) fetchStamps(ctx context.Context, ref batchRef, btql bool) ([]uint64, error) {
	n := ref.hi - ref.lo + 1
	limit := 2 * n // room to observe duplicates
	if limit > 1<<20 {
		limit = 1 << 20
	}
	var u string
	if btql {
		src := fmt.Sprintf("stamp >= %d && stamp <= %d && %s", ref.lo, ref.hi, v.tidFilter(ref))
		u = fmt.Sprintf("%s/store/query?limit=%d&format=csv&q=%s",
			v.cfg.BaseURL, limit, url.QueryEscape(src))
	} else {
		u = fmt.Sprintf("%s/store/query?min_stamp=%d&max_stamp=%d&limit=%d&format=csv",
			v.cfg.BaseURL, ref.lo, ref.hi, limit)
	}
	var lastErr error
	for attempt := 0; attempt < readRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stamps, err := v.fetchCSV(ctx, u)
		if err == nil {
			return stamps, nil
		}
		lastErr = err
		time.Sleep(200 * time.Millisecond)
	}
	return nil, lastErr
}

// tidFilter spells "the writer's thread" for a BTQL read: every other
// batch as an in list, beside a thread id no writer uses, so that the
// soak holds `in` to the ack contract on every surface it holds `==`
// to.
func (v *runner) tidFilter(ref batchRef) string {
	if n := ref.hi - ref.lo + 1; ref.hi/n%2 == 0 {
		return fmt.Sprintf("tid in (%d, %d)", ref.tid, v.cfg.TIDBase+uint32(v.cfg.Writers))
	}
	return fmt.Sprintf("tid == %d", ref.tid)
}

// checkCount holds a server-side `... | count()` over [ref.lo, ref.hi]
// to the ack contract: exactly one count per acked stamp, replica-free.
// Gets the same settle-and-retry grace as the range reads.
func (v *runner) checkCount(ctx context.Context, surface string, ref batchRef) {
	n := ref.hi - ref.lo + 1
	got, err := v.fetchCount(ctx, ref)
	if err == nil && got == n {
		v.rep.VerifyCount(surface, ref.lo, ref.hi, got)
		return
	}
	select {
	case <-time.After(v.cfg.Settle):
	case <-ctx.Done():
	}
	retry, rerr := v.fetchCount(ctx, ref)
	if rerr != nil {
		if err != nil {
			v.cfg.Logf("vulture: %s count [%d, %d] failed twice: %v", surface, ref.lo, ref.hi, rerr)
			v.rep.VerifyCount(surface, ref.lo, ref.hi, 0) // unanswerable = loss
			return
		}
		retry = got // first read at least answered; judge that one
	}
	v.rep.VerifyCount(surface, ref.lo, ref.hi, retry)
}

// fetchCount runs one BTQL count() aggregate over the range, retrying
// transient failures.
func (v *runner) fetchCount(ctx context.Context, ref batchRef) (uint64, error) {
	src := fmt.Sprintf("stamp >= %d && stamp <= %d && %s | count()", ref.lo, ref.hi, v.tidFilter(ref))
	u := v.cfg.BaseURL + "/store/query?q=" + url.QueryEscape(src)
	var lastErr error
	for attempt := 0; attempt < readRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		got, err := v.fetchCountOnce(ctx, u)
		if err == nil {
			return got, nil
		}
		lastErr = err
		time.Sleep(200 * time.Millisecond)
	}
	return 0, lastErr
}

func (v *runner) fetchCountOnce(ctx context.Context, u string) (uint64, error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := v.cfg.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("count status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var out struct {
		Result struct {
			Events uint64 `json:"events"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("bad count body %q: %v", bytes.TrimSpace(body), err)
	}
	return out.Result.Events, nil
}

func (v *runner) fetchCSV(ctx context.Context, url string) ([]uint64, error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := v.cfg.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "stamp,") {
		return nil, fmt.Errorf("unexpected CSV header %q", lines[0])
	}
	stamps := make([]uint64, 0, len(lines)-1)
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		col := line
		if i := strings.IndexByte(line, ','); i >= 0 {
			col = line[:i]
		}
		s, err := strconv.ParseUint(col, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad CSV stamp %q: %v", col, err)
		}
		stamps = append(stamps, s)
	}
	return stamps, nil
}

// subscribeLive opens the SSE stream filtered to the writers' TIDs.
func (v *runner) subscribeLive(ctx context.Context) (*http.Response, error) {
	tids := make([]string, v.cfg.Writers)
	for i := range tids {
		tids[i] = strconv.FormatUint(uint64(v.cfg.TIDBase)+uint64(i), 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		v.cfg.BaseURL+"/live?tids="+strings.Join(tids, ","), nil)
	if err != nil {
		return nil, err
	}
	if v.cfg.Tenant != "" {
		req.Header.Set("X-Btrace-Tenant", v.cfg.Tenant)
	}
	resp, err := v.cfg.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
		return nil, fmt.Errorf("live status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp, nil
}

type liveResult struct {
	delivered uint64
	missed    uint64
	evicted   bool
}

// readLive consumes the SSE stream until it ends (the runner closes the
// body when the soak is over, or the hub evicts us). Every frame's
// stamp must rise strictly within its TID stream, and the stamp echoed
// in the payload must match the frame's.
func (v *runner) readLive(resp *http.Response, done chan<- liveResult) {
	var res liveResult
	defer func() { done <- res }()
	last := make(map[uint32]*uint64)
	sr := live.NewStreamReader(resp.Body)
	for {
		event, data, err := sr.Next()
		if err != nil {
			return
		}
		switch event {
		case live.EventTrace:
			e, derr := live.DecodeFrame(data)
			if derr != nil {
				v.cfg.Logf("vulture: bad live frame %q: %v", data, derr)
				continue
			}
			l := last[e.TID]
			if l == nil {
				l = new(uint64)
				last[e.TID] = l
			}
			v.rep.ObserveLive(l, e.Stamp)
			res.delivered++
			if len(e.Payload) >= 8 {
				var echoed uint64
				for i := 0; i < 8; i++ {
					echoed |= uint64(e.Payload[i]) << (8 * i)
				}
				if echoed != e.Stamp {
					v.rep.VerifyRange("live", e.Stamp, e.Stamp, nil) // payload corruption = loss
				}
			}
		case live.EventMissed:
			if n, perr := live.ParseCount(data); perr == nil {
				res.missed += n
			}
		case live.EventEvicted:
			// The eviction notice carries the authoritative missed total.
			res.evicted = true
			if n, perr := live.ParseCount(data); perr == nil && n > res.missed {
				res.missed = n
			}
			return
		}
	}
}
