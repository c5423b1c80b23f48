package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// sample is one completed operation: when it was due and how long it
// took, in milliseconds.
type sample struct {
	at time.Time
	ms float64
}

// clock lets the open-loop scheduler run under a fake clock in tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// pacer is an open-loop schedule: operation k is due at start + k×period
// whatever happened to the operations before it. A zero period is a
// closed loop: every operation is due the moment the connection is
// free, and no new one starts once end (if set) has passed.
type pacer struct {
	start  time.Time
	period time.Duration
	end    time.Time
}

func (p pacer) due(clk clock, k int) time.Time {
	if p.period == 0 {
		return clk.Now()
	}
	return p.start.Add(time.Duration(k) * p.period)
}

// giveUpAfter bounds how far behind its schedule a connection may fall
// before the remaining operations are counted as failed instead of
// sent: a run must end even against a server that stopped answering.
const giveUpAfter = 10 * time.Second

// conn is one loader goroutine with its one HTTP connection, and
// everything it measured. Nothing in it is shared while a run is in
// flight; the run merges its connections afterwards.
type conn struct {
	id   int
	hc   *http.Client
	base string
	clk  clock

	// lateMS is how late the generator itself ran: send time minus the
	// moment the operation could first have been sent (its due time, or
	// the previous operation's completion if that came later). On the
	// reference box timers fire on a 1 ms tick, so this is up to a
	// millisecond of the loader's own making and not the server's.
	lateMS []float64
	// lat is completion minus due time, less that lateness: service time
	// plus whatever the operation queued behind on its connection.
	lat []sample
	// done, if set, counts completed operations across connections.
	done      *atomic.Int64
	attempted int
	failed    int
	firstErr  error
	http429   int
	http503   int

	tracing bool
	op      int // the operation in flight: every span it causes carries it
	spans   []span
}

func newConn(id int, base string, clk clock) *conn {
	// One idle connection is all a sequential goroutine can use.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{id: id, hc: &http.Client{Transport: tr}, base: base, clk: clk}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

func (c *conn) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// drive runs operations first, first+stride, … below n on this
// connection against the pacer, timing each from its due time. op also
// gets the instant its latency counts from: the due time, moved by the
// generator's own lateness. A cancelled ctx ends the loop early.
func (c *conn) drive(ctx context.Context, p pacer, first, stride, n int, op func(k int, from time.Time) error) {
	var free time.Time // when the previous operation completed
	for k := first; k < n && ctx.Err() == nil; k += stride {
		due := p.due(c.clk, k)
		if !p.end.IsZero() && !due.Before(p.end) {
			break
		}
		c.clk.SleepUntil(due)
		sent := c.clk.Now()
		c.attempted++
		if sent.Sub(due) > giveUpAfter {
			c.fail(fmt.Errorf("operation %d not sent: %v behind schedule", k, sent.Sub(due)))
			continue
		}
		c.op = k
		ready := due
		if free.After(due) {
			ready = free
		}
		late := sent.Sub(ready)
		err := op(k, due.Add(late))
		done := c.clk.Now()
		free = done
		if err != nil {
			c.fail(err)
			continue
		}
		c.lateMS = append(c.lateMS, ms(late))
		c.lat = append(c.lat, sample{at: due, ms: ms(done.Sub(due) - late)})
		if c.done != nil {
			c.done.Add(1)
		}
		if c.tracing {
			c.spans = append(c.spans, span{Name: "wait", Op: k, Start: due, End: sent})
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do issues one request and hands the response body to read. With
// tracing on it records the request span and its first-byte and
// read-body children, all carrying the operation's id.
func (c *conn) do(ctx context.Context, name, method, path string, body []byte, read func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := c.clk.Now()
	var firstByte time.Time
	if c.tracing {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		c.http429++
	case http.StatusServiceUnavailable:
		c.http503++
	}
	err = read(resp)
	io.Copy(io.Discard, resp.Body) // keep the connection reusable
	resp.Body.Close()
	if c.tracing {
		end := c.clk.Now()
		c.spans = append(c.spans, span{Name: name, Op: c.op, Start: start, End: end})
		if !firstByte.IsZero() {
			c.spans = append(c.spans,
				span{Name: "first-byte", Op: c.op, Start: start, End: firstByte},
				span{Name: "read-body", Op: c.op, Start: firstByte, End: end})
		}
	}
	return err
}

// errBackpressure is the server's 429: its ingest queue is full and the
// client is told to come back.
var errBackpressure = errors.New("backpressure")

func statusErr(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err := fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	if resp.StatusCode == http.StatusTooManyRequests {
		err = fmt.Errorf("%w: %w", errBackpressure, err)
	}
	return err
}

// ingest posts one batch and requires a 202 that acks every event:
// "accepted" on a single store, a replica quorum's "acked" in a cluster.
func (c *conn) ingest(ctx context.Context, body []byte, events int) error {
	return c.do(ctx, "ingest", http.MethodPost, "/ingest", body, func(resp *http.Response) error {
		if err := statusErr(resp, http.StatusAccepted); err != nil {
			return err
		}
		var ack struct {
			Accepted int  `json:"accepted"`
			Acked    *int `json:"acked"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return fmt.Errorf("ingest: bad ack: %w", err)
		}
		got := ack.Accepted
		if ack.Acked != nil {
			got = *ack.Acked
		}
		if got != events {
			return fmt.Errorf("ingest: %d of %d events acked", got, events)
		}
		return nil
	})
}

// controlPost posts one body to the control server, which must answer
// 202 and have read every byte.
func (c *conn) controlPost(ctx context.Context, body []byte) error {
	return c.do(ctx, "control", http.MethodPost, "/ingest", body, func(resp *http.Response) error {
		if err := statusErr(resp, http.StatusAccepted); err != nil {
			return err
		}
		var ack struct {
			Bytes int `json:"bytes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.Bytes != len(body) {
			return fmt.Errorf("control: %d of %d bytes acked (%v)", ack.Bytes, len(body), err)
		}
		return nil
	})
}

// controlScan streams rows CSV rows from the control server through
// the same reader the real exports go through.
func (c *conn) controlScan(ctx context.Context, rows int) error {
	return c.do(ctx, "control", http.MethodGet, "/scan?rows="+strconv.Itoa(rows), nil, func(resp *http.Response) error {
		if err := statusErr(resp, http.StatusOK); err != nil {
			return err
		}
		got, _, last, err := countCSV(resp.Body)
		if err == nil && (got != rows || last != uint64(rows)) {
			err = fmt.Errorf("control: scan returned %d rows ending at %d, want %d", got, last, rows)
		}
		return err
	})
}

// queryCount runs a BTQL aggregate and returns result.events.
func (c *conn) queryCount(ctx context.Context, name, q string) (uint64, error) {
	var n uint64
	err := c.do(ctx, name, http.MethodGet, "/store/query?q="+url.QueryEscape(q), nil, func(resp *http.Response) error {
		if err := statusErr(resp, http.StatusOK); err != nil {
			return err
		}
		var out struct {
			Missed uint64 `json:"missed"`
			Result struct {
				Events uint64 `json:"events"`
			} `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("query: bad aggregate body: %w", err)
		}
		if out.Missed != 0 {
			return fmt.Errorf("query: aggregate missed %d events", out.Missed)
		}
		n = out.Result.Events
		return nil
	})
	return n, err
}

// queryRows streams a CSV export and returns its row count and the
// first and last stamp, without holding the body.
func (c *conn) queryRows(ctx context.Context, name string, params url.Values) (rows int, first, last uint64, err error) {
	params.Set("format", "csv")
	err = c.do(ctx, name, http.MethodGet, "/store/query?"+params.Encode(), nil, func(resp *http.Response) error {
		if err := statusErr(resp, http.StatusOK); err != nil {
			return err
		}
		rows, first, last, err = countCSV(resp.Body)
		return err
	})
	return rows, first, last, err
}

// countCSV counts the data rows of a "stamp,…" CSV stream and parses
// the stamp column of the first and the last row.
func countCSV(r io.Reader) (rows int, first, last uint64, err error) {
	br := bufio.NewReaderSize(r, 256<<10)
	header, err := br.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(header, []byte("stamp,")) {
		return 0, 0, 0, fmt.Errorf("query: unexpected CSV header %q (%v)", header, err)
	}
	stampOf := func(line []byte) (uint64, error) {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			return 0, fmt.Errorf("query: malformed CSV row %q", line)
		}
		return strconv.ParseUint(string(line[:i]), 10, 64)
	}
	var lastLine []byte
	for {
		line, rerr := br.ReadSlice('\n')
		if len(line) > 1 {
			rows++
			if rows == 1 {
				if first, err = stampOf(line); err != nil {
					return rows, 0, 0, err
				}
			}
			lastLine = append(lastLine[:0], line...)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rows, first, 0, rerr
		}
	}
	if rows > 0 {
		last, err = stampOf(lastLine)
	}
	return rows, first, last, err
}

// percentile is the nearest-rank p-quantile of sorted, p in (0, 1].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// pickTail returns the highest of p50, p90 and p99 that still has at
// least ten of the n samples beyond its nearest-rank position, or 0.5
// when none has.
func pickTail(n int) float64 {
	best := 0.5
	for _, perMille := range []int{500, 900, 990} {
		if rank := (n*perMille + 999) / 1000; n-rank >= 10 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

func millis(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }
