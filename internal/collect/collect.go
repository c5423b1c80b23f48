package collect

import (
	"fmt"
	"io"
	"strings"

	"btrace/internal/tracer"
)

// Trigger inspects newly collected events and decides whether to fire.
// Implementations are driven by a single collector goroutine.
type Trigger interface {
	// Observe consumes new events in stamp order and returns a non-empty
	// reason when the trigger fires.
	Observe(es []tracer.Entry) (reason string)
	// Name identifies the trigger in dump reasons.
	Name() string
}

// Watchdog fires when a category goes silent for longer than TimeoutNs of
// virtual time — the §6 silent-defect pattern (freeze/wake-up daemons use
// timeouts exceeding 20 s; driver daemons about 10 s).
type Watchdog struct {
	// Category is the category whose absence indicates the defect.
	Category uint8
	// TimeoutNs is the maximum tolerated silence in virtual nanoseconds.
	TimeoutNs uint64

	lastSeen uint64
	latest   uint64
	seenAny  bool
	fired    bool
}

// Name implements Trigger.
func (w *Watchdog) Name() string { return fmt.Sprintf("watchdog(cat=%d)", w.Category) }

// Observe implements Trigger.
func (w *Watchdog) Observe(es []tracer.Entry) string {
	for i := range es {
		e := &es[i]
		if e.TS > w.latest {
			w.latest = e.TS
		}
		if e.Category == w.Category {
			// A late (out-of-order) heartbeat must not move lastSeen
			// backwards: that would fabricate a silence episode.
			if e.TS > w.lastSeen {
				w.lastSeen = e.TS
			}
			w.seenAny = true
			w.fired = false
		}
	}
	if !w.seenAny || w.fired {
		return ""
	}
	if w.latest > w.lastSeen && w.latest-w.lastSeen > w.TimeoutNs {
		w.fired = true // fire once per silence episode
		return fmt.Sprintf("category %d silent for %.1fs (timeout %.1fs)",
			w.Category, float64(w.latest-w.lastSeen)/1e9, float64(w.TimeoutNs)/1e9)
	}
	return ""
}

// RateSpike fires when a category's event rate within a sliding virtual
// window exceeds a threshold — the anomaly-detector pattern (§2.2 Obs. 3)
// that decides when to grow the buffer or dump.
type RateSpike struct {
	// Category to monitor.
	Category uint8
	// WindowNs is the sliding window length in virtual nanoseconds.
	WindowNs uint64
	// MaxEvents is the tolerated event count per window.
	MaxEvents int

	times []uint64
	fired bool
}

// Name implements Trigger.
func (r *RateSpike) Name() string { return fmt.Sprintf("ratespike(cat=%d)", r.Category) }

// Observe implements Trigger.
func (r *RateSpike) Observe(es []tracer.Entry) string {
	for i := range es {
		e := &es[i]
		if e.Category != r.Category {
			continue
		}
		r.times = append(r.times, e.TS)
		// Drop entries outside the window. A late event (e.TS older than
		// a recorded time) must not be treated as "infinitely far ahead":
		// the unsigned subtraction would underflow and wrongly empty the
		// window, so only times strictly older than e.TS are candidates.
		cut := 0
		for cut < len(r.times) && r.times[cut] < e.TS && e.TS-r.times[cut] > r.WindowNs {
			cut++
		}
		r.times = r.times[cut:]
		if len(r.times) > r.MaxEvents {
			if r.fired {
				continue
			}
			r.fired = true
			return fmt.Sprintf("category %d rate %d/window exceeds %d", r.Category, len(r.times), r.MaxEvents)
		}
		r.fired = false
	}
	return ""
}

// LossDetector fires when the collector itself misses events between
// polls (the buffer wrapped faster than the daemon drained), signalling
// that the buffer should be grown.
type LossDetector struct {
	// Tolerance is the number of missed events tolerated per poll.
	Tolerance uint64
}

// Name implements Trigger.
func (l *LossDetector) Name() string { return "lossdetector" }

// Observe implements Trigger; the Collector feeds it the missed count via
// ObserveMissed, so Observe never fires.
func (l *LossDetector) Observe([]tracer.Entry) string { return "" }

// ObserveMissed reports missed events from a poll.
func (l *LossDetector) ObserveMissed(missed uint64) string {
	if missed > l.Tolerance {
		return fmt.Sprintf("collector missed %d events (tolerance %d)", missed, l.Tolerance)
	}
	return ""
}

// Dump is one triggered collection.
type Dump struct {
	// Reason describes the triggers that fired, each prefixed with its
	// name; simultaneous triggers are joined with "; " (a watchdog and a
	// rate spike firing on the same poll both appear).
	Reason string
	// Events is the retained window at the time of the dump.
	Events []tracer.Entry
}

// Collector follows a trace source and dumps on triggers.
type Collector struct {
	src tracer.Cursor
	// batch is the reusable read buffer Step hands to the cursor.
	batch    []tracer.Entry
	triggers []Trigger
	loss     *LossDetector
	// window is the rolling context kept for dumps.
	window []tracer.Entry
	// MaxWindow bounds the rolling context (default 1<<16 events).
	maxWindow int

	polls  uint64
	missed uint64
}

// Config configures a Collector.
type Config struct {
	// Source is the incremental trace source (core.Buffer.NewCursor).
	Source tracer.Cursor
	// Triggers fire dumps. A LossDetector among them additionally
	// receives the per-poll missed counts.
	Triggers []Trigger
	// MaxWindowEvents bounds the rolling context window (default 65536).
	MaxWindowEvents int
}

// New creates a Collector.
func New(cfg Config) (*Collector, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("collect: nil source")
	}
	if cfg.MaxWindowEvents == 0 {
		cfg.MaxWindowEvents = 1 << 16
	}
	c := &Collector{src: cfg.Source, triggers: cfg.Triggers, maxWindow: cfg.MaxWindowEvents}
	for _, t := range cfg.Triggers {
		if l, ok := t.(*LossDetector); ok {
			c.loss = l
		}
	}
	return c, nil
}

// stepBatch sizes the reads of Step.
const stepBatch = 512

// Step follows the source up to where it is now — batch after batch
// until a read comes back short — feeding the window and the triggers,
// and returns the Dump of the first batch on which any fired (nil
// otherwise; what is left unread is the next Step's). All triggers that
// fire on the same batch contribute to the dump reason — a watchdog and
// a rate spike firing together are both reported. A healthy source is
// assumed: a read error ends the step like an empty read.
//
// A batch is borrowed (the tracer.Cursor ownership contract: entries and
// payloads are only valid until the next Next call). Triggers observe it
// in place; what enters the rolling window is deep-copied.
func (c *Collector) Step() *Dump {
	if c.batch == nil {
		c.batch = make([]tracer.Entry, stepBatch)
	}
	for {
		n, missed, _ := c.src.Next(c.batch)
		es := c.batch[:n]
		c.polls++
		c.missed += missed

		c.window = tracer.CloneEntries(c.window, es)
		if over := len(c.window) - c.maxWindow; over > 0 {
			c.window = append(c.window[:0], c.window[over:]...)
		}

		var reasons []string
		if c.loss != nil && missed > 0 {
			if r := c.loss.ObserveMissed(missed); r != "" {
				reasons = append(reasons, c.loss.Name()+": "+r)
			}
		}
		for _, t := range c.triggers {
			if r := t.Observe(es); r != "" {
				reasons = append(reasons, t.Name()+": "+r)
			}
		}
		if len(reasons) > 0 {
			dump := &Dump{Reason: strings.Join(reasons, "; "), Events: append([]tracer.Entry(nil), c.window...)}
			c.window = c.window[:0] // a dumped window is consumed
			return dump
		}
		if n < len(c.batch) {
			return nil
		}
	}
}

// Stats returns (source reads, events missed across all of them).
func (c *Collector) Stats() (polls, missed uint64) { return c.polls, c.missed }

// WriteTo serializes a dump's events as consecutive wire records (the
// format btrace-inspect consumes).
func (d *Dump) WriteTo(w io.Writer) (int64, error) {
	var total int64
	buf := make([]byte, tracer.EventWireSize(tracer.MaxPayload))
	for i := range d.Events {
		n, err := tracer.EncodeEvent(buf, &d.Events[i])
		if err != nil {
			return total, err
		}
		m, err := w.Write(buf[:n])
		total += int64(m)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
