// Package export converts trace readouts into interchange formats: the
// Chrome trace-event JSON consumed by chrome://tracing and Perfetto (the
// trace viewers the paper's ecosystem uses [17, 37, 39]), CSV for ad-hoc
// analysis, and a human-readable text rendering modeled on the kernel's
// trace output.
package export

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// chromeEvent is one entry in the Chrome trace-event "traceEvents" array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	PID  int            `json:"pid"` // core, so the viewer groups by core
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace writes es as Chrome trace-event JSON: ChromeTraceCursor
// over the slice, so a drained readout and a streamed one are the same
// document.
func ChromeTrace(w io.Writer, es []tracer.Entry) error {
	_, _, err := ChromeTraceCursor(w, &sliceCursor{es: es}, make([]tracer.Entry, 256))
	return err
}

// sliceCursor hands out a slice's entries, in order, and then its end.
type sliceCursor struct{ es []tracer.Entry }

func (c *sliceCursor) Next(batch []tracer.Entry) (int, uint64, error) {
	n := copy(batch, c.es)
	c.es = c.es[n:]
	return n, 0, nil
}

func (c *sliceCursor) Close() error { return nil }

// csvHeader is the column set shared by CSV and CSVCursor.
const csvHeader = "stamp,ts_ns,core,tid,category,level,payload_bytes\n"

// csvWriter renders entries as CSV rows. Every field is a decimal or an
// atrace category name, none of which can need quoting, so rows are
// appended digit by digit straight into the bufio.Writer's own free
// space instead of going through encoding/csv's per-field strings and
// quoting checks, or a row buffer that is then copied; the bytes are
// what encoding/csv would have written (the tests hold it to that,
// header included).
type csvWriter struct {
	bw *bufio.Writer
}

// maxCSVRow bounds one row: the six decimals at their widest (two
// uint64, a uint32, two uint8, a payload length), the longest category
// name, six commas and the newline. It is far below a bufio.Writer's
// buffer, so a flushed writer always has room for a row.
var maxCSVRow = func() int {
	name := len(workload.Category(workload.NumCategories).Name())
	for c := workload.Category(0); c < workload.NumCategories; c++ {
		name = max(name, len(c.Name()))
	}
	return 20 + 20 + 10 + 3 + 3 + 5 + name + 6 + 1
}()

// csvBufferBytes is the CSV writer's buffer. A large export reaches w in
// 64 KiB writes — over HTTP one chunk each, where bufio's default 4 KiB
// made sixteen.
const csvBufferBytes = 64 << 10

// csvWriters pools the writers and their buffers: a one-row export (a
// freshness probe, hundreds a second) must not allocate and zero 64 KiB.
var csvWriters = sync.Pool{New: func() any {
	return &csvWriter{bw: bufio.NewWriterSize(nil, csvBufferBytes)}
}}

// newCSVWriter starts a CSV document on w: it writes the header row.
// The writer comes from the pool; release returns it.
func newCSVWriter(w io.Writer) (*csvWriter, error) {
	cw := csvWriters.Get().(*csvWriter)
	cw.bw.Reset(w)
	_, err := cw.bw.WriteString(csvHeader)
	return cw, err
}

// release drops whatever is unflushed, and w, and pools the writer.
func (cw *csvWriter) release() {
	cw.bw.Reset(nil)
	csvWriters.Put(cw)
}

// rows writes one row per entry: as many as fit are formatted in place
// in the writer's free space and committed with one Write, which finds
// them where it would have copied them to.
func (cw *csvWriter) rows(es []tracer.Entry) error {
	bw := cw.bw
	for len(es) > 0 {
		if bw.Available() < maxCSVRow {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		for len(es) > 0 && cap(b)-len(b) >= maxCSVRow {
			e := &es[0]
			es = es[1:]
			b = append(appendDecimal(b, e.Stamp), ',')
			b = append(appendDecimal(b, e.TS), ',')
			b = append(appendDecimal(b, uint64(e.Core)), ',')
			b = append(appendDecimal(b, uint64(e.TID)), ',')
			b = append(b, workload.Category(e.Category).Name()...)
			b = append(b, ',')
			b = append(appendDecimal(b, uint64(e.Level)), ',')
			b = append(appendDecimal(b, uint64(len(e.Payload))), '\n')
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// digitPairs is "00" "01" … "99".
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendDecimal appends v in base 10, as strconv.AppendUint does,
// writing the digits two at a time into place: the digit count is known
// up front (1233/4096 approximates log10 2 closely enough for 64 bits),
// so nothing is formatted into a scratch array and copied. b must have
// room for the digits (at most 20).
func appendDecimal(b []byte, v uint64) []byte {
	n := bits.Len64(v) * 1233 >> 12
	if v >= pow10[n] {
		n++
	}
	n = max(n, 1) // "0"
	b = b[:len(b)+n]
	i := len(b)
	for v >= 100 {
		q := v / 100
		r := (v - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		v = q
	}
	if v >= 10 {
		b[i-2], b[i-1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		b[i-1] = byte('0' + v)
	}
	return b
}

// CSV writes es as comma-separated rows with a header.
func CSV(w io.Writer, es []tracer.Entry) error {
	cw, err := newCSVWriter(w)
	defer cw.release()
	if err != nil {
		return err
	}
	if err := cw.rows(es); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// Text writes es in a human-readable, ftrace-output-like form:
//
//	[core] tid=NNN  12.345678s  category  level=N  stamp=NNN  payload...
func Text(w io.Writer, es []tracer.Entry) error {
	for i := range es {
		e := &es[i]
		payload := ""
		if len(e.Payload) > 0 {
			const maxShown = 32
			p := e.Payload
			trunc := ""
			if len(p) > maxShown {
				p, trunc = p[:maxShown], "..."
			}
			if printable(p) {
				payload = fmt.Sprintf("  %q%s", p, trunc)
			} else {
				payload = fmt.Sprintf("  %x%s", p, trunc)
			}
		}
		if _, err := fmt.Fprintf(w, "[%03d] tid=%-7d %12.6fs  %-18s level=%d stamp=%d%s\n",
			e.Core, e.TID, float64(e.TS)/1e9, workload.Category(e.Category).Name(),
			e.Level, e.Stamp, payload); err != nil {
			return err
		}
	}
	return nil
}

func printable(p []byte) bool {
	for _, b := range p {
		if b < 0x20 || b > 0x7e {
			return false
		}
	}
	return true
}
